"""The three workloads: their jobs, their seeded inputs and their oracles.

A job has a name, a run() that is timed, and a check(output) that is not:
it returns None when the output is right and a one-line mismatch
otherwise.  Checks run after the timed loop, so any library call an
oracle makes neither costs wall time nor shows up in a trace.

Why each workload exists, and what it should move, is in README.md.
"""
import json
import math
from fractions import Fraction

import inputs
import oracle


class Job:
    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _claims(catalog, name):
    return catalog.get(name).claims


def _require(claim, name, what):
    """An oracle resting on a catalogue claim needs the claim."""
    if not claim:
        raise ValueError("the catalogue does not claim %s is %s"
                         % (name, what))


# -- certify: one CLI verb per job, each in a fresh process ------------------

def _series_counts(payload):
    """{norm: count} from the JSON of a q-series with unit q."""
    series = payload["series"]
    if series["unit"] != "q":
        raise ValueError("unexpected series unit %r" % series["unit"])
    counts = {int(e): int(Fraction(c)) for e, c in series["terms"]}
    return counts, series["prec"]


def want_cert(verdict, **details):
    """Check of a certificate: its verdict and some of its details.  Takes
    a CertReport or its JSON form."""
    def check(rep):
        if not isinstance(rep, dict):
            rep = rep.to_dict()
        if rep.get("verdict") != verdict:
            return "verdict %s, expected %s" % (rep.get("verdict"), verdict)
        for key, value in details.items():
            if rep["details"].get(key) != value:
                return "%s = %s, expected %s" % (
                    key, rep["details"].get(key), value)
        return None
    return check


def _window(counts, prec):
    return {k: c for k, c in enumerate(counts) if c and k < prec}


def certify_verbs(catalog, seed):
    """(argv, expected exit code, check(payload)) for every verb."""
    rng = inputs.make_rng(seed, "certify")
    design_seed = rng.randrange(1, 10 ** 6)
    verbs = []

    def add(argv, code, check):
        verbs.append((argv, code, check))

    for name in ("A2", "D4", "E8", "K12", "BW16", "D16plus", "D12plus"):
        c = _claims(catalog, name)
        add(["check-extremal", "--lattice", name], 0,
            want_cert("pass", minimum=c["min"], kissing=c["kissing"]))

    def modular_pass(p):
        bad = [d for d in p["divisors"]
               if (d["formal"], d["exact"]) != ("pass", "pass")]
        if p["verdict"] != "pass" or bad:
            return "verdict %s, divisors %s" % (p["verdict"], bad)
        return None

    for name in ("A2", "D4", "E8", "K12", "BW16", "D16plus", "D12plus"):
        # strongly modular by the catalogue claim, or unimodular (level 1)
        _require(_claims(catalog, name).get("strongly_modular")
                 or catalog.lattice(name).det == 1, name, "strongly modular")
        add(["check-modular", "--lattice", name, "--prec", "6"], 0,
            modular_pass)

    for name in ("E6", "E7", "K12", "BW16", "D16plus"):
        c = _claims(catalog, name)
        want = {"lattice": name, "min": c["min"], "kissing": c["kissing"]}
        add(["min", "--lattice", name], 0,
            lambda p, want=want: None if p == want else "got %s" % p)

    for name in ("D4", "E8", "K12", "BW16"):
        _require(_claims(catalog, name).get("strongly_perfect"), name,
                 "strongly perfect")
        add(["check-strongly-perfect", "--lattice", name], 0,
            want_cert("pass", proof=True))
    # the cross-polytope +-e_i is a 3-design but not a 4-design
    add(["check-strongly-perfect", "--lattice", "Z8"], 1,
        want_cert("fail", failed_degree=4))

    # min layers: E8 and BW16 are 7-designs, K12 and D4 5-designs only
    for name, t, verdict in (("K12", 5, "pass"), ("K12", 7, "fail"),
                             ("E8", 7, "pass"), ("BW16", 7, "pass"),
                             ("D4", 5, "pass")):
        add(["check-design", "--lattice", name, "--t", str(t),
             "--seed", str(design_seed)], 0 if verdict == "pass" else 1,
            want_cert(verdict))

    # Z^n: shadow (Z+1/2)^n, minimum n/4 reached by all 2^n vectors, m = 0;
    # D12plus: catalogue claim m = 1, reached by the 24 vectors +-e_i
    for name, mn, count, m in (("Z12", "3", 4096, "0"),
                               ("Z16", "4", 65536, "0"),
                               ("D12plus", "1", 24, str(
                                   _claims(catalog, "D12plus")["shadow_m"]))):
        want = {"lattice": name, "level": 1, "dim": int(name[1:3]),
                "min_norm": mn, "count": count, "m": m}
        add(["shadow", "--lattice", name], 0,
            lambda p, want=want: None if p == want else "got %s" % p)

    # level 1 from E4 and Delta; levels 2 and 3 from the catalogue kissing
    # numbers of their extremal lattices (the window is all zero before)
    forms = (
        (1, 12, 10, oracle.x_to_norm(oracle.level1_extremal(12, 5), 9)),
        (1, 8, 10, oracle.x_to_norm(oracle.level1_extremal(8, 5), 9)),
        (2, 8, 6, [1, 0, 0, 0, _claims(catalog, "BW16")["kissing"], 0]),
        (3, 6, 6, [1, 0, 0, 0, _claims(catalog, "K12")["kissing"], 0]),
    )
    for level, weight, prec, counts in forms:
        want = _window(counts, prec)

        def check(p, want=want, prec=prec):
            got, got_prec = _series_counts(p)
            if got_prec != prec:
                return "precision %s, expected %s" % (got_prec, prec)
            return oracle.compare(got, want, "extremal form")
        add(["extremal-form", "--level", str(level), "--weight", str(weight),
             "--prec", str(prec)], 0, check)

    thetas = (("E8", 8, oracle.e8_counts(9)),
              ("D4", 10, oracle.dn_counts(4, 11)), ("K12", 6, None))
    for name, bound, counts in thetas:
        def check(p, name=name, bound=bound, counts=counts):
            got, prec = _series_counts(p)
            if counts is None:      # K12: its extremal form, level 3
                from modlattice import extremal_form
                counts = [0] * prec
                for e, c in extremal_form(3, 6, prec).series.coeffs.items():
                    counts[e // 12] = int(c)
            return oracle.compare(got, _window(counts, prec), "theta " + name)
        add(["theta", "--lattice", name, "--bound", str(bound)], 0, check)

    def density_check(dim, minimum, det):
        ratio_sq = Fraction(minimum) ** dim / det
        delta = (math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) / 2 ** dim
                 * math.sqrt(ratio_sq))

        def check(p):
            if Fraction(p["ratio_vs_zn_squared"]) != ratio_sq:
                return "ratio %s, expected %s" % (p["ratio_vs_zn_squared"],
                                                  ratio_sq)
            if not math.isclose(p["delta"], delta, rel_tol=1e-12):
                return "delta %s, expected %s" % (p["delta"], delta)
            return None
        return check

    for name in ("K12",):
        lat, c = catalog.lattice(name), _claims(catalog, name)
        add(["density", "--lattice", name], 0,
            density_check(lat.dim, c["min"], lat.det))
    leech = _claims(catalog, "Leech")
    add(["density", "--lattice", "Leech", "--min", str(leech["min"])], 0,
        density_check(24, leech["min"], 1))
    add(["density", "--dim", "24", "--min", "4", "--det", "1"], 0,
        density_check(24, 4, 1))

    rng.shuffle(verbs)
    return verbs


def certify(ctx):
    jobs = []
    for argv, code, check in certify_verbs(ctx.catalog, ctx.seed):
        name = " ".join(argv)

        def run(argv=argv + ["--json", "--threads", "1"]):
            return ctx.run_verb(argv)

        def verify(out, code=code, check=check):
            rc, stdout = out
            if rc != code:
                return "exit code %d, expected %d" % (rc, code)
            return check(json.loads(stdout))
        jobs.append(Job(name, run, verify))
    return jobs


# -- sweep: cold count-only sweeps, threads=2, no input repeats --------------

SWEEP_THREADS = 2


def sweep(ctx):
    """Every family comes in several independent seeded copies: the cost
    of one sweep depends strongly on the basis it is given (a random
    rebasing of BW16 at q^8 costs 2.5 to 4.8 s), so many medium sweeps
    keep the seed-to-seed spread of the total small."""
    ml, cat, seed = ctx.ml, ctx.catalog, ctx.seed
    gram = lambda name: [list(r) for r in cat.lattice(name).gram]
    jobs = []

    def copies(tag, count):
        for i in range(count):
            yield i, inputs.make_rng(seed, "%s-%d" % (tag, i))

    def theta_job(name, g, prec, want):
        """want() gives the expected {norm: count} on the window."""
        def run():
            return ml.theta_series(ml.Lattice(g), prec, threads=SWEEP_THREADS)

        def check(qs):
            return oracle.compare(oracle.counts_of_theta(qs), want(),
                                  "theta " + name)
        jobs.append(Job(name, run, check))

    def extremal(level, weight, prec):
        def want():
            qs = ml.extremal_form(level, weight, prec).series
            return oracle.counts_of_theta(qs)
        return want

    # unimodular rebasings of the extremal lattices (dim >= 10, so the
    # library LLL-reduces first); Leech only to q^4: below its minimum the
    # sweep prunes every branch and leaves nothing but the origin
    deep = (("BW16", 6, 4, extremal(2, 8, 6)),
            ("D16plus", 6, 3, lambda: oracle.as_dict(oracle.x_to_norm(
                oracle.level1_extremal(8, 3), 5))),
            ("K12", 10, 6, extremal(3, 6, 10)),
            ("Leech", 4, 1, lambda: {0: 1}))
    for name, prec, count, want in deep:
        for i, rng in copies("rebase-" + name, count):
            g = inputs.rebase(rng, gram(name), 3 * len(gram(name)))
            theta_job("rebased %s q^%d #%d" % (name, prec, i), g, prec, want)

    # direct sums in seeded order: theta is the product of the component
    # thetas (closed forms for E8, D4 and A2)
    d4 = lambda top: oracle.dn_counts(4, top)
    sums = (((("E8", oracle.e8_counts), ("D4", d4), ("A2", oracle.a2_counts)),
             6),
            ((("D4", d4), ("D4", d4), ("A2", oracle.a2_counts),
              ("A2", oracle.a2_counts)), 10))
    for k, (parts, prec) in enumerate(sums):
        for i, rng in copies("sum-%d" % k, 2):
            parts = list(parts)
            rng.shuffle(parts)
            grams = [gram(p) for p, _ in parts]
            g = inputs.rebase(rng, inputs.direct_sum(*grams),
                              3 * sum(map(len, grams)))
            theta_job("sum %s q^%d" % ("+".join(p for p, _ in parts), prec),
                      g, prec, lambda parts=parts, prec=prec: oracle.as_dict(
                          oracle.product([f(prec - 1) for _, f in parts],
                                         prec - 1)))

    # the rational dual of K12 (Fraction path): K12 is 3-modular, so the
    # dual has |{norm r}| = |{K12 vectors of norm 3r}|
    dual_bound = Fraction(8, 3)

    def check_dual(tc):
        k12 = oracle.counts_of_theta(ml.extremal_form(3, 6, 10).series)
        got = {int(3 * Fraction(k)): v for k, v in tc.counts.items()}
        return oracle.compare(got, {k: c for k, c in k12.items() if k <= 8},
                              "dual K12 (norms times 3)")
    for i, rng in copies("dual-K12", 2):
        g = inputs.rebase(rng, gram("K12"), 36)
        jobs.append(Job("rational dual K12 to %s #%d" % (dual_bound, i),
                        lambda g=g: ml.enumerate_vectors(
                            ml.dual(ml.Lattice(g)), dual_bound,
                            threads=SWEEP_THREADS), check_dual))

    # shifted cosets: shadows of Z16 and D12plus, both rebased
    def shadow_job(name, g, bound, want):
        def run():
            return ml.shadow_theta(ml.Lattice(g), bound,
                                   threads=SWEEP_THREADS)

        def check(st):
            got = {int(4 * Fraction(k)): v for k, v in st.counts.items()}
            return oracle.compare(got, want, "shadow " + name)
        jobs.append(Job("shadow %s to %s" % (name, bound), run, check))

    # D12plus = D12 + glue (1/2)^12; its shadow is (D12 + e_1) u (D12 + c):
    # Z^12 vectors of odd norm, plus half of (Z+1/2)^12 (one sign parity)
    top = 3
    z12, h12 = oracle.zn_counts(12, top), oracle.half_counts(12, 4 * top)
    d12 = {4 * k: (z12[k] if k % 2 else 0) + h12[4 * k] // 2
           for k in range(top + 1)}
    cosets = (("Z16", inputs.identity(16), 4,
               oracle.as_dict(oracle.half_counts(16, 16))),
              ("D12plus", gram("D12plus"), top,
               {k: c for k, c in d12.items() if c}))
    for name, base, bound, want in cosets:
        for i, rng in copies("shadow-" + name, 1):
            shadow_job("rebased %s" % name,
                       inputs.rebase(rng, base, 3 * len(base)), bound, want)

    # bounded skew, dims < 10 (no LLL by default): 12 unit moves, entries of
    # the transform at most 4
    skewed = (("E8", 8, lambda: oracle.as_dict(oracle.e8_counts(6))),
              ("E7", 14, None), ("E6", 16, None),
              ("D4", 30, lambda: oracle.as_dict(oracle.dn_counts(4, 28))))
    for name, prec, want in skewed:
        g = inputs.rebase(inputs.make_rng(seed, "skew-" + name), gram(name),
                          12, entry_bound=4)
        if want is None:    # same theta as the catalogue basis
            want = (lambda name=name, prec=prec: oracle.counts_of_theta(
                ml.theta_series(cat.lattice(name), prec)))
        theta_job("skewed %s q^%d" % (name, prec), g, prec, want)
    return jobs


# -- layers: collect, finalise, designs, rank, eutaxy (threads=1) ------------

def layers(ctx):
    ml, cat, seed = ctx.ml, ctx.catalog, ctx.seed
    rng = inputs.make_rng(seed, "layers")
    state = {}
    jobs = []

    def collect_job(name, bound, want):
        """want() gives the expected {norm: layer size}."""
        def run():
            tc = ml.enumerate_vectors(cat.lattice(name), bound, collect=True)
            state[name] = tc.layers
            return tc

        def check(tc):
            got = {k: len(v) for k, v in tc.layers.items()}
            bad = oracle.compare(got, want(), "%s layers" % name)
            return bad or _norms_ok(cat.lattice(name), tc.layers)
        jobs.append(Job("collect %s to %d" % (name, bound), run, check))

    collect_job("E8", 10, lambda: oracle.as_dict(oracle.e8_counts(10)))
    collect_job("K12", 8, lambda: {
        k: c for k, c in oracle.counts_of_theta(
            ml.extremal_form(3, 6, 10).series).items() if k <= 8})

    def run_bw16():
        state["BW16"] = {4: ml.min_layer(cat.lattice("BW16"))}
        return state["BW16"][4]
    jobs.append(Job("min layer BW16", run_bw16, lambda layer: (
        oracle.compare({4: len(layer)},
                       {4: _claims(cat, "BW16")["kissing"]}, "BW16 min") or
        _norms_ok(cat.lattice("BW16"), {4: layer}))))

    # Every shell of E8 is a 7-design and no shell an 8-design (the degree-8
    # harmonic theta is c * Delta, and tau(n) != 0); the BW16 minimal layer
    # is a 7-design, not an 11-design; the K12 shells of norm 4 to 8 are
    # 5-designs and not 7-designs.  The small E8 and K12 tests are
    # grouped into one job per lattice, so that every job is big enough to
    # time steadily.
    groups = (("K12", ((4, 5, "pass"), (4, 7, "fail"), (6, 5, "pass"),
                       (8, 5, "pass"), (8, 7, "fail"))),
              ("E8", ((2, 7, "pass"), (2, 11, "fail"), (4, 7, "pass"),
                      (6, 7, "pass"), (6, 11, "fail"), (8, 7, "pass"),
                      (10, 7, "pass"), (10, 11, "fail"))),
              ("BW16", ((4, 7, "pass"),)), ("BW16", ((4, 11, "fail"),)))
    for name, cases in groups:
        cases = [(norm, t, verdict, ml.DesignTestConfig(
            seed=rng.randrange(1, 10 ** 6))) for norm, t, verdict in cases]

        def run(name=name, cases=cases):
            return [ml.check_design(state[name][norm], t, config)
                    for norm, t, _, config in cases]

        def check(reports, cases=cases):
            for rep, (norm, t, verdict, _) in zip(reports, cases):
                if rep.verdict != verdict:
                    return "norm %s t=%d: verdict %s, expected %s" % (
                        norm, t, rep.verdict, verdict)
            return None
        jobs.append(Job("designs %s %s" % (name, " ".join(
            "%s:t=%d" % (norm, t) for norm, t, _, _ in cases)), run, check))

    # E8 is a 7-design in every layer, so the degree-8 harmonic theta is a
    # cusp form of weight 12: c * Delta on the window, for any axis.  c is
    # the harmonic summed over the 240 roots (tau(1) = 1), computed here;
    # an axis with c = 0 would test nothing and is redrawn.
    tau = oracle.delta_x(5)
    e8 = [list(r) for r in cat.lattice("E8").gram]
    roots = oracle.root_system(e8)
    _require(len(roots) == _claims(cat, "E8")["kissing"], "E8",
             "a root lattice with %d roots" % len(roots))
    for i, prec in enumerate((12, 12, 10, 10)):
        c = 0
        while not c:
            axis = [rng.randint(-3, 3) for _ in range(8)]
            axis[rng.randrange(8)] = rng.choice((-4, 4))
            c = oracle.harmonic_sum(e8, roots, axis, 8)

        def run(axis=axis, prec=prec):
            return ml.harmonic_theta_truncation(cat.lattice("E8"), axis, 8,
                                                prec)

        def check(qs, prec=prec, c=c):
            got = oracle.counts_of_theta(qs)
            want = {2 * n: c * tau[n] for n in range(1, prec // 2)}
            return oracle.compare(got, {k: v for k, v in want.items() if v},
                                  "harmonic theta / Delta")
        jobs.append(Job("harmonic theta E8 q^%d axis %d" % (prec, i), run,
                        check))

    eutactic = want_cert("pass", kind="strongly-eutactic")
    jobs.append(Job("perfection rank K12",
                    lambda: ml.perfection_rank(cat.lattice("K12")),
                    lambda r: None if r == 78 else "rank %s, expected 78" % r))
    for name in ("K12", "BW16"):
        jobs.append(Job("eutaxy %s" % name,
                        lambda name=name: ml.eutaxy_check(cat.lattice(name)),
                        eutactic))
    _require(_claims(cat, "BW16").get("strongly_perfect"), "BW16",
             "strongly perfect")
    jobs.append(Job("strongly perfect BW16",
                    lambda: ml.is_strongly_perfect(cat.lattice("BW16")),
                    want_cert("pass", proof=True)))

    # the minimal vectors of D16plus are the 480 roots of D16: an irreducible
    # root system, so strongly eutactic, and (n > 4) a 3-design but not a
    # 5-design, so not strongly perfect
    def run_d16():
        lat = cat.lattice("D16plus")
        return (len(ml.min_layer(lat)), ml.eutaxy_check(lat),
                ml.is_strongly_perfect(lat))

    def check_d16(out):
        size, eutaxy, perfect = out
        return (oracle.compare({2: size}, {2: _claims(cat, "D16plus")[
            "kissing"]}, "D16plus min layer") or eutactic(eutaxy) or
            want_cert("fail", failed_degree=4)(perfect))
    jobs.append(Job("D16plus min layer, eutaxy, strong perfection", run_d16,
                    check_d16))

    # the root lattices E6, E7, E8 are perfect (rank n(n+1)/2) and their
    # root systems strongly eutactic
    def run_roots():
        return [(ml.perfection_rank(cat.lattice(n)),
                 ml.eutaxy_check(cat.lattice(n))) for n in ("E6", "E7", "E8")]

    def check_roots(out):
        for (rank, eutaxy), n in zip(out, (6, 7, 8)):
            if rank != n * (n + 1) // 2:
                return "E%d: rank %s, expected %d" % (n, rank,
                                                      n * (n + 1) // 2)
            bad = eutactic(eutaxy)
            if bad:
                return "E%d: %s" % (n, bad)
        return None
    jobs.append(Job("E6, E7, E8 perfection rank and eutaxy", run_roots,
                    check_roots))
    return jobs


def _norms_ok(lat, layers):
    """Every collected vector has the norm of its layer (integer check)."""
    import numpy as np
    g = np.array(lat.gram, dtype=np.int64)
    for norm, layer in layers.items():
        arr = np.array(layer.vectors, dtype=np.int64).reshape(len(layer), -1)
        norms = np.einsum("ij,jk,ik->i", arr, g, arr)
        if len(arr) and not (norms == norm).all():
            return "a vector in layer %s has another norm" % norm
    return None


WORKLOADS = {"certify": certify, "sweep": sweep, "layers": layers}
