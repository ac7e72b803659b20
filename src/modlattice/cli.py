"""Command line front end.

One verb per library operation set.  Exit codes: 0 pass/success, 1 fail,
2 usage error, 3 inconclusive.  All verbs take --json for schema-stable
output.  A certificate report reads no clock and is printed as it is
(`CertReport.to_json()` or `render()`), so identical invocations are
byte-identical; seconds per stage belong to a separate `stats` channel,
not to the report.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .enumeration import min_layer, minimum, theta_series
from .errors import ModLatticeError
from .lattice import (Catalog, c_n_lattice, density, density_from_parameters,
                      bundled_catalog, default_level, load_catalog, zn)
from .report import FAIL, INCONCLUSIVE, PASS, jsonable

# designs, modular and shadow are imported by the handlers that use them,
# so that the light verbs (min, theta, density, info) start without them

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

VERDICT_EXIT = {PASS: EXIT_PASS, FAIL: EXIT_FAIL,
                INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _emit_report(report, as_json):
    print(report.to_json() if as_json else report.render())
    return VERDICT_EXIT.get(report.verdict, EXIT_FAIL)


def _emit(payload, as_json, text):
    if as_json:
        print(json.dumps(jsonable(payload), indent=1, sort_keys=True))
    else:
        print(text)
    return EXIT_PASS


class UsageError(Exception):
    pass


def resolve_lattice(name: str, catalog: Catalog):
    """Catalogue lookup plus the dynamic families Z<n> and C<N>."""
    try:
        return catalog.lattice(name)
    except ModLatticeError:
        pass
    m = re.fullmatch(r"Z(\d+)", name)
    if m and int(m.group(1)) >= 1:
        return zn(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", name)
    if m and int(m.group(1)) >= 1:
        return c_n_lattice(int(m.group(1)))
    raise UsageError(
        "unknown lattice %r; catalogue entries: %s (or Z<n>, C<N>)"
        % (name, ", ".join(catalog.names())))


def _parse_alpha(text):
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise UsageError("--alpha needs integers, got %r" % text)


def _threads(text):
    """--threads and MODLATTICE_THREADS: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer (also when read from "
            "MODLATTICE_THREADS), not %r" % text)
    return value


def build_parser():
    par = argparse.ArgumentParser(
        prog="modlattice",
        description="Theta series, extremal modular forms and lattice "
                    "certificates by exact enumeration.")
    par.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine readable output")
    common.add_argument("--catalog", metavar="PATH",
                        help="alternative catalogue file")
    # a string default goes through _threads too, when --threads is absent
    common.add_argument("--threads", type=_threads,
                        default=os.environ.get("MODLATTICE_THREADS", "1"),
                        help="worker processes for enumeration")
    sub = par.add_subparsers(dest="verb", metavar="VERB")

    p = sub.add_parser("catalog", parents=[common],
                       help="list the bundled lattice catalogue")

    p = sub.add_parser("info", parents=[common],
                       help="dimension, determinant, parity, level")
    p.add_argument("--lattice", required=True)

    p = sub.add_parser("theta", parents=[common],
                       help="theta series by exact enumeration")
    p.add_argument("--lattice", required=True)
    p.add_argument("--bound", type=int, default=6,
                   help="largest norm to enumerate")

    p = sub.add_parser("min", parents=[common],
                       help="minimum and kissing number")
    p.add_argument("--lattice", required=True)

    p = sub.add_parser("extremal-form", parents=[common],
                       help="extremal modular form of a level and weight")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--prec", type=int, default=8)

    p = sub.add_parser("check-modular", parents=[common],
                       help="strong modularity certificate")
    p.add_argument("--lattice", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--prec", type=int, help="widens the Sturm window")
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="isometry search node budget")
    p.add_argument("--formal-only", action="store_true",
                   help="skip the exact isometry stage")

    p = sub.add_parser("check-extremal", parents=[common],
                       help="extremality certificate (even or odd genus)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--level", type=int, default=None)

    p = sub.add_parser("check-design", parents=[common],
                       help="design strength of the minimal layer, proved "
                            "degree by degree (Venkov pair sums)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--t", type=int, required=True, help="target strength")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for compatibility; the exact pair-sum "
                        "test draws nothing at random")

    p = sub.add_parser("check-strongly-perfect", parents=[common],
                       help="minimal vectors form a 4-design (proof level)")
    p.add_argument("--lattice", required=True)

    p = sub.add_parser("harmonic-theta", parents=[common],
                       help="theta series weighted by a zonal harmonic")
    p.add_argument("--lattice", required=True)
    p.add_argument("--t", type=int, required=True, help="harmonic degree")
    p.add_argument("--alpha", required=True,
                   help="axis coordinates, comma separated")
    p.add_argument("--prec", type=int, default=8)

    p = sub.add_parser("shadow", parents=[common],
                       help="shadow minimum (or shadow theta with --bound)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--level", type=int, default=None,
                   help="odd level N (default: the lattice's level)")
    p.add_argument("--bound", type=Fraction, default=None)

    p = sub.add_parser("density", parents=[common],
                       help="packing density, exactly where possible")
    p.add_argument("--lattice", default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--min", dest="min_norm", type=Fraction, default=None)
    p.add_argument("--det", type=Fraction, default=None)
    return par


def _catalog(args):
    return load_catalog(args.catalog) if args.catalog else bundled_catalog()


def _lattice(args):
    """The lattice named by --lattice, in the catalogue or a family."""
    return resolve_lattice(args.lattice, _catalog(args))


def cmd_catalog(args):
    cat = _catalog(args)
    rows = []
    for entry in cat:
        lat = entry.lattice
        rows.append({"name": entry.name, "dim": lat.dim,
                     "det": lat.det, "level": entry.level,
                     "even": lat.is_even, "note": entry.note})
    text = "\n".join("%-10s dim %-3d det %-8s level %-2d %s"
                     % (r["name"], r["dim"], r["det"], r["level"], r["note"])
                     for r in rows)
    return _emit(rows, args.json, text)


def cmd_info(args):
    lat = _lattice(args)
    kind = "even" if lat.is_even else "odd"
    n_level = default_level(lat)
    info = {"lattice": args.lattice, "dim": lat.dim, "det": lat.det,
            "parity": kind, "level": n_level}
    text = ("%s: dim %d, det %s, %s, level %d"
            % (args.lattice, lat.dim, lat.det, kind, n_level))
    return _emit(info, args.json, text)


def cmd_theta(args):
    lat = _lattice(args)
    if args.bound < 0:
        raise UsageError("--bound must be nonnegative")
    prec = args.bound + (2 if lat.is_even else 1)
    qs = theta_series(lat, prec, threads=args.threads)
    payload = {"lattice": args.lattice, "bound": args.bound,
               "series": qs.to_json()}
    return _emit(payload, args.json, str(qs))


def cmd_min(args):
    lat = _lattice(args)
    rep = minimum(lat, threads=args.threads)
    payload = {"lattice": args.lattice, "min": rep.minimum,
               "kissing": rep.kissing}
    text = "min %s, kissing %d" % (rep.minimum, rep.kissing)
    return _emit(payload, args.json, text)


def cmd_extremal_form(args):
    from .modular import extremal_form
    form = extremal_form(args.level, args.weight, max(args.prec, 1))
    payload = {"level": form.level, "weight": form.weight,
               "jump": form.jump, "series": form.series.to_json()}
    return _emit(payload, args.json, str(form.series))


def cmd_check_modular(args):
    from .modular import check_modular
    lat = _lattice(args)
    verdict = check_modular(lat, precision=args.prec, n_level=args.level,
                            isometry_budget=args.budget,
                            exact=not args.formal_only)
    return _emit_report(verdict, args.json)


def cmd_check_extremal(args):
    from .modular import check_extremal
    rep = check_extremal(_lattice(args), n_level=args.level,
                         threads=args.threads)
    return _emit_report(rep, args.json)


def cmd_check_design(args):
    from .designs import check_design
    lat = _lattice(args)
    if args.t < 1:
        raise UsageError("--t must be positive")
    layer = min_layer(lat, threads=args.threads)
    rep = check_design(layer, args.t)
    return _emit_report(rep, args.json)


def cmd_check_strongly_perfect(args):
    from .designs import is_strongly_perfect
    lat = _lattice(args)
    rep = is_strongly_perfect(lat, threads=args.threads)
    return _emit_report(rep, args.json)


def cmd_harmonic_theta(args):
    from .designs import harmonic_theta_truncation
    lat = _lattice(args)
    alpha = _parse_alpha(args.alpha)
    qs = harmonic_theta_truncation(lat, alpha, args.t, max(args.prec, 1),
                                   threads=args.threads)
    payload = {"lattice": args.lattice, "degree": args.t, "alpha": alpha,
               "series": qs.to_json()}
    return _emit(payload, args.json, str(qs))


def cmd_shadow(args):
    from .shadow import shadow_min, shadow_theta
    lat = _lattice(args)
    if args.bound is not None:
        st = shadow_theta(lat, args.bound, threads=args.threads)
        payload = {"lattice": args.lattice, "theta": st.to_dict()}
        return _emit(payload, args.json, str(st))
    rep = shadow_min(lat, n_level=args.level, threads=args.threads)
    payload = {"lattice": args.lattice, **rep.to_dict()}
    text = ("shadow min %s, count %d, m = %s"
            % (rep.min_norm, rep.count, rep.m))
    return _emit(payload, args.json, text)


def cmd_density(args):
    if args.lattice is not None:
        lat = _lattice(args)
        m = args.min_norm
        if m is None:
            m = minimum(lat, threads=args.threads).minimum
        rep = density(lat, m)
        label = args.lattice
    else:
        if args.dim is None or args.min_norm is None or args.det is None:
            raise UsageError("density needs --lattice or all of "
                             "--dim/--min/--det")
        rep = density_from_parameters(args.dim, args.min_norm, args.det)
        label = "(dim %d, min %s, det %s)" % (args.dim, args.min_norm,
                                              args.det)
    ratio = rep.ratio_vs_zn
    payload = {"label": label, "dim": rep.dim, "min": rep.minimum,
               "det": rep.det, "ratio_vs_zn_squared": rep.ratio_vs_zn_squared,
               "ratio_vs_zn": ratio, "delta": rep.delta}
    rtext = str(ratio) if ratio is not None else (
        "sqrt(%s)" % rep.ratio_vs_zn_squared)
    text = ("%s: delta = %.6g, ratio vs Z^n = %s"
            % (label, rep.delta, rtext))
    return _emit(payload, args.json, text)


HANDLERS = {
    "catalog": cmd_catalog,
    "info": cmd_info,
    "theta": cmd_theta,
    "min": cmd_min,
    "extremal-form": cmd_extremal_form,
    "check-modular": cmd_check_modular,
    "check-extremal": cmd_check_extremal,
    "check-design": cmd_check_design,
    "check-strongly-perfect": cmd_check_strongly_perfect,
    "harmonic-theta": cmd_harmonic_theta,
    "shadow": cmd_shadow,
    "density": cmd_density,
}


def parse_and_dispatch(argv) -> int:
    par = build_parser()
    args = par.parse_args(argv)
    if args.verb is None:
        par.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return HANDLERS[args.verb](args)
    except (UsageError, ValueError) as exc:   # ValueError: API misuse
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ModLatticeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
