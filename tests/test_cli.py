"""Command line behaviour: exit codes, schemas, reproducible output."""
import json
import os
import re
import subprocess
import sys

import pytest

import modlattice
from modlattice import enumeration, lattice
from modlattice.cli import _emit_report, build_parser, parse_and_dispatch
from modlattice.modular import base_lattice
from modlattice.report import CertReport


def run(capsys, argv):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_e8_matches_enumeration_rendering(capsys):
    code, out, _ = run(capsys, ["theta", "--lattice", "E8", "--bound", "6"])
    assert code == 0
    assert out == "1 + 240*q^2 + 2160*q^4 + 6720*q^6 + O(q^8)\n"
    # an odd bound on an even lattice sweeps to the even norm below it
    code, out, _ = run(capsys, ["theta", "--lattice", "E8", "--bound", "5"])
    assert code == 0
    assert out == "1 + 240*q^2 + 2160*q^4 + O(q^6)\n"


def test_theta_odd_lattice_window(capsys):
    code, out, _ = run(capsys, ["theta", "--lattice", "Z2", "--bound", "5"])
    assert code == 0
    assert out == "1 + 4*q + 4*q^2 + 4*q^4 + 8*q^5 + O(q^6)\n"


def test_theta_json_schema(capsys):
    code, out, _ = run(capsys, ["theta", "--lattice", "E8", "--bound", "4",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["series"]["unit"] == "q"
    assert ["2", "240"] in [[str(e), c] for e, c in data["series"]["terms"]]


def test_min_and_info(capsys):
    code, out, _ = run(capsys, ["min", "--lattice", "E8"])
    assert (code, out) == (0, "min 2, kissing 240\n")
    code, out, _ = run(capsys, ["info", "--lattice", "K12"])
    assert code == 0 and "det 729" in out and "level 3" in out


def test_extremal_form_coefficient(capsys):
    code, out, _ = run(capsys, ["extremal-form", "--level", "1",
                                "--weight", "12", "--prec", "6"])
    assert code == 0
    assert out == "1 + 196560*q^4 + O(q^6)\n"


def test_check_extremal_exit_codes(capsys):
    assert run(capsys, ["check-extremal", "--lattice", "E8"])[0] == 0
    assert run(capsys, ["check-extremal", "--lattice", "N23base"])[0] == 1
    # odd lattices route to the odd-genus check
    code, out, _ = run(capsys, ["check-extremal", "--lattice", "D12plus"])
    assert code == 0 and "check-extremal-odd" in out


def test_check_design_pass_and_fail(capsys):
    code, out, _ = run(capsys, ["check-design", "--lattice", "E8", "--t", "7"])
    assert code == 0 and out.count("strength: 7") == 1
    code, out, _ = run(capsys, ["check-design", "--lattice", "E8", "--t", "8"])
    assert code == 1
    assert "witness" in out


def test_emit_report_leaves_the_report_intact(capsys):
    """A report is printed exactly as to_json() or render() gives it."""
    rep = CertReport(check="demo", verdict="fail",
                     details={"proof": True, "stages": [{"degree": 2}]},
                     witnesses=[{"direction": [1, 0]}])
    assert _emit_report(rep, True) == 1
    assert capsys.readouterr().out == rep.to_json() + "\n"
    assert _emit_report(rep, False) == 1
    assert capsys.readouterr().out == rep.render() + "\n"
    assert _emit_report(CertReport("demo", "inconclusive"), False) == 3


def test_check_modular_prints_through_emit_report(capsys):
    """check-modular's verdict is printed and mapped to its exit code as
    every certificate report is."""
    from modlattice.modular import check_modular
    k12 = lattice.bundled_catalog().lattice("K12")
    verdict = check_modular(k12, precision=6)
    for flag, text in (["--json"], verdict.to_json()), ([], verdict.render()):
        code, out, _ = run(capsys, ["check-modular", "--lattice", "K12",
                                    "--prec", "6", *flag])
        assert (code, out) == (0, text + "\n")
    assert set(json.loads(verdict.to_json())) == {
        "divisors", "level", "precision", "verdict"}


def test_check_modular_budget_inconclusive(capsys):
    code, out, _ = run(capsys, ["check-modular", "--lattice", "D4",
                                "--budget", "1"])
    assert code == 3
    assert "inconclusive" in out and "budget 1 exhausted" in out


def test_shadow_verbs(capsys):
    code, out, _ = run(capsys, ["shadow", "--lattice", "D12plus"])
    assert (code, out) == (0, "shadow min 1, count 24, m = 1\n")
    code, out, _ = run(capsys, ["shadow", "--lattice", "Z3", "--bound", "3"])
    assert code == 0
    assert out == "8*q^(3/4) + 24*q^(11/4) + O(q^(3))\n"


def test_shadow_level_defaults_to_the_lattice_level(capsys):
    code, out, _ = run(capsys, ["shadow", "--lattice", "C3"])
    assert (code, out) == (0, "shadow min 1/3, count 4, m = 0\n")
    code, _, err = run(capsys, ["shadow", "--lattice", "Z4", "--level", "3"])
    assert code == 1 and "determinant 1" in err


def test_shadow_of_even_lattice_fails_cleanly(capsys):
    code, _, err = run(capsys, ["shadow", "--lattice", "D4"])
    assert code == 1 and "error:" in err


def test_density_modes(capsys):
    # minimum supplied; the Leech enumeration has its own test
    code, out, _ = run(capsys, ["density", "--lattice", "Leech",
                                "--min", "4"])
    assert code == 0 and "16777216" in out
    code, out, _ = run(capsys, ["density", "--lattice", "A2"])
    assert code == 0 and "ratio vs Z^n = sqrt(4/3)" in out
    code, out, _ = run(capsys, ["density", "--dim", "80", "--min", "8",
                                "--det", "1"])
    assert code == 0 and str(8 ** 40) in out
    code, _, err = run(capsys, ["density", "--dim", "80"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["shadow", "--lattice", "Z4", "--bound", "-1"],
     "bound must be nonnegative"),
    (["extremal-form", "--level", "1", "--weight", "0"],
     "weight must be positive"),
    (["density", "--dim", "8", "--min", "0", "--det", "1"],
     "minimum and determinant must be positive"),
])
def test_library_value_errors_are_usage_errors(capsys, argv, message):
    """A ValueError from the library (misuse of the API) exits 2 with one
    error line, not a traceback."""
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_unknown_lattice_lists_catalogue(capsys):
    code, _, err = run(capsys, ["min", "--lattice", "E9"])
    assert code == 2
    assert "Leech" in err and "Z<n>" in err


def test_dynamic_families(capsys):
    code, out, _ = run(capsys, ["info", "--lattice", "Z5"])
    assert code == 0 and "dim 5" in out
    code, out, _ = run(capsys, ["info", "--lattice", "C6"])
    assert code == 0 and "det 36" in out and "level 6" in out


def test_alpha_validation(capsys):
    code, _, err = run(capsys, ["harmonic-theta", "--lattice", "E8",
                                "--t", "2", "--alpha", "1,2"])
    assert code == 2 and "coordinates" in err
    code, _, err = run(capsys, ["harmonic-theta", "--lattice", "Z2",
                                "--t", "2", "--alpha", "a,b"])
    assert code == 2


def test_harmonic_theta_rendering(capsys):
    code, out, _ = run(capsys, ["harmonic-theta", "--lattice", "Z2",
                                "--t", "4", "--alpha", "1,0", "--prec", "6"])
    assert code == 0
    assert out == "4*q - 16*q^2 + 64*q^4 - 56*q^5 + O(q^6)\n"


def test_no_verb_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    assert len(out.splitlines()) == 17
    code, out, _ = run(capsys, ["catalog", "--json"])
    names = {row["name"] for row in json.loads(out)}
    assert {"E8", "Leech", "N23base"} <= names


def test_identical_runs_are_byte_identical(capsys):
    a = run(capsys, ["check-design", "--lattice", "D4", "--t", "5", "--json"])
    b = run(capsys, ["check-design", "--lattice", "D4", "--t", "5", "--json"])
    assert a == b
    data = json.loads(a[1])
    assert "elapsed" not in data and "elapsed" not in data.get("details", {})
    c = run(capsys, ["check-extremal", "--lattice", "D4"])
    d = run(capsys, ["check-extremal", "--lattice", "D4"])
    assert c == d


@pytest.mark.parametrize("argv", [
    ["check-design", "--lattice", "Z8", "--t", "3"],
    ["check-strongly-perfect", "--lattice", "Z8"],
    ["harmonic-theta", "--lattice", "Z8", "--t", "4", "--alpha",
     "1,2,0,0,0,0,0,1", "--prec", "5"],
])
def test_collecting_verbs_start_no_pool(capsys, parallel, argv):
    """The verbs that collect a layer give the same bytes at --threads 1
    and 2 (on a fresh Z8 each), and start no pool even where every
    count-only sweep at threads 2 would go to it."""
    two = run(capsys, argv + ["--json", "--threads", "2"])
    assert run(capsys, argv + ["--json", "--threads", "1"]) == two
    assert parallel == [] and enumeration._POOL.executor is None


def test_bundled_catalogue_is_loaded_once(capsys, monkeypatch):
    """Verbs and the modular-form code share one parsed catalogue."""
    calls = []

    def counting_text():
        calls.append(None)
        return real_text()

    real_text = lattice._bundled_text
    monkeypatch.setattr(lattice, "_bundled_text", counting_text)
    lattice.bundled_catalog.cache_clear()
    assert run(capsys, ["info", "--lattice", "K12"])[0] == 0
    assert base_lattice(3) == lattice.bundled_catalog().lattice("A2")
    assert run(capsys, ["min", "--lattice", "E8"])[0] == 0
    assert calls == [None]


def test_threads_default_from_environment(monkeypatch):
    monkeypatch.setenv("MODLATTICE_THREADS", "3")
    args = build_parser().parse_args(["theta", "--lattice", "E8"])
    assert args.threads == 3


@pytest.mark.parametrize("argv, env", [
    (["--threads", "0"], None),
    (["--threads", "-2"], None),
    ([], "two"),
    ([], "0"),
])
def test_threads_must_be_a_positive_integer(monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("MODLATTICE_THREADS", env)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["theta", "--lattice", "E8", *argv])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_threads_flag_overrides_a_bad_environment(monkeypatch):
    monkeypatch.setenv("MODLATTICE_THREADS", "two")
    args = build_parser().parse_args(["theta", "--lattice", "E8",
                                      "--threads", "2"])
    assert args.threads == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0


def _python(*args, env=None, timeout=60):
    """A fresh interpreter running args with this checkout's package."""
    src = os.path.dirname(os.path.dirname(modlattice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args],
                          env=dict(env or os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported_modules(*args):
    """Names of every module a fresh interpreter imports to run args."""
    proc = _python("-X", "importtime", *args)
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


HEAVY = {"numpy", "concurrent.futures.process", "modlattice.designs",
         "modlattice.modular", "modlattice.shadow", "modlattice.isometry"}


@pytest.mark.parametrize("args", [
    ("-c", "import modlattice"),
    ("-m", "modlattice", "min", "--lattice", "E7", "--json"),
    # a sweep this small stays below the cutoff and starts no pool
    ("-m", "modlattice", "min", "--lattice", "E7", "--threads", "2",
     "--json"),
])
def test_start_up_skips_numpy_and_process_pool(args):
    loaded = _imported_modules(*args)
    assert "modlattice" in loaded
    assert not loaded & HEAVY
    if args[0] == "-c":         # the bare import loads the package alone
        assert {m for m in loaded if m.startswith("modlattice")} == {
            "modlattice"}


def test_parallel_sweep_exits_cleanly():
    """The pool outlives the sweep and is shut down by an exit handler,
    before the interpreter tears its modules down, so nothing is printed
    at exit.  (Exit handlers run last-registered first, so the one
    registered here runs after the pool's.)"""
    code = ("import atexit\n"
            "from modlattice import enumeration, load_catalog\n"
            "atexit.register(lambda: print(enumeration._POOL.executor))\n"
            "enumeration.PARALLEL_MIN_NODES = 0\n"
            "enumeration._cores = lambda: 2\n"
            "tc = enumeration.enumerate_vectors(\n"
            "    load_catalog().lattice('E8'), 4, threads=2)\n"
            "assert enumeration._POOL.executor is not None\n"
            "print(tc.counts[4])\n")
    proc = _python("-c", code)
    assert (proc.stdout, proc.stderr) == ("2160\nNone\n", "")


def test_public_names_resolve():
    assert len(modlattice.__all__) == len(set(modlattice.__all__)) == 80
    listed = dir(modlattice)
    for name in modlattice.__all__:
        assert getattr(modlattice, name) is not None, name
        assert name in listed, name
    assert modlattice.check_design is modlattice.designs.check_design
    with pytest.raises(AttributeError):
        modlattice.no_such_name


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_numpy_loads_with_one_blas_thread(preset, want):
    """The BLAS pool is pinned before numpy loads; a user setting stays."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, sys\n"
            "from modlattice import check_design, load_catalog, min_layer\n"
            "assert 'numpy' not in sys.modules\n"
            "layer = min_layer(load_catalog().lattice('E8'))\n"
            "assert check_design(layer, 7).verdict == 'pass'\n"
            "assert 'numpy' in sys.modules\n"
            "print(*(os.environ[k] for k in %r))\n" % (BLAS_VARS,))
    out = _python("-c", code, env=env).stdout.split()
    assert out == [want, "1", "1"]


def test_numpy_is_imported_only_by_linalg():
    pkg = os.path.dirname(modlattice.__file__)
    importers = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines = [line for line in fh
                         if re.match(r"\s*(import|from)\s+numpy\b", line)]
            if lines:
                importers[name] = len(lines)
    assert importers == {"linalg.py": 1}
