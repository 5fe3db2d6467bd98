"""Experiment CLI: artifacts, determinism, config validation, exit codes.

Tests drive greyvar.cli.main directly so exit codes and the JSON error
records on stderr are observable; one subprocess test covers the module
entry point end to end.
That test puts the absolute directory holding the imported greyvar package
at the front of the child's PYTHONPATH, since a relative one does not
resolve from the child's temporary working directory.
"""

import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import greyvar
from greyvar import lattice, variance
from greyvar.cli import main
from greyvar.estimator import Indicator
from greyvar.lattice import unit_lattice
from greyvar.phantom import Ball
from greyvar.psf import gaussian
from greyvar.variance import variance_exact_ball


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("GREYVAR_SEED", raising=False)


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_manifest(out_dir):
    with open(out_dir / "manifest.json", encoding="ascii") as fh:
        return json.load(fh)


def test_profile_defaults(tmp_path):
    assert main(["profile", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "profile.csv")
    assert header == ["t", "theta_h", "dtheta_h"]
    assert len(rows) == 161
    mid = rows[80]
    assert float(mid[0]) == 0.0
    # Gaussian half-space profile passes through 1/2 at the boundary
    assert float(mid[1]) == pytest.approx(0.5, abs=1e-12)
    assert float(mid[2]) < 0.0
    # theta decreases from ~1 to ~0 across the ramp
    assert float(rows[0][1]) > 0.999
    assert float(rows[-1][1]) < 0.001


def test_csv_is_crlf_and_roundtrips(tmp_path):
    main(["profile", "--out", str(tmp_path)])
    blob = (tmp_path / "profile.csv").read_bytes()
    body = blob.replace(b"\r\n", b"")
    assert blob.count(b"\r\n") == 162  # header + 161 rows
    assert b"\n" not in body and b"\r" not in body
    # %.17g round-trips doubles exactly
    _, rows = _read_csv(tmp_path / "profile.csv")
    ts = [float(r[0]) for r in rows]
    assert ts[1] == -4.0 + 8.0 / 160.0


def test_manifest_echoes_resolved_defaults(tmp_path):
    assert main(["profile", "--set", "phantom.dim=3",
                 "--out", str(tmp_path)]) == 0
    man = _read_manifest(tmp_path)
    assert man["subcommand"] == "profile"
    assert man["seed"] == 0
    assert man["seed_source"] == "default"
    assert man["workers"] == 1
    assert man["outputs"] == ["profile.csv"]
    assert man["rows"] == 161
    # defaults the command consulted are echoed alongside overrides
    assert man["config"]["phantom.dim"] == "3"
    assert man["config"]["psf.kind"] == "gaussian"
    assert man["config"]["profile.range"] == "lin:-4:4:161"
    assert man["wall_time_s"] >= 0.0
    assert list(man["config"]) == sorted(man["config"])


def test_config_file_and_set_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "phantom.dim = 2\n"
                   "shells.xi_max = 3  # inline comment\n")
    out = tmp_path / "out"
    assert main(["shells", str(cfg), "--set", "shells.xi_max=2",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "shells.csv")
    assert header == ["xi_norm", "count"]
    # Z^2 dual shells up to norm 2: 1, sqrt2, 2
    assert [float(r[0]) for r in rows] == pytest.approx(
        [1.0, math.sqrt(2.0), 2.0])
    assert [int(r[1]) for r in rows] == [4, 4, 4]
    man = _read_manifest(out)
    assert man["config"]["shells.xi_max"] == "2"


def test_estimate_deterministic_and_seeded(tmp_path):
    args = ["estimate", "--set", "scales.a=0.1",
            "--set", "estimate.replicates=6"]
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--set", "seed=9", "--out", str(out3)]) == 0
    b1 = (out1 / "estimate.csv").read_bytes()
    assert b1 == (out2 / "estimate.csv").read_bytes()
    assert b1 != (out3 / "estimate.csv").read_bytes()
    man = _read_manifest(out3)
    assert man["seed"] == 9 and man["seed_source"] == "config"

    header, rows = _read_csv(out1 / "estimate.csv")
    assert header == ["rep", "value", "raw_sum", "n_points", "n_support",
                      "a", "b"]
    assert [int(r[0]) for r in rows] == list(range(6))
    values = [float(r[1]) for r in rows]
    # per-placement estimates scatter around the perimeter
    assert all(4.0 < v < 9.0 for v in values)
    assert len(set(values)) > 1


def test_estimate_reads_one_scale_pair(tmp_path, capsys):
    assert main(["estimate", "--set", "scales.a=0.1", "--set", "scales.b=a^2",
                 "--set", "estimate.replicates=2",
                 "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "estimate.csv")
    assert [(float(r[5]), float(r[6])) for r in rows] == [(0.1, 0.1 * 0.1)] * 2
    # a grid of several values is refused by name
    for grid, key in ((["scales.a=0.1,0.05"], "scales.a"),
                      (["scales.a=0.1", "scales.b=0.1,0.05"], "scales.b")):
        argv = ["estimate", "--out", str(tmp_path / "bad")]
        for item in grid:
            argv += ["--set", item]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert record["key"] == key


def test_env_seed_takes_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("GREYVAR_SEED", "123")
    out = tmp_path / "env"
    assert main(["estimate", "--set", "scales.a=0.1", "--set", "seed=9",
                 "--out", str(out)]) == 0
    man = _read_manifest(out)
    assert man["seed"] == 123
    assert man["seed_source"] == "env"


def test_mc_variance_workers_identical(tmp_path):
    base = ["mc-variance", "--set", "scales.a=0.1",
            "--set", "mc.replicates=400"]
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(out4)]) == 0
    assert (out1 / "mc-variance.csv").read_bytes() == \
        (out4 / "mc-variance.csv").read_bytes()
    assert _read_manifest(out4)["workers"] == 4


def test_theory_variance_matches_library(tmp_path):
    assert main(["theory-variance", "--set", "scales.a=0.1,0.05",
                 "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "theory-variance.csv")
    assert header == ["a", "b", "var_emp", "se", "var_exact", "var_asym",
                      "osc_bound", "xi_max", "tail_bound"]
    assert len(rows) == 2
    # the indicator's finite primal sums (the capped dual sums gave
    # 7.813185e-2 and 3.383114e-2, short by their 1/xi tails)
    want = {0.1: 7.816065e-2, 0.05: 3.384560e-2}
    for row in rows:
        a = float(row[0])
        assert float(row[1]) == a  # matched resolution default
        assert row[2] == "" and row[3] == ""  # no Monte Carlo columns
        lib = variance_exact_ball(Ball(2, 1.0), gaussian(2), Indicator(),
                                  a, unit_lattice(2), a)
        assert float(row[4]) == lib.value  # %.17g round-trip, same call
        assert lib.value == pytest.approx(want[a], rel=1e-4)
        assert float(row[5]) > 0.0
        assert float(row[7]) > 0.0
        assert float(row[8]) == lib.shells.tail_bound / (a * lib.alpha) ** 2


def test_theory_variance_cache_independent(tmp_path, monkeypatch):
    """Cold caches, warm caches, and cold again after clearing the
    lattice-sum cache and the shell tables: same CSV bytes."""
    monkeypatch.setattr(lattice, "_SHELL_TABLES", {})
    variance._cached_lattice_sum.cache_clear()
    args = ["theory-variance", "--set", "scales.a=0.1,0.05"]
    outs = [tmp_path / n for n in ("cold", "warm", "cleared")]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    monkeypatch.setattr(lattice, "_SHELL_TABLES", {})
    variance._cached_lattice_sum.cache_clear()
    assert main(args + ["--out", str(outs[2])]) == 0
    blobs = [(out / "theory-variance.csv").read_bytes() for out in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_manifest_records_output_sha256(tmp_path):
    assert main(["shells", "--set", "shells.xi_max=5",
                 "--out", str(tmp_path)]) == 0
    blob = (tmp_path / "shells.csv").read_bytes()
    man = _read_manifest(tmp_path)
    assert man["output_sha256"] == {
        "shells.csv": hashlib.sha256(blob).hexdigest()}


def test_manifest_records_library_versions(tmp_path):
    assert main(["shells", "--set", "shells.xi_max=5",
                 "--out", str(tmp_path)]) == 0
    assert _read_manifest(tmp_path)["library_versions"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__}


def test_sieve_over_budget_is_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lattice, "_SHELL_TABLES", {})
    rc = main(["shells", "--set", "phantom.dim=3",
               "--set", "shells.xi_max=16384", "--out", str(tmp_path)])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "TruncationError"
    assert "budget" in record["message"]


@pytest.mark.parametrize("command", ["estimate", "mc-variance"])
def test_integer_cover_over_budget_is_exit_3(tmp_path, capsys, monkeypatch,
                                              command):
    # a small budget stands in for a fine lattice, so nothing large is
    # ever allocated
    monkeypatch.setattr(lattice, "SIEVE_BUDGET_BYTES", 1 << 12)
    rc = main([command, "--set", "scales.a=0.1", "--out", str(tmp_path)])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "TruncationError"
    assert "integer box" in record["message"]
    assert "budget" in record["message"]


def test_fourier_gap_column(tmp_path):
    assert main(["fourier", "--set", "fourier.q=geom:8:32:3",
                 "--set", "scales.a=0.05", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "fourier.csv")
    assert header[:2] == ["q", "layer_exact"]
    assert len(rows) == 3
    qs = [float(r[0]) for r in rows]
    assert qs == pytest.approx([8.0, 16.0, 32.0])
    rel_gap = [float(r[-1]) for r in rows]
    assert all(g >= 0.0 and math.isfinite(g) for g in rel_gap)


@pytest.mark.parametrize("key", ["scaling.mc", "scaling.theory"])
def test_scaling_study_switch_keys_are_unknown(tmp_path, capsys, key):
    """scaling-study always runs both halves; theory-variance and
    mc-variance run one each."""
    rc = main(["scaling-study", "--set", "scales.a=0.1",
               "--set", f"{key}=false", "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == key
    assert not (tmp_path / "scaling-study.csv").exists()


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    rc = main(["profile", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "config"


def test_bad_lattice_matrix_is_exit_2(tmp_path, capsys):
    rc = main(["shells", "--set", "lattice.matrix=1,0,2,0",
               "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "lattice.matrix"


@pytest.mark.parametrize("override,key", [
    ("scales.a=geom:0:1:5", "scales.a"),
    ("scales.a=lin:0.1:0.2", "scales.a"),
    ("scales.a=-0.1", "scales.a"),
    ("weight.beta=0.9", "weight.beta"),
    ("psf.kind=pinhole", "psf.kind"),
    ("phantom.dim=4", "phantom.dim"),
])
def test_config_validation_exit_2(tmp_path, capsys, override, key):
    rc = main(["theory-variance", "--set", override,
               "--set", "scales.a=0.1" if not override.startswith(
                   "scales.a") else override,
               "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == key


@pytest.mark.parametrize("argv,key", [
    (["shells", "--set", "lattice.matrix=nan,0,0,1"], "lattice.matrix"),
    (["shells", "--set", "lattice.matrix=inf,0,0,1"], "lattice.matrix"),
    (["theory-variance", "--set", "psf.kind=bump", "--set",
      "psf.support=inf", "--set", "scales.a=0.1"], "psf.support"),
    (["theory-variance", "--set", "phantom.radius=inf", "--set",
      "scales.a=0.1"], "phantom.radius"),
    (["theory-variance", "--set", "scales.a=inf"], "scales.a"),
    (["theory-variance", "--set", "scales.a=nan"], "scales.a"),
    (["theory-variance", "--set", "scales.a=geom:0.1:inf:3"], "scales.a"),
    (["profile", "--set", "profile.range=nan,1"], "profile.range"),
    (["profile", "--set", "profile.range=lin:-inf:1:3"], "profile.range"),
])
def test_non_finite_values_are_exit_2(tmp_path, capsys, argv, key):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == key
    assert "finite" in record["message"]


def test_gaussian_psf_support_is_exit_2(tmp_path, capsys):
    """A Gaussian has no support radius, so psf.support would be ignored
    silently; it is refused instead."""
    rc = main(["profile", "--set", "psf.support=3", "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "psf.support"
    assert not (tmp_path / "profile.csv").exists()


def test_malformed_set_is_exit_2(tmp_path, capsys):
    rc = main(["profile", "--set", "nonsense", "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["key"] == "--set"


def test_unknown_key_is_rejected_with_hint(tmp_path, capsys):
    """A typo'd key must fail loudly before any computation, not fall
    back to a default while the user thinks their value applied."""
    rc = main(["mc-variance", "--set", "scales.a=0.1",
               "--set", "mc.reps=500", "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "mc.reps"
    assert "mc.replicates" in record["message"]
    assert not (tmp_path / "mc-variance.csv").exists()
    # keys meaningful for one subcommand are still rejected for another
    rc = main(["profile", "--set", "shells.xi_max=4",
               "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["key"] \
        == "shells.xi_max"


def test_osc_bound_is_asymptotic_main_term(tmp_path):
    """osc_bound repeats var_asym, the main term; the band is
    [0, 2 osc_bound].  Indicator rows are finite primal sums."""
    assert main(["theory-variance", "--set", "scales.a=0.1,0.05",
                 "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "theory-variance.csv")
    cells = [dict(zip(header, row)) for row in rows]
    for cell in cells:
        assert cell["osc_bound"] == cell["var_asym"]
        assert 0.0 < float(cell["var_exact"]) < 2.0 * float(cell["osc_bound"])
        assert cell["xi_max"] == "inf"
        assert 0.0 < float(cell["tail_bound"]) < 1e-9


def test_truncation_is_exit_3(tmp_path, capsys, monkeypatch):
    # a smooth weight takes the dual route; cut it off before it converges
    real = variance.convergent_dual_sum
    monkeypatch.setattr(variance, "convergent_dual_sum",
                        lambda *args, **kwargs: real(*args, **{**kwargs,
                                                               "xi_cap": 3.0}))
    rc = main(["theory-variance", "--set", "scales.a=0.05",
               "--set", "weight.kind=plateau", "--out", str(tmp_path)])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert record["kind"] == "TruncationError"
    assert "dual radius 3" in record["message"]
    assert "xi_cap" not in record["message"]


@pytest.mark.parametrize("key", ["theory.xi_cap", "theory.tail_tol"])
def test_truncation_knobs_are_unknown_keys(tmp_path, capsys, key):
    rc = main(["theory-variance", "--set", f"{key}=3",
               "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["key"] == key


def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(greyvar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "greyvar", "--version"],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0
    assert "greyvar 0.1.0" in proc.stdout


def test_import_loads_no_fft_interpolate_or_optimize():
    """Ball intensities and band radii come from one Chebyshev model, and
    Z^3 shells from an integer fold, so importing the package and its
    CLI leaves scipy.fft, scipy.interpolate and scipy.optimize
    unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(greyvar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, greyvar, greyvar.cli; print(sorted(m for m in "
            "sys.modules if m.startswith(('scipy.fft', 'scipy.interpolate', "
            "'scipy.optimize'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gaussian_indicator_runs_load_no_scipy_special(tmp_path):
    """The Gaussian profile, its ball masses and the Epstein zeta
    constants have standard-library closed forms, so importing the CLI
    and running a d=3 Gaussian/indicator theory-variance and mc-variance
    leave scipy.special unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(greyvar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("GREYVAR_SEED", None)
    body = ["--set", "phantom.dim=3", "--set", "psf.kind=gaussian",
            "--set", "weight.kind=indicator", "--set", "scales.a=0.1"]
    runs = [["theory-variance"] + body + ["--out", "theory"],
            ["mc-variance"] + body + ["--set", "mc.replicates=200",
                                      "--out", "mc"]]
    code = ("import sys, greyvar.cli as cli; "
            "loaded = lambda: 'scipy.special' in sys.modules; "
            "print(loaded()); "
            f"print([cli.main(argv) for argv in {runs!r}]); "
            "print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "[0,", "0]", "False"]
