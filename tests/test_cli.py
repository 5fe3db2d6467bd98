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

import greyvar
from greyvar import lattice, phantom, variance
from greyvar.cli import _COMMANDS, main
from greyvar.estimator import Indicator, SmoothPlateau
from greyvar.lattice import unit_lattice
from greyvar.phantom import Ball
from greyvar.psf import gaussian
from greyvar.variance import variance_exact_ball


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
    assert man["seed"] == 9 and man["config"]["seed"] == "9"

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


def test_environment_does_not_override_seed(tmp_path, monkeypatch):
    """The seed comes from the config alone: a GREYVAR_SEED in the
    environment leaves --set seed=9 in force."""
    args = ["estimate", "--set", "scales.a=0.1", "--set", "seed=9"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("GREYVAR_SEED", "123")
    out = tmp_path / "env"
    assert main(args + ["--out", str(out)]) == 0
    assert _read_manifest(out)["seed"] == 9
    assert (out / "estimate.csv").read_bytes() == \
        (tmp_path / "plain" / "estimate.csv").read_bytes()


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
        assert float(row[8]) == lib.shells.tail_bound


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
        "python": platform.python_version(), "numpy": np.__version__}


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
    # ever allocated.  The indicator Monte Carlo enumerates lattice lines,
    # a (d-1)-dimensional box of about 2 / a of them in d=2: a = 0.005
    # puts its 32 bytes per line over the 4 KiB budget.
    monkeypatch.setattr(lattice, "SIEVE_BUDGET_BYTES", 1 << 12)
    a, box = {"estimate": ("0.1", "integer box covering"),
              "mc-variance": ("0.005", "integer box of lattice lines"),
              }[command]
    rc = main([command, "--set", f"scales.a={a}", "--out", str(tmp_path)])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "TruncationError"
    assert box in record["message"]
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


@pytest.mark.parametrize("key,under", [("--out", False), ("--out", True),
                                       ("out.dir", False)])
def test_output_path_under_a_file_is_exit_2(tmp_path, capsys, key, under):
    """An output directory that names an existing file, or a path under
    one, is a config error naming the key that gave it."""
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    where = str(blocker / "sub" if under else blocker)
    argv = (["profile", "--out", where] if key == "--out"
            else ["profile", "--set", f"out.dir={where}"])
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == key
    assert where in record["message"]


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


@pytest.mark.parametrize("command, dim", [("profile", 4), ("shells", 1)])
def test_unsupported_dimension_is_exit_2(tmp_path, capsys, command, dim):
    """Commands that build no phantom still read phantom.dim through the
    same 2-or-3 check, so an unsupported dimension is a config error
    naming the key, not a numerical one, and writes no CSV."""
    rc = main([command, "--set", f"phantom.dim={dim}",
               "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "phantom.dim"
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["mc-variance", "scaling-study"])
def test_too_few_replicates_per_batch_is_exit_2(tmp_path, capsys, command):
    """Each batch needs two replicates for its sample variance; fewer is
    a config error naming mc.replicates, not a numerical one."""
    rc = main([command, "--set", "scales.a=0.1", "--set",
               "mc.replicates=100", "--set", "mc.batches=60",
               "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "mc.replicates"


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


@pytest.mark.parametrize("overrides", [
    ["weight.beta=0.9"],
    ["weight.beta=0.0"],
    ["weight.kind=plateau", "weight.beta_inner=0.2"],
    ["weight.kind=plateau", "weight.beta_inner=0.65"],
    ["weight.kind=plateau", "weight.omega=1.0"],
])
def test_weight_refusals_are_keyed_weight_beta(tmp_path, capsys,
                                               overrides):
    argv = ["theory-variance", "--set", "scales.a=0.1",
            "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == "weight.beta"


def test_plateau_with_equal_inner_knots_matches_library(tmp_path):
    """SmoothPlateau takes beta_inner == omega_inner (a peak, no flat
    top), and so does the CLI."""
    assert main(["theory-variance", "--set", "weight.kind=plateau",
                 "--set", "weight.beta_inner=0.5",
                 "--set", "weight.omega_inner=0.5",
                 "--set", "scales.a=0.05", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "theory-variance.csv")
    lib = variance_exact_ball(Ball(2, 1.0), gaussian(2),
                              SmoothPlateau(0.3, 0.5, 0.5, 0.7), 0.05,
                              unit_lattice(2), 0.05)
    assert float(rows[0][header.index("var_exact")]) == lib.value
    assert lib.value == pytest.approx(0.1016, rel=1e-3)


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


@pytest.mark.parametrize("argv,key", [
    # the indicator has no inner knots
    (["theory-variance", "--set", "scales.a=0.1",
      "--set", "weight.beta_inner=0.45"], "weight.beta_inner"),
    # a matrix names the lattice, so its kind goes unread
    (["shells", "--set", "lattice.kind=hexagonal",
      "--set", "lattice.matrix=1,0,0,1"], "lattice.kind"),
    # every CLI phantom is a ball; there is no kind to choose
    (["theory-variance", "--set", "scales.a=0.1",
      "--set", "phantom.kind=ball"], "phantom.kind"),
    (["theory-variance", "--set", "scales.a=0.1",
      "--set", "mc.batches=20"], "mc.batches"),
])
def test_unread_key_is_exit_2(tmp_path, capsys, argv, key):
    """A key this run does not read is refused by name before any work:
    no output directory, CSV or manifest is made."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["key"] == key
    assert not out.exists()


def test_missing_and_unread_keys_are_exit_2(tmp_path, capsys):
    """The reads come first, so a missing required key is named ahead of
    a stray one; either way nothing is written."""
    out = tmp_path / "out"
    assert main(["theory-variance", "--set", "mc.batches=20",
                 "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["key"] == "scales.a"
    assert not out.exists()


def test_out_overrides_config_out_dir(tmp_path):
    """--out wins over out.dir in the config file, which is then neither
    read nor refused and stays out of the manifest."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out.dir = {tmp_path / 'from-config'}\n"
                   "shells.xi_max = 2\n")
    out = tmp_path / "from-option"
    assert main(["shells", str(cfg), "--out", str(out)]) == 0
    assert (out / "shells.csv").exists()
    assert not (tmp_path / "from-config").exists()
    assert "out.dir" not in _read_manifest(out)["config"]


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
    rc = main(["theory-variance", "--set", "scales.a=0.1",
               "--set", f"{key}=3", "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["key"] == key


def test_help_lists_every_command_with_its_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (_, help_line) in _COMMANDS.items():
        assert any(line.split() == [name, *help_line.split()]
                   for line in lines), name


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage: greyvar" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["nope"], ["--out", "x"],
                                  ["--workers", "2", "mc_variance"]])
def test_unknown_or_missing_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "COMMAND" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_argument_order_does_not_change_the_run(command, tmp_path):
    """The config file may follow --set options, and options may come
    before the command: each order reads the same config and writes the
    same CSV."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phantom.dim = 3\nseed = 4\n")
    readers = {"scales.a": ("estimate", "fourier", "mc-variance",
                            "theory-variance", "scaling-study"),
               "mc.replicates": ("mc-variance", "scaling-study")}
    sets = [arg for key, value in [("scales.a", "0.25"),
                                   ("mc.replicates", "200")]
            if command in readers[key] for arg in ("--set", f"{key}={value}")]
    orders = {"usual": [command, str(cfg), *sets, "--workers", "2"],
              "workers-first": ["--workers", "2", command, str(cfg), *sets],
              "config-last": [command, *sets, "--workers", "2", str(cfg)]}
    csvs, configs = set(), []
    for name, argv in orders.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        csvs.add((out / f"{command}.csv").read_bytes())
        manifest = _read_manifest(out)
        assert manifest["workers"] == 2
        configs.append(manifest["config"])
    assert len(csvs) == 1
    assert configs[0]["phantom.dim"] == "3"
    assert configs[0] == configs[1] == configs[2]


@pytest.mark.parametrize("kind, dim", [("gaussian", 3), ("bump", 3),
                                       ("disc", 3), ("disc", 2),
                                       ("gaussian", 2), ("bump", 2)])
def test_closed_form_runs_take_no_cap_quadrature(kind, dim, tmp_path,
                                                 monkeypatch):
    """A run reads the closed-form grey values of its PSF and dimension
    for its knot radii and intensity models, in every command, and no
    other; the package has no cap quadrature to fall back on (the tests
    keep it as the closed forms' oracle)."""
    assert not hasattr(phantom, "_cap_quadrature")
    calls, grey = [], phantom._ball_intensity_radii
    forms, closed_form = set(), phantom._closed_form

    def counted(*args):
        calls.append(args)
        return grey(*args)

    def recorded(psf):
        forms.add(closed_form(psf))
        return closed_form(psf)

    monkeypatch.setattr(phantom, "_ball_intensity_radii", counted)
    monkeypatch.setattr(phantom, "_closed_form", recorded)
    phantom.intensity_model.cache_clear()
    phantom.cached_knot_radii.cache_clear()
    keys = {"estimate": ["estimate.replicates=2"], "fourier": [],
            "mc-variance": ["mc.replicates=200"], "theory-variance": [],
            "scaling-study": ["mc.replicates=200"]}
    for command, extra in keys.items():
        sets = [f"phantom.dim={dim}", f"psf.kind={kind}",
                "weight.kind=plateau", "scales.a=0.25", *extra]
        argv = [command, *(a for k in sets for a in ("--set", k))]
        assert main(argv + ["--out", str(tmp_path / command)]) == 0, command
    assert calls
    assert forms == {phantom._CLOSED_FORMS[
        {"disc": "ball_indicator"}.get(kind, kind), dim]}


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
    CLI leaves scipy.fft, scipy.interpolate and scipy.optimize unloaded;
    the manifest records no scipy version, so no scipy module at all.
    Only a Monte Carlo run with workers > 1 imports concurrent.futures
    (and the logging it loads), and only a rejected config key difflib."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(greyvar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, greyvar, greyvar.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.') "
            "or m in ('concurrent.futures', 'difflib')))")
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


def test_runs_need_no_scipy(tmp_path):
    """With scipy blocked from import, the smooth-weight scaling study,
    d=3 bump and d=2 disc runs, the fourier table, d=2 and d=3
    estimates and the library's incomplete beta and Bessel callers all
    run: the compact kernels' incomplete beta and every Bessel function
    are numpy code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(greyvar.__file__)))
    cfg = os.path.join(os.path.dirname(src), "perfbench", "workloads",
                       "scaling-plateau-d2.cfg")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    small = ["--set", "scales.a=0.1"]
    mc = ["--set", "mc.replicates=200"]
    bump3 = small + ["--set", "phantom.dim=3", "--set", "psf.kind=bump",
                     "--set", "weight.kind=plateau"]
    disc2 = small + ["--set", "phantom.dim=2", "--set", "psf.kind=disc"]
    runs = [["scaling-study", cfg, *small, *mc, "--out", "study"],
            ["theory-variance", *bump3, "--out", "t3"],
            ["mc-variance", *bump3, *mc, "--out", "m3"],
            ["theory-variance", *disc2, "--out", "t2"],
            ["mc-variance", *disc2, *mc, "--out", "m2"],
            ["fourier", *small, "--set", "psf.kind=bump",
             "--set", "weight.kind=plateau", "--out", "f"],
            ["estimate", *small, "--out", "e2"],
            ["estimate", *bump3, "--out", "e3"]]
    code = ("import sys; sys.modules['scipy'] = None; "
            "import numpy as np, greyvar as g, greyvar.cli as cli; "
            "g.RadiusDensity().sample(np.random.default_rng(0), 10); "
            "g.psf_fourier(g.compact_bump(2), [0.5, 3.0]); "
            "g.ball_indicator_fourier(1.0, 3, [0.1, 5.0]); "
            "[g.bessel_j(nu, [0.5, 30.0]) for nu in (0.0, 0.5, 1.0, 1.5)]; "
            f"print([cli.main(argv) for argv in {runs!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,"] + ["0,"] * 6 + ["0]"]
