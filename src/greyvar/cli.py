"""Experiment runner: flat config files in, CSV artifacts plus a run
manifest out.

Config files are plain text, one ``key = value`` per line, ``#`` starts
a comment.  Dotted keys group settings (``psf.kind``, ``lattice.matrix``);
values are scalars, comma lists, or grid specs ``lin:lo:hi:n`` /
``geom:lo:hi:n``.  ``--set key=value`` overrides file entries, the seed
included (key ``seed``, default 0).  Each subcommand reads its keys
before it computes anything; a given key the run does not read is
rejected, not ignored, so a typo or a setting this run has no use for
cannot silently fall back to a default.

Every run writes ``<subcommand>.csv`` (RFC 4180, 17 significant digits)
and ``manifest.json`` into the output directory.  The manifest echoes
every config value the run actually resolved, defaults included, so the
CSV is reproducible from the manifest alone, and records the sha256 of
each output file under ``output_sha256`` and the python and numpy
versions under ``library_versions``.  With a fixed config and seed the
CSV bytes do not depend on ``--workers``.

Exit codes: 0 success, 2 usage or config error, 3 numerical failure.
Both failure paths print a single-line JSON record to stderr naming the
offending key or parameter.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, GreyvarError
from .estimator import (Indicator, SmoothPlateau, estimate_surface)
from .lattice import (Lattice, dual_shells, hexagonal_lattice,
                      random_placement, unit_lattice)
from .phantom import Ball
from .psf import ball_indicator, compact_bump, gaussian, halfspace_profile
from .spectral import ball_main_term
from .variance import (mc_surface, variance_asymptotic_isotropic,
                       variance_exact_ball, weighted_layer)


# ---------------------------------------------------------------------------
# config plumbing

def _parse_config_text(text: str, source: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(source,
                              f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class ConfigView:
    """Raw key-value config plus a record of every resolved value.

    Commands read through the view; whatever they touch (explicit or
    default) lands in ``resolved`` and is echoed by the manifest.  A
    given key that never lands there is one the run does not use.
    """

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.resolved: dict[str, str] = {}

    def get(self, key: str, default: str | None = None) -> str | None:
        value = self.raw.get(key, default)
        if value is not None:
            self.resolved[key] = str(value)
        return value

    def floatval(self, key: str, default: float | None = None, *,
                 positive: bool = False) -> float:
        raw = self.get(key, None if default is None else repr(default))
        if raw is None:
            raise ConfigError(key, "required key is missing")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(key, f"cannot parse {raw!r} as a number")
        if not math.isfinite(value):
            raise ConfigError(key, f"must be finite, got {value!r}")
        if positive and not value > 0.0:
            raise ConfigError(key, f"must be positive, got {value!r}")
        return value

    def intval(self, key: str, default: int | None = None, *,
               minimum: int | None = None) -> int:
        raw = self.get(key, None if default is None else str(default))
        if raw is None:
            raise ConfigError(key, "required key is missing")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(key, f"cannot parse {raw!r} as an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(key, f"must be >= {minimum}, got {value}")
        return value

    def grid(self, key: str, default: str | None = None, *,
             positive: bool = True) -> list[float]:
        """A 'lin:start:stop:count' or 'geom:start:stop:count' grid, or a
        comma list; finite, and positive unless positive is off."""
        raw = self.get(key, default)
        if raw is None:
            raise ConfigError(key, "required key is missing")
        raw = str(raw).strip()
        if raw.startswith(("lin:", "geom:")):
            kind, _, rest = raw.partition(":")
            parts = rest.split(":")
            if len(parts) != 3:
                raise ConfigError(key, f"grid spec {raw!r} is not "
                                       f"'{kind}:start:stop:count'")
            try:
                lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise ConfigError(key, f"cannot parse grid spec {raw!r}")
            if n < 1:
                raise ConfigError(key, "grid count must be >= 1")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(key, "all values must be finite")
            if kind == "geom" and (lo <= 0 or hi <= 0):
                raise ConfigError(key, "geometric grid needs positive ends")
            pts = (np.linspace(lo, hi, n) if kind == "lin"
                   else np.geomspace(lo, hi, n))
            values = [float(v) for v in pts]
        else:
            try:
                values = [float(tok) for tok in raw.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(key, f"cannot parse {raw!r} as a comma "
                                       f"list of numbers")
            if not values:
                raise ConfigError(key, "grid is empty")
            if not all(map(math.isfinite, values)):
                raise ConfigError(key, "all values must be finite")
        if positive and any(not v > 0.0 for v in values):
            raise ConfigError(key, "all values must be positive")
        return values


# ---------------------------------------------------------------------------
# model builders

def _phantom_dim(view: ConfigView) -> int:
    dim = view.intval("phantom.dim", 2)
    if dim not in (2, 3):
        raise ConfigError("phantom.dim", f"must be 2 or 3, got {dim}")
    return dim


def _build_phantom(view: ConfigView) -> Ball:
    dim = _phantom_dim(view)
    radius = view.floatval("phantom.radius", 1.0, positive=True)
    return Ball(dim, radius)


def _build_psf(view: ConfigView, dim: int):
    kind = view.get("psf.kind", "gaussian")
    if kind == "gaussian":
        return gaussian(dim)
    if kind == "bump":
        return compact_bump(dim, view.floatval("psf.support", 1.0,
                                               positive=True))
    if kind == "disc":
        return ball_indicator(dim, view.floatval("psf.support", 1.0,
                                                 positive=True))
    raise ConfigError("psf.kind",
                      f"expected gaussian | bump | disc, got {kind!r}")


def _build_weight(view: ConfigView):
    """The weight the config names; the weight classes own its rules, and
    a knot they refuse is reported under weight.beta."""
    kind = view.get("weight.kind", "indicator")
    if kind == "indicator":
        make, names = Indicator, ("beta", "omega")
    elif kind == "plateau":
        make, names = SmoothPlateau, ("beta", "beta_inner", "omega_inner",
                                      "omega")
    else:
        raise ConfigError("weight.kind",
                          f"expected indicator | plateau, got {kind!r}")
    # the class attributes hold the dataclass defaults
    knots = [view.floatval(f"weight.{name}", getattr(make, name))
             for name in names]
    try:
        return make(*knots)
    except DomainError as exc:
        raise ConfigError("weight.beta", str(exc))


def _build_lattice(view: ConfigView, dim: int) -> Lattice:
    raw = view.get("lattice.matrix")
    if raw is not None:
        entries = [tok.strip() for tok in raw.split(",")]
        try:
            values = [float(tok) for tok in entries]
        except ValueError:
            raise ConfigError("lattice.matrix",
                              f"cannot parse {raw!r} as numbers")
        if not all(map(math.isfinite, values)):
            raise ConfigError("lattice.matrix", "entries must be finite")
        side = math.isqrt(len(values))
        if side * side != len(values):
            raise ConfigError("lattice.matrix",
                              f"{len(values)} entries do not form a "
                              f"square matrix")
        if side != dim:
            raise ConfigError("lattice.matrix",
                              f"matrix is {side}x{side} but the phantom "
                              f"lives in dimension {dim}")
        rows = tuple(tuple(values[i * side:(i + 1) * side])
                     for i in range(side))
        try:
            return Lattice(rows)
        except GreyvarError as exc:
            raise ConfigError("lattice.matrix", str(exc))
    kind = view.get("lattice.kind", "unit")
    if kind == "unit":
        return unit_lattice(dim)
    if kind == "hexagonal":
        if dim != 2:
            raise ConfigError("lattice.kind",
                              "hexagonal lattice is two-dimensional")
        return hexagonal_lattice()
    raise ConfigError("lattice.kind",
                      f"expected unit | hexagonal, got {kind!r}")


def _scale_pairs(view: ConfigView) -> list[tuple[float, float]]:
    """Resolve the (a, b) grid: scales.b may be a grid of its own, the
    string 'a' (matched resolution), or 'a^2' (fast-b regime)."""
    a_grid = view.grid("scales.a")
    raw_b = view.get("scales.b", "a")
    mode = str(raw_b).strip().lower()
    if mode == "a":
        return [(a, a) for a in a_grid]
    if mode == "a^2":
        return [(a, a * a) for a in a_grid]
    b_grid = view.grid("scales.b")
    if len(b_grid) == 1:
        b_grid = b_grid * len(a_grid)
    if len(b_grid) != len(a_grid):
        raise ConfigError("scales.b",
                          f"{len(b_grid)} values for {len(a_grid)} a's")
    return list(zip(a_grid, b_grid))


# ---------------------------------------------------------------------------
# CSV output

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


_VAR_HEADER = ["a", "b", "var_emp", "se", "var_exact", "var_asym",
               "osc_bound", "xi_max", "tail_bound"]


# ---------------------------------------------------------------------------
# subcommands
#
# Each is a generator: it reads every config key it uses, yields the CSV
# header, and only then computes and yields the rows, so main() can
# refuse an unread key before any work is done.

def _cmd_profile(view: ConfigView, seed: int, workers: int):
    psf = _build_psf(view, _phantom_dim(view))
    t = np.asarray(view.grid("profile.range", "lin:-4:4:161",
                             positive=False))
    yield ["t", "theta_h", "dtheta_h"]
    profile = halfspace_profile(psf)
    yield from zip(t, profile.theta(t), profile.dtheta(t))


def _cmd_shells(view: ConfigView, seed: int, workers: int):
    lattice = _build_lattice(view, _phantom_dim(view))
    xi_max = view.floatval("shells.xi_max", 16.0, positive=True)
    yield ["xi_norm", "count"]
    yield from zip(*dual_shells(lattice, xi_max))


def _single_scale(view: ConfigView, key: str) -> float:
    grid = view.grid(key)
    if len(grid) != 1:
        raise ConfigError(key, f"this command takes a single value, "
                               f"got {len(grid)}")
    return grid[0]


def _cmd_estimate(view: ConfigView, seed: int, workers: int):
    phantom = _build_phantom(view)
    psf = _build_psf(view, phantom.dim)
    f = _build_weight(view)
    lattice = _build_lattice(view, phantom.dim)
    pairs = _scale_pairs(view)
    if len(pairs) != 1:
        raise ConfigError("scales.a", f"this command takes a single "
                                      f"(a, b) pair, got {len(pairs)}")
    (a, b), = pairs
    n_reps = view.intval("estimate.replicates", 1, minimum=1)
    yield ["rep", "value", "raw_sum", "n_points", "n_support", "a", "b"]
    children = np.random.SeedSequence(seed).spawn(n_reps)
    for rep, child in enumerate(children):
        placement = random_placement(lattice, b,
                                     np.random.default_rng(child))
        result = estimate_surface(phantom, psf, f, a, placement)
        yield [rep, result.value, result.raw_sum, result.n_points,
               result.n_support, a, b]


def _cmd_fourier(view: ConfigView, seed: int, workers: int):
    phantom = _build_phantom(view)
    psf = _build_psf(view, phantom.dim)
    f = _build_weight(view)
    a = _single_scale(view, "scales.a")
    q = np.asarray(view.grid("fourier.q", "geom:1:128:29"))
    yield ["q", "layer_exact", "layer_main", "rel_gap"]
    layer = weighted_layer(phantom.radius, psf, a, f)
    exact = layer.at(q)
    main = ball_main_term(phantom.radius, halfspace_profile(psf), f, a, q,
                          phantom.dim)
    for qv, ev, mv in zip(q, exact, main):
        rel = abs(ev - mv) / abs(ev) if ev != 0.0 else None
        yield [qv, ev, mv, rel]


def _theory_cells(phantom, psf, f, lattice, a, b):
    """The theory cells of one (a, b) row: var_exact, var_asym,
    osc_bound, xi_max and tail_bound.

    osc_bound is the asymptotic main term, the same number as var_asym:
    the oscillation band the exact variance should lie in is
    [0, 2 * osc_bound].  xi_max and tail_bound (in the units of
    var_exact) are the exact sum's truncation record, always converged:
    an indicator weight's finite primal sum reports xi_max = inf and a
    rounding bound, any other weight's dual sum its last dual radius
    and tail bound.
    """
    asym = variance_asymptotic_isotropic(phantom.surface_area, psf, f,
                                         lattice, a)
    exact = variance_exact_ball(phantom, psf, f, a, lattice, b)
    return (exact.value, asym.main, asym.main, exact.shells.xi_max,
            exact.shells.tail_bound)


def _variance_rows(view: ConfigView, seed: int, workers: int, *,
                   with_mc: bool, with_theory: bool,
                   default_reps: int | None = None):
    """One row per (a, b): Monte Carlo and/or exact plus asymptotic
    cells, the ones switched off left empty."""
    phantom = _build_phantom(view)
    psf = _build_psf(view, phantom.dim)
    f = _build_weight(view)
    lattice = _build_lattice(view, phantom.dim)
    if with_mc:
        n_reps = view.intval("mc.replicates", default_reps, minimum=100)
        n_batches = view.intval("mc.batches", 20, minimum=20)
        if n_reps < 2 * n_batches:
            raise ConfigError("mc.replicates",
                              f"must be >= 2 * mc.batches = "
                              f"{2 * n_batches}, got {n_reps}")
    pairs = _scale_pairs(view)
    yield _VAR_HEADER
    for i, (a, b) in enumerate(pairs):
        var_emp = se = None
        if with_mc:
            mc = mc_surface(phantom, psf, f, a, lattice, b, n_reps,
                            (seed, i), n_batches=n_batches, workers=workers)
            var_emp, se = mc.variance, mc.variance_se
        cells = (None,) * 5
        if with_theory:
            cells = _theory_cells(phantom, psf, f, lattice, a, b)
        yield [a, b, var_emp, se, *cells]


# name: (function, help line)
_COMMANDS = {
    "profile": (_cmd_profile,
                "tabulate the half-space grey profile of a PSF"),
    "shells": (_cmd_shells, "list dual-lattice shells (norm, multiplicity)"),
    "estimate": (_cmd_estimate,
                 "run the surface estimator on random placements"),
    "fourier": (_cmd_fourier,
                "tabulate the blurred-ball layer transform and its "
                "leading-term model"),
    "mc-variance": (functools.partial(_variance_rows, with_mc=True,
                                      with_theory=False, default_reps=10000),
                    "Monte Carlo variance over random placements"),
    "theory-variance": (functools.partial(_variance_rows, with_mc=False,
                                          with_theory=True),
                        "exact variance plus asymptotic model"),
    "scaling-study": (functools.partial(_variance_rows, with_mc=True,
                                        with_theory=True, default_reps=2000),
                      "empirical and exact variance over an (a, b) grid"),
}


def _build_parser() -> argparse.ArgumentParser:
    width = max(map(len, _COMMANDS))
    listing = "".join(f"\n  {name:<{width}}  {line}"
                      for name, (_, line) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="greyvar",
        description="Grey-value estimator experiments: config in, "
                    "CSV + manifest out.",
        epilog="commands:" + listing,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"greyvar {__version__}")
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                        help="the experiment to run, listed below")
    parser.add_argument("config", nargs="?", default=None,
                        help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: config out.dir "
                             "or '.')")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker threads for Monte Carlo batches; "
                             "output is identical for any value")
    return parser


def _emit_error(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    # intermixed, so the config file may follow --set options
    args = _build_parser().parse_intermixed_args(argv)
    run, _ = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        raw: dict[str, str] = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError("config", f"cannot read {args.config!r}: "
                                            f"{exc.strerror}")
            raw.update(_parse_config_text(text, args.config))
        for item in args.set:
            if "=" not in item:
                raise ConfigError("--set",
                                  f"{item!r} is not of the form KEY=VALUE")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        if args.workers < 1:
            raise ConfigError("--workers", "must be >= 1")
        if args.out is not None:
            raw.pop("out.dir", None)  # overridden, so neither read nor refused

        view = ConfigView(raw)
        seed = view.intval("seed", 0)
        out_dir = args.out if args.out is not None \
            else view.get("out.dir", ".")
        table = run(view, seed, args.workers)
        header = next(table)
        unread = sorted(set(raw) - set(view.resolved))
        if unread:
            # imported here: only a refused key needs a suggestion
            import difflib
            close = difflib.get_close_matches(unread[0],
                                              sorted(view.resolved), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(unread[0], f"not read by this {args.command} "
                                         f"run{hint}")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out.dir" if args.out is None else "--out",
                              f"cannot make directory {out_dir!r}: "
                              f"{exc.strerror}")

        rows = list(table)
        csv_name = f"{args.command}.csv"
        csv_path = os.path.join(out_dir, csv_name)
        _write_csv(csv_path, header, rows)
        with open(csv_path, "rb") as fh:
            csv_sha256 = hashlib.sha256(fh.read()).hexdigest()

        manifest = {
            "subcommand": args.command,
            "version": __version__,
            "library_versions": {"python": platform.python_version(),
                                 "numpy": np.__version__},
            "seed": seed,
            "workers": args.workers,
            "config": dict(sorted(view.resolved.items())),
            "outputs": [csv_name],
            "output_sha256": {csv_name: csv_sha256},
            "rows": len(rows),
            "wall_time_s": round(time.perf_counter() - start, 3),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="ascii") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    except ConfigError as exc:
        _emit_error({"error": "config", "key": exc.key,
                     "message": str(exc)})
        return 2
    except GreyvarError as exc:
        _emit_error({"error": "numerical", "kind": type(exc).__name__,
                     "message": str(exc)})
        return 3


if __name__ == "__main__":
    sys.exit(main())
