"""One benchmark job: a fresh process that imports greyvar, builds the
workload's edge profile and alpha_f (the set-up), then runs one CLI
command through ``greyvar.cli.main``.

run.py starts this script once per job; by hand it is

    python3 perfbench/job.py CONFIG COMMAND --seed N --out DIR \
        --result FILE [--workers W] [--trace]

It writes FILE as JSON: set-up and run wall times, the CLI exit code,
peak RSS, the time of the host-speed reference kernel (calib.py, run
after the CLI call and after peak RSS is read), numpy/scipy versions,
the BLAS thread count and, with ``--trace``, every span and counter the
tracer recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read_config(path: str) -> dict[str, str]:
    """The ``key = value`` lines of a config file (``#`` comments)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def _psf_and_weight(greyvar, cfg: dict[str, str]):
    """The PSF and weight a workload config names.  Configs spell out
    every key used here, so no CLI default is restated."""
    dim = int(cfg["phantom.dim"])
    psf = {"gaussian": lambda: greyvar.gaussian(dim),
           "bump": lambda: greyvar.compact_bump(
               dim, float(cfg["psf.support"]))}[cfg["psf.kind"]]()
    if cfg["weight.kind"] == "indicator":
        f = greyvar.Indicator(float(cfg["weight.beta"]),
                              float(cfg["weight.omega"]))
    else:
        f = greyvar.SmoothPlateau(*(float(cfg[k]) for k in (
            "weight.beta", "weight.beta_inner", "weight.omega_inner",
            "weight.omega")))
    return psf, f


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config")
    parser.add_argument("command")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    cfg = _read_config(args.config)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import greyvar
    from greyvar import cli, estimator
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    with recorder.span("bench.setup") if recorder else nullcontext():
        psf, f = _psf_and_weight(greyvar, cfg)
        alpha = estimator.alpha_f(f, greyvar.halfspace_profile(psf))
    setup_s = time.perf_counter() - t0

    argv = [args.command, args.config, "--set", f"seed={args.seed}",
            "--out", args.out, "--workers", str(args.workers)]
    run = recorder.wrap("cli", cli.main) if recorder else cli.main
    t1 = time.perf_counter()
    rc = run(argv)
    run_s = time.perf_counter() - t1
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy
    import calib
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calib_s": calib.calib_s(),
        "exit_code": rc,
        "maxrss_kb": maxrss_kb,
        "alpha": alpha,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }
    if recorder:
        record["spans"] = recorder.spans
        record["counts"] = recorder.counts
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
