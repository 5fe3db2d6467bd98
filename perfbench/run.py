"""greyvar benchmark: three CLI workloads, timed end to end, with an
outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --check-workers

Run from the root of a checkout.  A run is a closed loop of jobs, one
at a time, each a fresh process (job.py) that imports greyvar, builds
the edge profile and alpha_f, then calls ``greyvar.cli.main`` on the
workload's config with ``--workers 1``.  Caches start cold in every job,
as they do for a CLI user.  New jobs start until the next would end
after S seconds (at least three).  ``--seed`` modulo 2**32 becomes the
CLI seed, since numpy seeds are non-negative.

Each job also times a fixed reference kernel (calib.py) right after
its run.  ``setup_s`` and ``run_s`` are job times scaled by
``calib.REFERENCE_S / calib_s``, so they read in seconds at one
reference host speed: the shared host's speed drifts by a third over
minutes, and the kernel, which never calls greyvar, drifts with it.
Unscaled medians are printed before the result line and kept in the
run file.

A correctness gate checks every job's output (see ``check_job``).  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (output cells checked and failed) and
``metrics``, the end-to-end metrics of BENCHMARK.json with ``--trace
0``, its per-layer metrics with ``--trace 1``.  With ``--trace 1`` the
jobs alternate untraced and traced; layer numbers are medians over the
traced jobs, and ``trace.overhead_s`` is the traced minus the untraced
median scaled run time.  The exit code is 1 when the gate fails.

``--check-workers`` runs the workload at ``--workers 1`` and ``2`` and
exits 1 unless both write byte-identical CSV.

Each run writes ``.perfbench_runs/<workload>-seed<N>-trace<T>.json``:
metrics, every job record and the machine it ran on.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calib
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = os.path.join(ROOT, ".perfbench_runs")

# workload -> (CLI subcommand, CSV cells the gate checks in every row)
WORKLOADS = {
    "theory-indicator-d3": ("theory-variance",
                            ("var_exact", "var_asym", "osc_bound")),
    "mc-indicator-d3": ("mc-variance", ("var_emp",)),
    "scaling-plateau-d2": ("scaling-study",
                           ("var_emp", "var_exact", "var_asym",
                            "osc_bound")),
}
HEADER = ["a", "b", "var_emp", "se", "var_exact", "var_asym", "osc_bound",
          "xi_max", "tail_bound"]
MIN_JOBS = 3
# a run starts no job that would end after this, and kills one that
# runs past JOB_DEADLINE, so it exits well inside three minutes
LAST_END_S = 150.0
JOB_DEADLINE_S = 170.0
# relative agreement the exact-vs-oracle acceptance claim (c02) allows
REL_AGREEMENT = 1e-3
# Monte Carlo variance must lie within this many standard errors
MC_Z = 4.0
# alpha_f is an adaptive quadrature to abs_tol 1e-11 on an O(1) value
ALPHA_REL = 1e-8


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness gate

def _near(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def check_job(workload: str, record: dict | None, csv_text: str | None,
              ref: dict) -> tuple[int, int]:
    """(cells checked, cells failed) for one job.

    Checked cells are alpha_f from set-up plus the workload's cells in
    every reference row.  Exact values must match the reference frozen
    from the seed commit within the reference row's own tail bound plus
    REL_AGREEMENT of the value; a Monte Carlo variance must lie within
    MC_Z of its standard errors of the exact value, widened by the same
    tolerance.  A failed job or a malformed CSV fails every cell."""
    cells = WORKLOADS[workload][1]
    checked = 1 + len(cells) * len(ref["rows"])
    if record is None or record["exit_code"] != 0 or csv_text is None:
        return checked, checked
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[:1] != [HEADER] or len(rows) != 1 + len(ref["rows"]):
        return checked, checked
    failed = 0 if _near(record["alpha"], ref["alpha"],
                        ALPHA_REL * ref["alpha"]) else 1
    for line, want in zip(rows[1:], ref["rows"]):
        try:
            if len(line) != len(HEADER):
                raise ValueError(line)
            got = {k: float(v) if v else math.nan
                   for k, v in zip(HEADER, line)}
        except ValueError:
            failed += len(cells)
            continue
        if not (_near(got["a"], want["a"], 1e-12 * want["a"])
                and _near(got["b"], want["b"], 1e-12 * want["b"])):
            failed += len(cells)
            continue
        exact_tol = want["var_exact_tail"] + REL_AGREEMENT * want["var_exact"]
        for cell in cells:
            if cell == "var_emp":
                ok = got["se"] > 0 and _near(
                    got["var_emp"], want["var_exact"],
                    MC_Z * got["se"] + exact_tol)
            elif cell == "var_exact":
                ok = _near(got["var_exact"], want["var_exact"], exact_tol)
            else:  # var_asym, osc_bound: the asymptotic main term
                ok = _near(got[cell], want["var_asym"],
                           want["var_asym_tail"]
                           + REL_AGREEMENT * want["var_asym"])
            failed += not ok
    return checked, failed


# ---------------------------------------------------------------------------
# jobs

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GREYVAR_SEED", None)  # the CLI would let it override --set
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_job(workload: str, seed: int, workdir: str, index: int, *,
            trace: bool, workers: int, timeout: float) -> dict:
    """One job in a fresh process; returns its record (None if the
    process failed) with the CSV it wrote and its wall time."""
    out = os.path.join(workdir, f"job{index}")
    result = out + ".json"
    command = WORKLOADS[workload][0]
    argv = [sys.executable, os.path.join(BENCH, "job.py"),
            os.path.join(BENCH, "workloads", f"{workload}.cfg"), command,
            "--seed", str(seed % 2 ** 32), "--out", out, "--result", result,
            "--workers", str(workers)] + (["--trace"] if trace else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
        ok = proc.returncode == 0 and os.path.exists(result)
        if not ok:
            sys.stderr.write(proc.stderr[-2000:])
    except subprocess.TimeoutExpired:
        ok = False
        sys.stderr.write(f"job {index} killed after {timeout:.0f} s\n")
    wall = time.perf_counter() - start
    record = _load_json(result) if ok else None
    csv_path = os.path.join(out, f"{command}.csv")
    csv_text = None
    if os.path.exists(csv_path):
        with open(csv_path, encoding="ascii", newline="") as fh:
            csv_text = fh.read()
    shutil.rmtree(out, ignore_errors=True)
    return {"record": record, "csv": csv_text, "wall_s": wall,
            "traced": trace}


def run_jobs(workload: str, seed: int, seconds: float, trace: bool,
             workdir: str) -> list[dict]:
    """Closed loop: the next job starts when the previous one ends."""
    jobs: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        expect = statistics.median(j["wall_s"] for j in jobs) if jobs else 0
        if jobs and (elapsed + expect > LAST_END_S
                     or (len(jobs) >= MIN_JOBS
                         and elapsed + expect > seconds)):
            break
        job = run_job(workload, seed, workdir, len(jobs),
                      trace=trace and len(jobs) % 2 == 1, workers=1,
                      timeout=JOB_DEADLINE_S - elapsed)
        jobs.append(job)
        if job["record"] is None:
            break
    return jobs


# ---------------------------------------------------------------------------
# reporting

def machine() -> dict:
    """The machine and checkout a result was measured on."""
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": None,
            "cache": {}, "git_commit": None}
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)):
            if not index.startswith("index"):
                continue
            entry = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache, index, key)) as fh:
                    entry[key] = fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(entry["type"], "")
            info["cache"][f"L{entry['level']}{kind}"] = entry["size"]
    except OSError:
        pass
    try:
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass  # a source checkout without git metadata
    return info


def scaled(record: dict, key: str) -> float:
    """A job's time scaled to the reference host speed (calib.py)."""
    return record[key] * calib.REFERENCE_S / record["calib_s"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(jobs: list[dict], checked: int, failed: int) -> dict:
    done = [j["record"] for j in jobs if j["record"] is not None]
    return {"setup_s": _median(scaled(r, "setup_s") for r in done),
            "run_s": _median(scaled(r, "run_s") for r in done),
            "peak_rss_mb": _median(r["maxrss_kb"] for r in done) / 1024.0,
            "pass_frac": 1.0 - failed / checked}


def wall(jobs: list[dict]) -> dict:
    """Unscaled medians over the untraced jobs, for the record."""
    done = [j["record"] for j in jobs
            if j["record"] is not None and not j["traced"]]
    return {key: _median(r[key] for r in done)
            for key in ("setup_s", "run_s", "calib_s")}


def per_layer(jobs: list[dict], names) -> dict:
    traced = [j["record"] for j in jobs
              if j["traced"] and j["record"] is not None]
    plain = [scaled(j["record"], "run_s") for j in jobs
             if not j["traced"] and j["record"] is not None]
    layers = [spans.layer_metrics(r["spans"], r["counts"]) for r in traced]
    out = spans.median_metrics(layers, [n for n in names
                                        if n != "trace.overhead_s"])
    out["trace.overhead_s"] = (
        statistics.median(scaled(r, "run_s") for r in traced)
        - statistics.median(plain)) if traced and plain else math.nan
    return out


def _job_summary(job: dict) -> dict:
    """A job's record without its spans, which stay in the job file."""
    record = job["record"] and {k: v for k, v in job["record"].items()
                                if k not in ("spans", "counts")}
    return {"wall_s": job["wall_s"], "traced": job["traced"],
            "record": record}


def gate(workload: str, jobs: list[dict], ref: dict) -> tuple[int, int]:
    """Cells checked and failed over a run.  Jobs of one run share the
    seed, so a CSV that differs from the first job's fails all of its
    cells too: tracing and repetition must not change an output byte."""
    checked = failed = 0
    for job in jobs:
        c, f = check_job(workload, job["record"], job["csv"], ref)
        if job["csv"] != jobs[0]["csv"]:
            f = c
        checked += c
        failed += f
    return checked, failed


def check_workers(workload: str, seed: int, workdir: str, ref: dict) -> int:
    digests = {}
    for workers in (1, 2):
        job = run_job(workload, seed, workdir, workers, trace=False,
                      workers=workers, timeout=JOB_DEADLINE_S)
        checked, failed = check_job(workload, job["record"], job["csv"], ref)
        digests[workers] = (hashlib.sha256(job["csv"].encode()).hexdigest()
                            if job["csv"] is not None and not failed
                            else None)
    identical = digests[1] is not None and digests[1] == digests[2]
    print(json.dumps({"workload": workload, "seed": seed,
                      "identical": identical,
                      "sha256": {f"workers={w}": d
                                 for w, d in digests.items()}}))
    return 0 if identical else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="greyvar benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-workers", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running job before the benchmark exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "greyvar", "cli.py")):
        sys.stderr.write("perfbench: no greyvar sources under "
                         f"{os.path.join(ROOT, 'src')}; run it from the "
                         "root of a greyvar checkout\n")
        return 2
    ref = _load_json(os.path.join(BENCH, "reference.json"))[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, stem)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if args.check_workers:
        return check_workers(args.workload, args.seed, workdir, ref)

    jobs = run_jobs(args.workload, args.seed, args.seconds,
                    bool(args.trace), workdir)
    checked, failed = gate(args.workload, jobs, ref)
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    values = (per_layer(jobs, [m["name"] for m in listed]) if args.trace
              else end_to_end(jobs, checked, failed))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    correct = failed == 0
    records = [j["record"] for j in jobs if j["record"] is not None]
    env = machine()
    unscaled = wall(jobs)
    if records:
        env.update({k: records[0][k]
                    for k in ("numpy", "scipy", "blas_threads")})
    with open(os.path.join(RUNS, stem + ".json"), "w",
              encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": env, "correct": correct, "attempted": checked,
                   "failed": failed, "metrics": metrics,
                   "wall": unscaled,
                   "jobs": [_job_summary(j) for j in jobs]}, fh, indent=1)
    print("unscaled medians: " + json.dumps(unscaled))
    print(json.dumps({"correct": correct, "attempted": checked,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
