"""Outside-in tracing for the benchmark.

``install`` replaces greyvar's layer entry points, at the names their
callers look up, with wrappers that record a span per call: name, start,
end and the index of the enclosing span.  Counters (points, frequencies,
shells) are taken from the arguments and results at the same boundary.
Nothing in the package changes; the spans stay in memory until the job
writes them out.

Jobs trace with ``--workers 1``, so spans nest strictly and the children
of a span run one after another.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager


class Recorder:
    """Spans as ``[name, start, end, parent]`` lists (parent -1 for a
    root) and counters keyed ``"<span name>.<counter>"``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; ``count(args, result)`` returns the counter
        increments for the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for counter, amount in count(args, result).items():
                    self.add(f"{name}.{counter}", amount)
            return result
        return traced


def install(rec: Recorder) -> None:
    """Wrap each layer boundary the benchmark reports on."""
    import numpy as np
    from greyvar import cli, estimator, lattice, phantom, psf, spectral, \
        variance

    def size_of(position, counter):
        return lambda args, out: {counter: int(np.size(args[position]))}

    def dual_sum(args, out):
        return {"shells": out[1].n_shells,
                "unconverged": int(not out[1].converged)}

    def weight(args, out):
        if not rec.inside("variance.mc"):
            return {}
        return {"evals": int(np.size(out)),
                "hits": int(np.count_nonzero(out))}

    targets = [
        (cli, "variance_exact_ball", "variance.exact", None),
        (cli, "variance_asymptotic_isotropic", "variance.asymptotic", None),
        (cli, "mc_surface", "variance.mc", None),
        (variance, "convergent_dual_sum", "variance.dual_sum", dual_sum),
        (variance, "alpha_f", "estimator.alpha_f", None),
        (estimator, "alpha_f", "estimator.alpha_f", None),
        (variance, "profile_fourier_1d", "spectral.profile_fourier_1d",
         size_of(2, "freqs")),
        (lattice, "dual_shells", "lattice.dual_shells",
         lambda args, out: {"shells_returned": len(out[0])}),
        (lattice, "integer_cover", "lattice.integer_cover",
         lambda args, out: {"points": len(out)}),
        (psf.HalfspaceProfile, "__init__", "psf.profile", None),
        (phantom.IntensityModel, "__init__", "phantom.intensity_model",
         None),
        (phantom.IntensityModel, "radial", "phantom.radial",
         size_of(1, "points")),
        (spectral.AnnulusFourier, "at", "spectral.annulus_at",
         size_of(1, "freqs")),
        (spectral.RadialFourier, "at", "spectral.radial_at",
         size_of(1, "freqs")),
        (estimator.Indicator, "__call__", "estimator.weight", weight),
        (estimator.SmoothPlateau, "__call__", "estimator.weight", weight),
    ]
    for owner, attr, name, count in targets:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count))


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict:
    """Per span name: ``self_s`` (duration minus the time its child spans
    cover), ``incl_s`` and ``calls``; every counter; and the two
    useful-to-attempted ratios the benchmark reports."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        for key, value in (("self_s", end - start - covered),
                           ("incl_s", end - start), ("calls", 1)):
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    out.update(counts)
    evals = out.get("estimator.weight.evals", 0)
    out["estimator.weight.hit_ratio"] = (
        out.get("estimator.weight.hits", 0) / evals if evals else 0.0)
    sieved = out.get("lattice.dual_shells.shells_returned", 0)
    out["lattice.shell_use_ratio"] = (
        out.get("variance.dual_sum.shells", 0) / sieved if sieved else 0.0)
    return out


def median_metrics(per_job: list[dict], names) -> dict[str, float]:
    """Median over traced jobs of each named metric; a layer a workload
    never enters reads 0, and every metric reads NaN without a traced
    job."""
    return {name: statistics.median(m.get(name, 0) for m in per_job)
            if per_job else math.nan for name in names}
