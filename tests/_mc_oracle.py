"""Reference Monte Carlo batch kernel: radii summed coordinate by
coordinate, then sqrt, then the weight of the model intensity
f(IntensityModel.radial(r)) at every point, in chunks of 256 shifts.

This is the kernel the package used before it scored squared radii with
one matrix product, kept here as the oracle for that product, for the
count per lattice line of the indicator weight and the binary volume,
for the band mask of smooth weights and for the trimmed point set.
annulus_counts counts the points of an annulus by brute force over an
integer box, the oracle of the line count at hand-picked shifts.  The
surface estimator enumerates its own lattice points: every b A k within
one cell diameter of the radii where the model intensity crosses the
band edges, found by its own root search.  A shift moves a point by at
most a cell diameter, and beyond those radii the grey value lies outside
the band, where every weight vanishes.  The binary volume scores every
point within a cell diameter of the ball.  Seeds and batch sizes follow
the package's scheme (one root SeedSequence spawned per batch, sizes
differing by at most one), so each oracle batch sees exactly the shifts
the package draws.
"""

import math

import numpy as np
from scipy.optimize import brentq

from greyvar.estimator import alpha_f
from greyvar.phantom import IntensityModel
from greyvar.psf import halfspace_profile

CHUNK = 256


def lattice_points(lattice, b, r_max):
    """All b A k with |b A k| <= r_max, enumerated over an integer box."""
    A = np.asarray(lattice.basis)
    kmax = math.ceil(r_max / (b * np.linalg.svd(A, compute_uv=False)[-1]))
    axis = np.arange(-kmax, kmax + 1)
    ks = np.stack(np.meshgrid(*([axis] * lattice.dim), indexing="ij"),
                  axis=-1).reshape(-1, lattice.dim)
    pts = b * (ks @ A.T)
    return pts[np.linalg.norm(pts, axis=1) <= r_max]


def annulus_counts(lattice, b, r_in, r_out, shifts):
    """For each shift u (rows), the number of points b A (k + u) with
    r_in^2 <= |b A (k + u)|^2 <= r_out^2, every k of an integer box that
    holds all of them: |k + u| <= r_out / (b s_min), s_min the least
    singular value of A."""
    A = np.asarray(lattice.basis)
    kmax = math.ceil(r_out / (b * np.linalg.svd(A, compute_uv=False)[-1]))
    axis = np.arange(-kmax - 1, kmax + 1)
    ks = np.stack(np.meshgrid(*([axis] * lattice.dim), indexing="ij"),
                  axis=-1).reshape(-1, lattice.dim)
    out = []
    for u in shifts:
        p = (ks + u) @ (b * A).T
        rsq = np.einsum("ij,ij->i", p, p)
        out.append(np.count_nonzero((rsq >= r_in * r_in)
                                    & (rsq <= r_out * r_out)))
    return np.array(out)


def batch_values(points, basis_b, weight, scale, seed, n_reps):
    """Mean and sample variance of scale * sum_p weight(|p + o|) over
    n_reps uniform cell shifts o drawn from seed."""
    rng = np.random.default_rng(seed)
    d = points.shape[1]
    vals = np.empty(n_reps)
    for i0 in range(0, n_reps, CHUNK):
        k = min(CHUNK, n_reps - i0)
        offs = rng.random((k, d)) @ basis_b.T
        rsq = np.zeros((len(points), k))
        for j in range(d):
            rsq += (points[:, j, None] + offs[None, :, j]) ** 2
        w = weight(np.sqrt(rsq))
        vals[i0:i0 + k] = scale * w.sum(axis=0)
    return float(vals.mean()), float(vals.var(ddof=1))


def _batches(points, basis_b, weight, scale, n_reps, seed, n_batches):
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = np.full(n_batches, n_reps // n_batches)
    sizes[:n_reps % n_batches] += 1
    out = [batch_values(points, basis_b, weight, scale, s, n)
           for s, n in zip(seeds, sizes)]
    return (np.array([m for m, _ in out]), np.array([v for _, v in out]))


def surface_points(radius, psf, f, a, lattice, b):
    """The intensity model and every lattice point that can see a grey
    value inside the band of f under some shift."""
    model = IntensityModel(radius, psf, a)
    r_lo, r_hi = model.table_range
    r_in, r_out = (
        brentq(lambda r: model.radial(np.array([r]))[0] - y, r_lo, r_hi,
               xtol=1e-13)
        for y in (f.knots[-1], f.knots[0]))
    pad = b * lattice.cell_diameter + 1e-9
    pts = lattice_points(lattice, b, r_out + pad)
    return model, pts[np.linalg.norm(pts, axis=1) >= r_in - pad]


def mc_surface(radius, psf, f, a, lattice, b, n_reps, seed, n_batches=20):
    """Batch means and batch variances of the surface estimator."""
    model, pts = surface_points(radius, psf, f, a, lattice, b)
    alpha = alpha_f(f, halfspace_profile(psf))
    scale = (lattice.cell_volume / alpha) * b ** psf.dim / a
    return _batches(pts, b * np.asarray(lattice.basis),
                    lambda r: f(model.radial(r)), scale, n_reps, seed,
                    n_batches)


def mc_volume_binary(radius, lattice, b, n_reps, seed, n_batches=20):
    """Batch means and batch variances of the binary volume estimator:
    every point within a cell diameter of the ball, scored under every
    shift."""
    pts = lattice_points(lattice, b, radius + b * lattice.cell_diameter)
    return _batches(pts, b * np.asarray(lattice.basis),
                    lambda r: (r <= radius).astype(float),
                    b ** lattice.dim * lattice.cell_volume, n_reps, seed,
                    n_batches)
