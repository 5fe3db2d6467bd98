"""Point lattices, their duals, and stationary random placements.

A lattice is A Z^d for an invertible matrix A (columns = basis vectors),
with fundamental cell C = A [0,1)^d of volume det A.  Sampling uses the
scaled, randomly shifted and rotated point set  b Q (A Z^d + c)  with c
uniform in C and Q Haar-distributed in SO(d); this makes the point process
stationary and isotropic in law.

The dual lattice is A^{-T} Z^d, normalized so that <xi, z> is an integer
for every dual/primal pair.  Lattice sums, primal or dual, run over
shells of points grouped by norm, from one lister: point_shells, whose
dual shells are the shells of Lattice.dual.  It reads an exact
sum-of-squares table for s Z^d; for other lattices it takes points from
cells_near, the one enumerator of integer cells near a ball or its band
under the memory budget, which the Monte Carlo samplers also use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError
from .psf import _erfc


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice A Z^d, stored row-major as a tuple of rows."""

    matrix: tuple

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DomainError("lattice matrix must be square")
        if A.shape[0] not in (2, 3):
            raise DomainError("only dimensions 2 and 3 are supported")
        if not np.all(np.isfinite(A)):
            raise DomainError("lattice matrix entries must be finite")
        if np.linalg.det(A) <= 0:
            raise DomainError("lattice matrix must have positive determinant")
        object.__setattr__(self, "matrix",
                           tuple(tuple(float(v) for v in row) for row in A))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def basis(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.linalg.det(self.basis))

    @property
    def dual(self) -> "Lattice":
        """The dual lattice A^{-T} Z^d."""
        return Lattice(np.linalg.inv(self.basis).T)

    @property
    def cell_diameter(self) -> float:
        """Diameter of the fundamental cell (max over corner differences)."""
        d = self.dim
        signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * d))).reshape(d, -1).T
        return float(np.max(np.linalg.norm(signs @ self.basis.T, axis=1)))


def unit_lattice(dim: int) -> Lattice:
    return Lattice(tuple(tuple(float(i == j) for j in range(dim))
                         for i in range(dim)))


def scaled_lattice(dim: int, s: float) -> Lattice:
    return Lattice(tuple(tuple(s * float(i == j) for j in range(dim))
                         for i in range(dim)))


def hexagonal_lattice() -> Lattice:
    """Unit hexagonal lattice in d=2 (cell volume sqrt(3)/2)."""
    return Lattice(((1.0, 0.5), (0.0, math.sqrt(3.0) / 2.0)))


@dataclass
class LatticePlacement:
    """A realized placement b Q (A Z^d + c).

    c is the shift inside the fundamental cell (a d-vector, = A u with
    u in [0,1)^d); Q is a rotation matrix.
    """

    lattice: Lattice
    b: float
    shift: np.ndarray = field(default=None)
    rotation: np.ndarray = field(default=None)

    def __post_init__(self):
        d = self.lattice.dim
        if not 0 < self.b < math.inf:
            raise DomainError("lattice scale b must be positive and finite")
        if self.shift is None:
            self.shift = np.zeros(d)
        self.shift = np.asarray(self.shift, dtype=float)
        if self.rotation is None:
            self.rotation = np.eye(d)
        self.rotation = np.asarray(self.rotation, dtype=float)
        if self.shift.shape != (d,) or self.rotation.shape != (d, d):
            raise DomainError("placement shapes inconsistent with lattice")


def as_points(points, dim: int) -> np.ndarray:
    """`points` as floats, one d-vector or one per row; DomainError for
    any other shape, which numpy would broadcast or refuse on its own."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim:
        raise DomainError(f"points of shape {pts.shape} are not "
                          f"{dim}-vectors")
    return pts


@dataclass(frozen=True)
class Box:
    """Axis-aligned half-open box prod_i [lo_i, hi_i)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or any(h <= l for l, h in zip(lo, hi)):
            raise DomainError("box must have lo < hi componentwise")
        if not all(map(math.isfinite, lo + hi)):
            raise DomainError("box bounds must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(as_points(points, self.dim))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts < hi), axis=1)


def centered_box(half_widths) -> Box:
    hw = tuple(float(h) for h in np.atleast_1d(half_widths))
    return Box(tuple(-h for h in hw), hw)


def integer_cover(placement: LatticePlacement, window: Box) -> np.ndarray:
    """Integer coordinates k whose points under this placement can fall
    in the window (the box that enumerate_points filters).

    The window corners are pulled back through the placement map; the
    resulting integer box is padded by one cell and by the placement's
    shift.
    """
    A = placement.lattice.basis
    d = placement.lattice.dim
    corners = np.array(np.meshgrid(
        *[(window.lo[i], window.hi[i]) for i in range(d)])).reshape(d, -1).T
    y = corners @ placement.rotation / placement.b  # Q^T x / b
    k_corners = y @ np.linalg.inv(A).T
    u = np.linalg.solve(A, placement.shift)
    shift_reach = float(np.max(np.abs(u)))
    lo = np.floor(k_corners.min(axis=0) - shift_reach - 1e-9)
    hi = np.ceil(k_corners.max(axis=0) + 1e-9) + 1
    return _integer_box(lo, hi, f"covering {window}")


def enumerate_points(placement: LatticePlacement, window: Box) -> np.ndarray:
    """All placement points inside the half-open window, each once."""
    if window.dim != placement.lattice.dim:
        raise DomainError("window dimension mismatch")
    k = integer_cover(placement, window)
    A = placement.lattice.basis
    pts = placement.b * (k @ A.T + placement.shift) @ placement.rotation.T
    return pts[window.contains(pts)]


def _integer_box(lo, hi, purpose: str) -> np.ndarray:
    """Integer points k with lo <= k < hi, one per row.  About 32 d bytes
    per box point are alive at once (the coordinate grids, their stack,
    and the selection and points the callers make of them); a box over
    SIEVE_BUDGET_BYTES by that rule raises TruncationError before it is
    allocated."""
    sides = [float(h) - float(l) for l, h in zip(lo, hi)]
    need = 32.0 * len(sides) * math.prod(sides)
    if need > SIEVE_BUDGET_BYTES:
        raise TruncationError(
            f"the {' x '.join(f'{n:g}' for n in sides)} integer box "
            f"{purpose} needs about {need / 2 ** 30:.3g} GiB, over the "
            f"{SIEVE_BUDGET_BYTES / 2 ** 30:g} GiB budget")
    grids = np.meshgrid(*map(np.arange, np.asarray(lo, dtype=np.int64),
                             np.asarray(hi, dtype=np.int64)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def cells_near(gram: np.ndarray, r_lo: float, r_hi: float,
               purpose: str) -> np.ndarray:
    """Integer cells k (one row each, as floats) some point k + u of
    which, u in [0, 1)^n, can lie at a distance |k + u|_G =
    sqrt((k + u)^T G (k + u)) in [r_lo, r_hi] from the origin.

    The bounding box |k_i + u_i| <= r_hi sqrt((G^-1)_ii) of the r_hi
    ellipsoid is checked against the budget before it is allocated;
    every k + u lies within half a cell diameter (in the G norm) of the
    centre k + 1/2, so the cells kept are those whose centre lies within
    that distance of [r_lo, r_hi].
    """
    n = len(gram)
    ext = r_hi * np.sqrt(np.diag(np.linalg.inv(gram)))
    box = _integer_box(np.floor(-ext - 1.0 - 1e-9),
                       np.floor(ext + 1e-9) + 1.0, purpose)
    signs = np.array(np.meshgrid(*([[-0.5, 0.5]] * n))).reshape(n, -1).T
    half_diam = math.sqrt(float(np.max(
        np.einsum("ij,jk,ik->i", signs, gram, signs))))
    lo = max(r_lo - half_diam - 1e-9, 0.0)
    hi = r_hi + half_diam + 1e-9
    # the box and the distances freed as soon as they are used: no more
    # than two (N, n) arrays and a mask are alive at once, within the
    # 32 n bytes per box point that _integer_box budgets for
    centre = box + 0.5
    del box
    dist_sq = np.einsum("ij,jk,ik->i", centre, gram, centre)
    keep = (dist_sq >= lo * lo) & (dist_sq <= hi * hi)
    del dist_sq
    cells = centre[keep]
    cells -= 0.5
    return cells


_SHELL_TABLES: dict[int, np.ndarray] = {}

# Largest sum-of-squares sieve or integer box a process may allocate.
# A table holds 4-byte counts: one array in d=2, which fits to |z| of
# about 23000, and three in d=3 (the d=2 table, its double and the
# result).
SIEVE_BUDGET_BYTES = 2 << 30
# The d=3 fold adds the d=2 table once per x <= sqrt(n_max), so its time
# grows like n_max^1.5 (about 2 s at this limit, |z| = 2048); larger
# Z^3 tables are refused before anything is allocated.
_FOLD_MAX_N = 1 << 22
# squared norms per window of the d=2 sieve: the window's points (about
# 0.8 per norm) and its counts stay within a few MB, so the bincount
# writes into cache.  On a 2-core Xeon the table took 0.03 / 0.05 / 5.2
# ms to n_max = 1676 / 8192 / 1e6, against 0.18 / 0.37 / 8.8 ms by
# np.add.at one row at a time; bincounts over blocks of rows, each of
# which spans the whole table, took 29 ms at 1e6.
_SIEVE_WINDOW = 1 << 16


def _sum_of_squares_counts(dim: int, n_max: int) -> np.ndarray:
    """counts[n] = number of z in Z^dim with |z|^2 = n, for n <= n_max.

    Sieved exactly in int32: d=2 by a bincount of the points x, y >= 1,
    four lattice points each, one window of _SIEVE_WINDOW squared norms
    at a time, plus the axes; d=3 by folding the third coordinate x into
    the d=2 table, counts3[n] = sum over x of counts2[n - x^2].  This is
    what makes sums over the integer lattice cheap at large radii, where
    point enumeration would need |ball| memory.  The largest table per
    dimension is kept and sliced for smaller requests, so geometric-
    growth sums pay for each radius once.  A table over
    SIEVE_BUDGET_BYTES, or a Z^3 table beyond _FOLD_MAX_N, raises
    TruncationError before anything is allocated.
    """
    have = _SHELL_TABLES.get(dim)
    if have is not None and len(have) > n_max:
        return have[:n_max + 1]
    need = 4 * (n_max + 1) * (1 if dim == 2 else 3)
    if dim == 3 and n_max > _FOLD_MAX_N:
        raise TruncationError(
            f"shell sieve to radius {math.sqrt(n_max):.6g} of Z^3 "
            f"(|z|^2 <= {n_max}) is over the time budget of the d=3 fold, "
            f"which stops at radius {math.isqrt(_FOLD_MAX_N)} because its "
            f"time grows like |z|^3")
    if need > SIEVE_BUDGET_BYTES:
        raise TruncationError(
            f"shell sieve to radius {math.sqrt(n_max):.6g} of Z^{dim} "
            f"(|z|^2 <= {n_max}) needs about {need / 2 ** 30:.3g} GiB, "
            f"over the {SIEVE_BUDGET_BYTES / 2 ** 30:g} GiB budget")
    kmax = math.isqrt(n_max)
    if dim == 2:
        table = np.zeros(n_max + 1, dtype=np.int32)
        sq = np.arange(1, kmax + 1) ** 2
        for lo in range(2, n_max + 1, _SIEVE_WINDOW):
            hi = min(lo + _SIEVE_WINDOW, n_max + 1)
            # the points x, y >= 1 with lo <= x^2 + y^2 < hi, row by row:
            # y from ceil(sqrt(lo - x^2)) (at least 1) to floor(sqrt(hi -
            # 1 - x^2)); a float sqrt floors exactly below 2^52
            xx = sq[sq < hi - 1]
            y0 = np.sqrt(np.maximum(lo - xx, 1) - 1).astype(np.int64) + 1
            rows = np.sqrt(hi - 1 - xx).astype(np.int64) + 1 - y0
            np.maximum(rows, 0, out=rows)
            starts = np.cumsum(rows) - rows
            y = np.arange(starts[-1] + rows[-1]) - np.repeat(starts - y0,
                                                             rows)
            n = np.repeat(xx - lo, rows) + y * y
            table[lo:hi] = 4 * np.bincount(n, minlength=hi - lo)
        # the origin and the four axes
        table[0] = 1
        table[sq] += 4
    else:
        counts2 = _sum_of_squares_counts(2, n_max)
        table = counts2.copy()
        twice = 2 * counts2
        for x in range(1, kmax + 1):
            table[x * x:] += twice[:n_max + 1 - x * x]
    _SHELL_TABLES[dim] = table
    return table


def _integer_scale(lattice: Lattice) -> float | None:
    """s if the lattice is s * Z^d, else None."""
    A = np.asarray(lattice.basis)
    s = A[0, 0]
    if s > 0 and np.allclose(A, s * np.eye(lattice.dim), atol=1e-12, rtol=0):
        return float(s)
    return None


def _group_shells(norms: np.ndarray):
    """Sorted shell norms (equal within 1e-9 merged, each shell at its
    members' mean) with multiplicities."""
    norms = np.sort(norms)
    if norms.size == 0:
        return np.empty(0), np.empty(0, dtype=int)
    breaks = np.flatnonzero(np.diff(norms) > 1e-9)
    starts = np.concatenate(([0], breaks + 1))
    counts = np.diff(np.append(starts, norms.size))
    return np.add.reduceat(norms, starts) / counts, counts


def point_shells(lattice: Lattice, r_max: float, r_min: float = 0.0):
    """Shells of the lattice points A z with r_min < |A z| <= r_max:
    sorted norms with multiplicities (equal norms within 1e-9 merged).

    Scaled integer lattices s Z^d read the exact sum-of-squares table
    and only the part of it above r_min; other lattices take the cells k
    near the r_max ball from cells_near, in the Gram norm of A, and keep
    the nonzero A k with |A k| <= r_max.  Either way the shells kept are
    exactly those of the full list with norm > r_min.
    """
    if not (0 < r_max < math.inf and 0 <= r_min < math.inf):
        raise DomainError(f"shell radii must be finite with 0 <= r_min "
                          f"and 0 < r_max, got {r_min!r}, {r_max!r}")
    s = _integer_scale(lattice)
    if s is not None:
        counts = _sum_of_squares_counts(lattice.dim,
                                        int((r_max / s) ** 2 * (1 + 1e-12)))
        # start just below the bound; the float test decides
        lo = max(1, int((r_min / s) ** 2 * (1 - 1e-9)))
        n = np.flatnonzero(counts[lo:]) + lo
        norms, counts = s * np.sqrt(n.astype(float)), counts[n].astype(int)
    else:
        gen = lattice.basis
        cells = cells_near(gen.T @ gen, 0.0, r_max,
                           f"covering lattice points to radius {r_max:g}")
        norms = np.linalg.norm(cells @ gen.T, axis=1)
        norms, counts = _group_shells(
            norms[(norms > 0) & (norms <= r_max + 1e-12)])
    above = norms > r_min
    return norms[above], counts[above]


def dual_shells(lattice: Lattice, xi_max: float, xi_min: float = 0.0):
    """Shells of the dual lattice with xi_min < norm <= xi_max."""
    return point_shells(lattice.dual, xi_max, xi_min)


def epstein_zeta(lattice: Lattice, s: int) -> float:
    """Epstein zeta Z(s) = sum over nonzero z of |A z|^{-s}, continued
    analytically, at an integer s > 0 other than the pole s = d and the
    even distances s - d = 2, 4, ... above it (s in {1, 3} is what the
    lattice sums use).

    Ewald's split of the Mellin integral for Gamma(s/2) pi^{-s/2} |z|^{-s}
    at t = eta, with eta = det(A)^{-2/d} balancing the two sides:

        pi^{-s/2} Gamma(s/2) Z(s)
          = sum_z pi^{-s/2} |z|^{-s} Gamma(s/2, pi eta |z|^2)
          + det(A)^{-1} sum_xi pi^{-(d-s)/2} |xi|^{s-d}
                                  Gamma((d-s)/2, pi |xi|^2 / eta)
          + 2 eta^{(s-d)/2} / (det(A) (s - d)) - 2 eta^{s/2} / s,

    sums over nonzero primal z and dual xi, each cut where the
    incomplete gamma argument reaches 50 (terms below e^{-50}).  Both
    gamma orders are multiples of 1/2, whose incomplete gammas are
    elementary (_upper_gamma).
    """
    d = lattice.dim
    if (not float(s).is_integer() or s <= 0 or s == d
            or (s > d and (s - d) % 2 == 0)):
        raise DomainError(f"Epstein zeta needs an integer s > 0 with s - d "
                          f"not in {{0, 2, 4, ...}}; got {s!r} for d = {d}")
    vol = lattice.cell_volume
    eta = vol ** (-2.0 / d)
    cut = 50.0
    zn, zc = point_shells(lattice, math.sqrt(cut / (math.pi * eta)))
    xn, xc = point_shells(lattice.dual, math.sqrt(cut * eta / math.pi))
    direct = zc @ (zn ** -s * _upper_gamma(s / 2.0, math.pi * eta * zn ** 2))
    recip = xc @ (xn ** (s - d)
                  * _upper_gamma((d - s) / 2.0, math.pi * xn ** 2 / eta))
    total = (math.pi ** (-s / 2.0) * direct
             + math.pi ** ((s - d) / 2.0) * recip / vol
             + 2.0 * eta ** ((s - d) / 2.0) / (vol * (s - d))
             - 2.0 * eta ** (s / 2.0) / s)
    return float(total / (math.pi ** (-s / 2.0) * math.gamma(s / 2.0)))


def _upper_gamma(a: float, x):
    """Upper incomplete gamma Gamma(a, x) for x > 0 and a multiple a of
    1/2 that is not a nonpositive integer, elementwise over x.

    From Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) or Gamma(1, x) = e^{-x}
    it steps up by Gamma(a + 1, x) = a Gamma(a, x) + x^a e^{-x}, whose
    terms are all positive, and below a = 0 down by Gamma(a, x) =
    (Gamma(a + 1, x) - x^a e^{-x}) / a."""
    x = np.asarray(x, dtype=float)
    if a <= 0:
        return (_upper_gamma(a + 1.0, x) - x ** a * np.exp(-x)) / a
    if a == int(a):
        base, out = 1.0, np.exp(-x)
    else:
        base, out = 0.5, math.sqrt(math.pi) * _erfc(np.sqrt(x))
    while base < a:
        out = base * out + x ** base * np.exp(-x)
        base += 1.0
    return out


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation matrix (uniform angle / uniform quaternion)."""
    if dim == 2:
        t = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]])
    if dim == 3:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
    raise DomainError("only dimensions 2 and 3 are supported")


def random_placement(lattice: Lattice, b: float,
                     rng: np.random.Generator) -> LatticePlacement:
    """Uniform shift in the fundamental cell + Haar rotation."""
    u = rng.uniform(0.0, 1.0, size=lattice.dim)
    c = lattice.basis @ u
    Q = random_rotation(lattice.dim, rng)
    return LatticePlacement(lattice=lattice, b=b, shift=c, rotation=Q)
