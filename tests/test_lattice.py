"""Lattices, duals, shells, and random placements.

The dual convention is pinned end to end by Poisson summation with a
Gaussian (both sides computable to machine accuracy), and the shell
sieve is cross-checked against explicit point enumeration, including
the d=3 fold.  Dual points come from a brute-force oracle that shares
no code with the package.
"""

import math

import tracemalloc

import numpy as np
import pytest
from scipy.special import bernoulli, gamma, gammaincc, zeta

from greyvar import lattice as lattice_module
from greyvar.errors import DomainError, TruncationError
from greyvar.lattice import (Box, Lattice, LatticePlacement, centered_box,
                             dual_shells, enumerate_points,
                             epstein_zeta, hexagonal_lattice, integer_cover,
                             point_shells, random_placement, random_rotation,
                             scaled_lattice, unit_lattice,
                             _sum_of_squares_counts, _upper_gamma)

from _dual_oracle import dual_points


@pytest.mark.parametrize("lattice", [
    unit_lattice(2),
    scaled_lattice(2, 0.7),
    hexagonal_lattice(),
    Lattice(((1.0, 0.3), (0.1, 0.8))),
    unit_lattice(3),
])
def test_poisson_summation_gaussian(lattice):
    """sum_{z in L} exp(-pi|z|^2) = c_L^{-1} sum_{xi in L*} exp(-pi|xi|^2).

    The Gaussian exp(-pi|x|^2) is its own Fourier transform, so any
    mismatch in the dual convention (transpose, inverse, determinant)
    breaks this identity at order one.
    """
    d = lattice.dim
    reach = 9
    rng = np.arange(-reach, reach + 1)
    k = np.stack(np.meshgrid(*([rng] * d), indexing="ij"),
                 axis=-1).reshape(-1, d)
    primal = np.exp(-math.pi * np.sum((k @ lattice.basis.T) ** 2,
                                      axis=1)).sum()
    dual = np.exp(-math.pi * np.sum((k @ lattice.dual.basis.T) ** 2,
                                    axis=1)).sum()
    assert primal == pytest.approx(dual / lattice.cell_volume, rel=1e-13)


def test_dual_basis_biorthogonal():
    lat = Lattice(((2.0, 0.5), (-0.3, 1.1)))
    gram = lat.basis @ lat.dual.basis.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)


def test_lattice_validation():
    with pytest.raises(DomainError):
        Lattice(((1.0, 0.0), (2.0, 0.0)))  # singular
    with pytest.raises(DomainError):
        Lattice(((0.0, 1.0), (1.0, 0.0)))  # negative determinant
    with pytest.raises(DomainError):
        Lattice(((1.0,),))  # unsupported dimension
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            Lattice(((bad, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize("dim", [2, 3])
def test_sum_of_squares_sieve_vs_enumeration(dim):
    n_max = 160
    counts = _sum_of_squares_counts(dim, n_max)
    reach = int(math.isqrt(n_max)) + 1
    rng = np.arange(-reach, reach + 1)
    k = np.stack(np.meshgrid(*([rng] * dim), indexing="ij"),
                 axis=-1).reshape(-1, dim)
    n = np.sum(k * k, axis=1)
    brute = np.bincount(n[n <= n_max], minlength=n_max + 1)
    np.testing.assert_array_equal(counts, brute)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_max", [160, 1000])
def test_cold_sieve_vs_enumeration(dim, n_max, monkeypatch):
    """A table built anew, with no cached larger table to slice."""
    monkeypatch.setattr(lattice_module, "_SHELL_TABLES", {})
    counts = _sum_of_squares_counts(dim, n_max)
    assert lattice_module._SHELL_TABLES[dim] is counts
    reach = int(math.isqrt(n_max)) + 1
    rng = np.arange(-reach, reach + 1)
    k = np.stack(np.meshgrid(*([rng] * dim), indexing="ij"),
                 axis=-1).reshape(-1, dim)
    n = np.sum(k * k, axis=1)
    brute = np.bincount(n[n <= n_max], minlength=n_max + 1)
    np.testing.assert_array_equal(counts, brute)


@pytest.mark.parametrize("window", [1, 7, 64])
def test_sieve_windows_do_not_change_counts(window, monkeypatch):
    """The d=2 sieve counts one window of squared norms at a time; narrow
    windows, whose ends fall between and on the norms of every row, give
    the counts of enumeration, and so does the d=3 fold of them."""
    monkeypatch.setattr(lattice_module, "_SIEVE_WINDOW", window)
    for dim in (2, 3):
        monkeypatch.setattr(lattice_module, "_SHELL_TABLES", {})
        n_max = 1000 if dim == 2 else 200
        counts = _sum_of_squares_counts(dim, n_max)
        reach = int(math.isqrt(n_max)) + 1
        rng = np.arange(-reach, reach + 1)
        k = np.stack(np.meshgrid(*([rng] * dim), indexing="ij"),
                     axis=-1).reshape(-1, dim)
        n = np.sum(k * k, axis=1)
        brute = np.bincount(n[n <= n_max], minlength=n_max + 1)
        np.testing.assert_array_equal(counts, brute)


def test_sieve_over_budget_allocates_nothing(monkeypatch):
    """Z^3 tables stop at |z| = 2048, where the fold's n_max^1.5 time
    reaches seconds; |xi| = 2049 and 16384 are refused before any array
    exists, with the radius asked for."""
    monkeypatch.setattr(lattice_module, "_SHELL_TABLES", {})
    for xi in (16384.0, 2049.0):
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError, match="budget") as err:
                dual_shells(unit_lattice(3), xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert f"radius {xi:g}" in str(err.value)
        assert lattice_module._SHELL_TABLES == {}


@pytest.mark.parametrize("lattice,r_max", [
    (unit_lattice(2), 7.3),
    (scaled_lattice(2, 0.7), 5.0),
    (hexagonal_lattice(), 6.1),
    (Lattice(((1.0, 0.3), (0.1, 0.8))), 5.5),
    (unit_lattice(3), 4.2),
    (scaled_lattice(3, 1.3), 5.0),
])
def test_point_shells_vs_brute_force(lattice, r_max):
    d = lattice.dim
    span = np.arange(-12, 13)
    k = np.stack([g.ravel() for g in np.meshgrid(*([span] * d),
                                                 indexing="ij")], axis=1)
    norms = np.linalg.norm(k @ lattice.basis.T, axis=1)
    norms = np.sort(norms[(norms > 0) & (norms <= r_max)])
    want, want_counts = np.unique(np.round(norms, 9), return_counts=True)
    got, counts = point_shells(lattice, r_max)
    np.testing.assert_allclose(got, want, atol=1e-9)
    np.testing.assert_array_equal(counts, want_counts)
    # a lower bound keeps the shells strictly above it, also when it
    # equals a shell norm
    for r_min in (r_max / 2.0, float(got[2]), float(got[-1])):
        above = want > r_min + 1e-9
        got_above, counts_above = point_shells(lattice, r_max, r_min)
        np.testing.assert_allclose(got_above, want[above], atol=1e-9)
        np.testing.assert_array_equal(counts_above, want_counts[above])


def test_point_enumeration_over_budget_allocates_nothing():
    """A non-integer lattice enumerates points; a ball whose covering
    box would exceed the budget is refused before any array exists."""
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="budget"):
            point_shells(Lattice(((1.0, 0.3, 0.0), (0.0, 1.0, 0.0),
                                  (0.0, 0.0, 1.0))), 1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_point_enumeration_box_is_the_ellipsoid_bounding_box(monkeypatch):
    """A non-integer lattice enumerates points from the bounding box
    |k_i| <= r sqrt((G^-1)_ii) of the r ellipsoid in integer coordinates,
    padded by one cell on each side: 269,325 points for this skewed d=3
    lattice at r = 25, against 912,673 in the cube of side 2 |A^-1|_2 r
    that also covers the ball.  The shells' traced peak stays within the
    32 d bytes per box point that the box's budget check charges."""
    skew = Lattice(((1.0, 0.3, -0.2), (0.1, 0.8, 0.25), (-0.15, 0.2, 1.1)))
    boxes = []

    def counted(*args, **kwargs):
        ks = box(*args, **kwargs)
        boxes.append(len(ks))
        return ks

    box = lattice_module._integer_box
    monkeypatch.setattr(lattice_module, "_integer_box", counted)
    gram = skew.basis.T @ skew.basis
    ext = 25.0 * np.sqrt(np.diag(np.linalg.inv(gram)))
    tracemalloc.start()
    try:
        point_shells(skew, 25.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(boxes) == 1
    assert boxes[0] <= np.prod(2.0 * np.floor(ext) + 3.0) < 3e5
    assert peak <= 32 * 3 * boxes[0]


def test_integer_cover_over_budget_allocates_nothing(monkeypatch):
    """The integer box covering a window is checked against the budget
    before it is built: around the unit ball at b = 0.002 in d=3 it has
    about 1e9 points.  The rule is 32 d bytes per box point."""
    place = LatticePlacement(unit_lattice(3), 0.002)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="budget") as err:
            integer_cover(place, centered_box((1.1,) * 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "integer box" in str(err.value)
    # a 7 x 7 box (|k_i| <= 2 padded by one cell) needs 32 * 2 * 49 bytes
    small = LatticePlacement(unit_lattice(2), 1.0)
    monkeypatch.setattr(lattice_module, "SIEVE_BUDGET_BYTES", 32 * 2 * 49)
    assert len(integer_cover(small, centered_box((2.0, 2.0)))) == 49
    monkeypatch.setattr(lattice_module, "SIEVE_BUDGET_BYTES", 32 * 2 * 49 - 1)
    with pytest.raises(TruncationError, match="7 x 7 integer box"):
        enumerate_points(small, centered_box((2.0, 2.0)))


def _hurwitz_zeta(s, q, n=40, terms=8):
    """Hurwitz zeta by Euler-Maclaurin, valid for every real s != 1."""
    head = sum((k + q) ** -s for k in range(n))
    x = n + q
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    rising = s
    bern = bernoulli(2 * terms)
    for j in range(1, terms + 1):
        tail += bern[2 * j] / math.factorial(2 * j) * rising \
            * x ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return head + tail


def test_hurwitz_helper_matches_scipy():
    for q in (0.25, 1.0 / 3.0, 0.75):
        assert _hurwitz_zeta(1.5, q) == pytest.approx(zeta(1.5, q),
                                                      rel=1e-13)
    assert _hurwitz_zeta(0.5, 1.0) == pytest.approx(zeta(0.5), rel=1e-13)


@pytest.mark.parametrize("s", [1.0, 3.0])
def test_epstein_zeta_closed_forms_d2(s):
    """Z^2: 4 zeta(s/2) beta(s/2); hexagonal: 6 zeta(s/2) L_{-3}(s/2)
    (Borwein et al., Lattice Sums Then and Now, 2013), the Dirichlet L
    series from Hurwitz zeta values."""
    h = s / 2.0
    beta = 4.0 ** -h * (_hurwitz_zeta(h, 0.25) - _hurwitz_zeta(h, 0.75))
    l3 = 3.0 ** -h * (_hurwitz_zeta(h, 1.0 / 3.0)
                      - _hurwitz_zeta(h, 2.0 / 3.0))
    zh = _hurwitz_zeta(h, 1.0)
    assert epstein_zeta(unit_lattice(2), s) == pytest.approx(
        4.0 * zh * beta, rel=1e-12)
    assert epstein_zeta(hexagonal_lattice(), s) == pytest.approx(
        6.0 * zh * l3, rel=1e-12)


def test_epstein_zeta_d3_and_scaling():
    assert epstein_zeta(unit_lattice(3), 1.0) == pytest.approx(
        -2.8372974794806, rel=1e-12)
    # Z_{cL}(s) = c^{-s} Z_L(s)
    assert epstein_zeta(scaled_lattice(3, 2.0), 1.0) == pytest.approx(
        -2.8372974794806 / 2.0, rel=1e-12)
    assert epstein_zeta(scaled_lattice(2, 0.5), 3.0) == pytest.approx(
        8.0 * epstein_zeta(unit_lattice(2), 3.0), rel=1e-12)


@pytest.mark.parametrize("s", [1.5, math.inf, 0.0, -1.0, 2.0, 4.0])
def test_epstein_zeta_refuses_unsupported_s(s):
    # non-integer s, s <= 0, the pole s = d and s - d even and positive
    with pytest.raises(DomainError):
        epstein_zeta(unit_lattice(2), s)


@pytest.mark.parametrize("a", [-0.5, 0.5, 1.0, 1.5])
def test_upper_gamma_matches_scipy(a):
    """The elementary forms against scipy's regularized gamma.  Below
    a = 0 both sides take the downward step, which cancels about 1/(2x)
    of each term, so the rounding of both grows to about 1e-12."""
    x = np.linspace(math.pi, 50.0, 2001)
    if a > 0:
        want, rtol = gammaincc(a, x) * gamma(a), 1.5e-14
    else:
        want = (gammaincc(a + 1.0, x) * gamma(a + 1.0)
                - x ** a * np.exp(-x)) / a
        rtol = 2e-12
    np.testing.assert_allclose(_upper_gamma(a, x), want, rtol=rtol, atol=0.0)


def test_sieve_d3_known_values():
    # r_3(n) for small n: 0->1, 1->6, 2->12, 3->8, 4->6, 5->24, 6->24, 7->0
    counts = _sum_of_squares_counts(3, 7)
    np.testing.assert_array_equal(counts, [1, 6, 12, 8, 6, 24, 24, 0])


@pytest.mark.parametrize("lattice,scale", [
    (unit_lattice(2), 1.0),
    (scaled_lattice(2, 0.25), 0.25),
    (unit_lattice(3), 1.0),
])
def test_dual_shells_sieve_path_matches_points(lattice, scale):
    norms, counts = dual_shells(lattice, 5.0)
    pts = dual_points(lattice, 5.0)
    r = np.sort(np.linalg.norm(pts, axis=1))
    # same number of dual vectors, same multiset of norms
    assert int(counts.sum()) == len(r)
    expanded = np.repeat(norms, counts.astype(int))
    np.testing.assert_allclose(expanded, r, atol=1e-9)
    # shells of s Z^d live on sqrt(n)/s
    assert norms[0] == pytest.approx(1.0 / scale, rel=1e-12)


def test_dual_shells_hexagonal():
    # the dual of the unit hexagonal lattice is hexagonal with nearest
    # neighbours at 2/sqrt(3), six of them
    norms, counts = dual_shells(hexagonal_lattice(), 3.0)
    assert norms[0] == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)
    assert counts[0] == 6
    pts = dual_points(hexagonal_lattice(), 3.0)
    assert int(counts.sum()) == len(pts)


@pytest.mark.parametrize("lattice,xi_max", [
    (unit_lattice(2), 40.0),
    (unit_lattice(3), 20.0),
    (scaled_lattice(2, 0.25), 160.0),
    (hexagonal_lattice(), 12.0),
])
def test_dual_shells_lower_bound_is_filtered_full_list(lattice, xi_max):
    """dual_shells(L, xi, xi_min) is the full list filtered by norm >
    xi_min, bit for bit, including bounds on a shell norm and the
    geometric rungs of convergent_dual_sum."""
    for xi in (xi_max / 1.7, xi_max):
        full_norms, full_counts = dual_shells(lattice, xi)
        bounds = [0.0, xi / 1.7, xi / 2.0, float(full_norms[3]),
                  float(full_norms[-1]), xi]
        for xi_min in bounds:
            norms, counts = dual_shells(lattice, xi, xi_min)
            above = full_norms > xi_min
            assert np.array_equal(norms, full_norms[above])
            assert np.array_equal(counts, full_counts[above])
            assert counts.dtype == full_counts.dtype


def test_dual_shells_sorted_and_even():
    norms, counts = dual_shells(unit_lattice(2), 30.0)
    assert np.all(np.diff(norms) > 0)
    # inversion symmetry makes every multiplicity even
    assert np.all(counts % 2 == 0)


def test_enumerate_points_brute_force():
    lat = Lattice(((1.0, 0.4), (0.0, 0.9)))
    rng = np.random.default_rng(5)
    placement = random_placement(lat, 0.3, rng)
    box = Box((-1.0, -0.8), (1.2, 0.9))
    pts = enumerate_points(placement, box)
    # brute force over a generous integer range
    span = np.arange(-30, 31)
    k = np.stack(np.meshgrid(span, span, indexing="ij"),
                 axis=-1).reshape(-1, 2)
    raw = placement.b * (k @ lat.basis.T + placement.shift) \
        @ placement.rotation.T
    inside = raw[box.contains(raw)]
    assert len(pts) == len(inside)
    got = set(map(tuple, np.round(pts, 9)))
    want = set(map(tuple, np.round(inside, 9)))
    assert got == want


def test_box_half_open():
    box = centered_box((1.0, 1.0))
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, -0.2]])
    np.testing.assert_array_equal(box.contains(pts), [False, True, True])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_box_refuses_non_finite_bounds(bad):
    with pytest.raises(DomainError, match="finite"):
        Box((-bad, -1.0), (bad, 1.0))
    with pytest.raises(DomainError, match="finite"):
        Box((0.0, -1.0), (bad, 1.0))
    with pytest.raises(DomainError, match="finite"):
        centered_box([bad, 1.0])


def test_random_placement_lies_in_cell():
    lat = hexagonal_lattice()
    rng = np.random.default_rng(11)
    for _ in range(50):
        placement = random_placement(lat, 0.2, rng)
        u = np.linalg.solve(lat.basis, placement.shift)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        Q = placement.rotation
        np.testing.assert_allclose(Q @ Q.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_rotation_haar_uniformity(dim):
    """Chi-square test on the image of a fixed axis.

    For Haar rotations the image of e_1 is uniform on the sphere: in
    d=2 the angle is uniform, in d=3 the z-coordinate is uniform on
    [-1, 1].  40 bins, 40000 draws; the 1e-4 quantile of chi2(39) is
    about 85, so a sound sampler fails this with probability 1e-4.
    """
    rng = np.random.default_rng(123)
    n, bins = 40000, 40
    images = np.array([random_rotation(dim, rng)[:, 0]
                       for _ in range(n)])
    if dim == 2:
        stat = np.arctan2(images[:, 1], images[:, 0])
        edges = np.linspace(-math.pi, math.pi, bins + 1)
    else:
        stat = images[:, 2]
        edges = np.linspace(-1.0, 1.0, bins + 1)
    observed = np.histogram(stat, edges)[0]
    expected = n / bins
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < 85.0


def test_rotation_determinant_and_orthogonality_d3():
    rng = np.random.default_rng(7)
    for _ in range(20):
        Q = random_rotation(3, rng)
        np.testing.assert_allclose(Q @ Q.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


def test_placement_validation():
    lat = unit_lattice(2)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            LatticePlacement(lattice=lat, b=bad)
    with pytest.raises(DomainError):
        LatticePlacement(lattice=lat, b=0.1, shift=np.zeros(3))
    with pytest.raises(DomainError):
        dual_shells(lat, 0.0)
    for r_max, r_min in ((math.inf, 0.0), (math.nan, 0.0), (2.0, math.nan),
                         (2.0, -1.0)):
        with pytest.raises(DomainError):
            point_shells(lat, r_max, r_min)
