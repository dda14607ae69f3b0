"""Closed-form spectra, the grid eigensolver, and the hypergeometric solutions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from coxlab import radial
from coxlab.backgrounds import BackgroundSpec, QuantumNumbers, assemble_axial_ode
from coxlab.errors import (
    CutoffTooSmall,
    DomainError,
    GridTooCoarse,
    InvalidEta,
    NoBoundState,
    NonConvergence,
    ParameterError,
)
from coxlab.radial import (
    GridSpec,
    analytic_spectrum,
    asymptotic_amplitudes,
    flat_physical_energy,
    oscillator_frequency_shift,
    radial_hypergeometric_solution,
    solve_radial_eigen,
    spectrum_matched_ode,
)

FLAT = BackgroundSpec(geometry="flat", b=1.0)
LOB5 = BackgroundSpec(geometry="lobachevsky", b=5.0)
SPH1 = BackgroundSpec(geometry="spherical", b=1.0)


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def test_flat_ground_level():
    """b=1, eta=0, n=m=k=0: eps = eps' = 4b/2 = 2, E = 1."""
    e = analytic_spectrum(FLAT, QuantumNumbers(0, 0))
    assert_allclose(e.Lambda, 2.0)
    assert_allclose(e.epsilon, 2.0)
    assert_allclose(e.energy, 1.0)
    assert e.valid


def test_flat_ground_level_with_structure():
    """Same state at eta = 1/2: eps = 2 - 2*eta*b = 1."""
    spec = BackgroundSpec(geometry="flat", b=1.0, eta=0.5)
    e = analytic_spectrum(spec, QuantumNumbers(0, 0))
    assert_allclose(e.Lambda, 2.0)  # radial eigenvalue is eta-free
    assert_allclose(e.epsilon, 1.0)
    assert_allclose(e.energy, 1.0 / 1.5)


def test_flat_m_dependence():
    """Positive m shifts the ladder, m <= 0 is degenerate: L(n,m>0) = L(n+m,0)."""
    for n, m in ((0, 1), (1, 2), (2, 3)):
        up = analytic_spectrum(FLAT, QuantumNumbers(n, m)).Lambda
        assert_allclose(up, analytic_spectrum(FLAT, QuantumNumbers(n + m, 0)).Lambda)
    for m in (0, -1, -5):
        assert_allclose(analytic_spectrum(FLAT, QuantumNumbers(2, m)).Lambda, 10.0)


def test_flat_k_enters_epsilon_only():
    spec = BackgroundSpec(geometry="flat", b=1.0, eta=0.3)
    e = analytic_spectrum(spec, QuantumNumbers(1, 0, k=2.0))
    assert_allclose(e.Lambda, 6.0)
    assert_allclose(e.epsilon, 6.0 + (1 - 0.09) * 4.0 - 0.6)
    assert_allclose(e.energy, e.epsilon / (2 * (1 - 0.09)))


def test_lobachevsky_ladder_b5():
    """b=5, m=0: exactly five bound levels Lambda = 5, 13, 19, 23, 25."""
    got = [analytic_spectrum(LOB5, QuantumNumbers(n, 0)).Lambda for n in range(5)]
    assert_allclose(got, [5.0, 13.0, 19.0, 23.0, 25.0])
    with pytest.raises(NoBoundState):
        analytic_spectrum(LOB5, QuantumNumbers(5, 0))
    entry = analytic_spectrum(LOB5, QuantumNumbers(5, 0), strict=False)
    assert not entry.valid and "exceeds b" in entry.reason


def test_lobachevsky_m_condition():
    spec = BackgroundSpec(geometry="lobachevsky", b=1.0)
    entry = analytic_spectrum(spec, QuantumNumbers(0, 2), strict=False)
    assert not entry.valid and "2b" in entry.reason
    with pytest.raises(NoBoundState):
        analytic_spectrum(spec, QuantumNumbers(0, 2))


def test_spherical_examples_and_branches():
    """b=1: (n=0, m=1) -> Lambda = 5; (n=0, m=0) -> Lambda = 1."""
    e1 = analytic_spectrum(SPH1, QuantumNumbers(0, 1))
    assert_allclose(e1.Lambda, 5.0)
    assert e1.branch == "m>0"
    e0 = analytic_spectrum(SPH1, QuantumNumbers(0, 0))
    assert_allclose(e0.Lambda, 1.0)
    assert e0.branch == "-2b<=m<=0"
    e3 = analytic_spectrum(SPH1, QuantumNumbers(0, -3))
    assert e3.branch == "m<-2b"
    assert_allclose(e3.Lambda, 5.0)  # mirror of m = +1 at b = 1


def test_spherical_branches_continuous_at_minus_2b():
    """At m = -2b the central and negative-branch formulas agree."""
    b = 2.0
    spec = BackgroundSpec(geometry="spherical", b=b)
    for n in range(4):
        central = analytic_spectrum(spec, QuantumNumbers(n, -4)).Lambda
        ell = n + 4 + 0.5
        negative_form = -2 * b * ell + ell * ell - 0.25
        assert_allclose(central, negative_form, rtol=1e-14)


def test_spectrum_rejects_electric():
    with pytest.raises(ParameterError):
        analytic_spectrum(
            BackgroundSpec(geometry="flat", field="electric", nu=1.0), QuantumNumbers(0, 0)
        )


def test_spectrum_refuses_levels_that_overflow():
    # k**2 raised OverflowError above |k| ~ 1e154; b = 1e308 returned Lambda = inf
    with pytest.raises(DomainError, match="epsilon"):
        analytic_spectrum(BackgroundSpec(geometry="flat", b=1.0), QuantumNumbers(0, 0, k=1e300))
    for geometry in ("flat", "lobachevsky", "spherical"):
        with pytest.raises(DomainError, match="Lambda"):
            analytic_spectrum(BackgroundSpec(geometry=geometry, b=1e308), QuantumNumbers(1, 0))
    big = analytic_spectrum(BackgroundSpec(geometry="flat", b=1.0), QuantumNumbers(0, 0, k=1e150))
    assert big.epsilon == 2.0 + 1e150 * 1e150


def test_flat_physical_energy_refuses_overflow():
    # k**2 raised OverflowError above |k| ~ 1e154
    spec = BackgroundSpec(geometry="flat", b=1.0)
    with pytest.raises(DomainError, match="energy"):
        flat_physical_energy(spec, QuantumNumbers(0, 0, k=1e300), 2.0)
    structured = BackgroundSpec(geometry="flat", b=1.0, eta=0.999)
    with pytest.raises(DomainError, match="energy"):  # eps' / (2 (1 - eta^2)) overflows
        flat_physical_energy(structured, QuantumNumbers(0, 0), 1e308)
    assert flat_physical_energy(spec, QuantumNumbers(0, 0, k=1e150), 2.0) == 1e150 * 1e150 / 2.0 + 1.0


@given(n=st.integers(0, 20), m=st.integers(-10, 10))
@settings(max_examples=60, deadline=None)
def test_flat_ladder_spacing_is_4b(n, m):
    b = 0.7
    spec = BackgroundSpec(geometry="flat", b=b)
    lo = analytic_spectrum(spec, QuantumNumbers(n, m)).Lambda
    hi = analytic_spectrum(spec, QuantumNumbers(n + 1, m)).Lambda
    assert_allclose(hi - lo, 4 * b, rtol=1e-13)


def test_oscillator_frequency_shift():
    assert_allclose(oscillator_frequency_shift(1.0, 0.0), 1.0)
    assert_allclose(oscillator_frequency_shift(1.0, 0.5), 4.0 / 3.0)
    assert_allclose(oscillator_frequency_shift(2.0, 0.25, M=2.0), 4.0 / 3.0)
    with pytest.raises(InvalidEta):
        oscillator_frequency_shift(1.0, 1.0)


# ---------------------------------------------------------------------------
# eigensolver cross-checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
def test_solver_matches_flat_spectrum(m):
    ode = spectrum_matched_ode(FLAT, QuantumNumbers(0, m))
    res = solve_radial_eigen(ode, 4, GridSpec(points=3000, r_max=8.5))
    exact = [analytic_spectrum(FLAT, QuantumNumbers(n, m)).Lambda for n in range(4)]
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-6


@pytest.mark.parametrize("m,count", [(0, 5), (1, 4), (-1, 5), (2, 3)])
def test_solver_matches_lobachevsky_spectrum(m, count):
    ode = spectrum_matched_ode(LOB5, QuantumNumbers(0, m))
    res = solve_radial_eigen(ode, count, GridSpec(points=12000, r_max=30.0))
    exact = [analytic_spectrum(LOB5, QuantumNumbers(n, m)).Lambda for n in range(count)]
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-6 * max(map(abs, exact))


@pytest.mark.parametrize("m", [0, 1, -1, -3])
def test_solver_matches_spherical_spectrum(m):
    ode = spectrum_matched_ode(SPH1, QuantumNumbers(0, m))
    res = solve_radial_eigen(ode, 3, GridSpec(points=2000))
    exact = [analytic_spectrum(SPH1, QuantumNumbers(n, m)).Lambda for n in range(3)]
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-6 * max(map(abs, exact))


def test_solver_refuses_matrix_that_overflows():
    # q0 ~ b^2 overflowed into numpy's "array must not contain infs or NaNs"
    for geometry, r_max in (("spherical", None), ("lobachevsky", 5.0)):
        ode = spectrum_matched_ode(BackgroundSpec(geometry=geometry, b=1e300), QuantumNumbers(0, 0))
        with pytest.raises(DomainError, match="overflows"):
            solve_radial_eigen(ode, 1, GridSpec(points=100, r_max=r_max))


def test_spherical_flat_limit_second_order():
    """Fixed physical field B = 0.05: Lambda/rho^2 -> flat eps' with 1/rho^2 error."""
    flat_eps = 0.15  # 4 (B/2) (0 + (1+1+1)/2), m = 1, n = 0
    errs = []
    for rho in (10.0, 20.0, 40.0):
        spec = BackgroundSpec(geometry="spherical", b=0.05 * rho**2, rho=rho)
        ode = spectrum_matched_ode(spec, QuantumNumbers(0, 1))
        res = solve_radial_eigen(ode, 1, GridSpec(points=3000))
        errs.append(res.eigenvalues[0] / rho**2 - flat_eps)
    assert errs[0] > 0
    assert_allclose(errs[0] / errs[1], 4.0, rtol=0.2)
    assert_allclose(errs[1] / errs[2], 4.0, rtol=0.2)


def test_structure_rescales_level_spacing():
    """eta = 1/2 stretches the energy spacing by 1/(1 - eta^2) = 4/3.

    The radial eigenvalues are eta-free; eta enters through the
    eps' -> E conversion, so one numerical solve feeds both cases.
    """
    ode = spectrum_matched_ode(FLAT, QuantumNumbers(0, 0))
    res = solve_radial_eigen(ode, 2, GridSpec(points=3000, r_max=8.5))
    spec0 = BackgroundSpec(geometry="flat", b=1.0, eta=0.0)
    spec5 = BackgroundSpec(geometry="flat", b=1.0, eta=0.5)
    qn = QuantumNumbers(0, 0)
    de0 = flat_physical_energy(spec0, qn, res.eigenvalues[1]) - flat_physical_energy(
        spec0, qn, res.eigenvalues[0]
    )
    de5 = flat_physical_energy(spec5, qn, res.eigenvalues[1]) - flat_physical_energy(
        spec5, qn, res.eigenvalues[0]
    )
    assert_allclose(de5 / de0, 4.0 / 3.0, rtol=1e-6)


def test_eigenfunctions_normalized_and_nodeless_ground():
    ode = spectrum_matched_ode(LOB5, QuantumNumbers(0, 0))
    res = solve_radial_eigen(ode, 2, GridSpec(points=12000, r_max=30.0))
    w = np.sinh(res.grid)
    h = res.grid[1] - res.grid[0]
    norms = np.sum(w * res.eigenfunctions**2, axis=1) * h
    assert_allclose(norms, [1.0, 1.0], rtol=1e-12)
    ground = res.eigenfunctions[0]
    body = ground[np.abs(ground) > 1e-6 * np.max(np.abs(ground))]
    assert np.all(body > 0) or np.all(body < 0)
    cross = np.sum(w * res.eigenfunctions[0] * res.eigenfunctions[1]) * h
    assert abs(cross) < 1e-10


def test_solver_error_modes():
    ode = spectrum_matched_ode(FLAT, QuantumNumbers(0, 0))
    with pytest.raises(ParameterError):  # missing cutoff on a non-compact section
        solve_radial_eigen(ode, 2, GridSpec(points=3000))
    with pytest.raises(GridTooCoarse):
        solve_radial_eigen(ode, 2, GridSpec(points=16, r_max=8.5))
    with pytest.raises(CutoffTooSmall):  # b=0: no bound states, box modes hug the wall
        free = spectrum_matched_ode(
            BackgroundSpec(geometry="lobachevsky", b=0.0), QuantumNumbers(0, 0)
        )
        solve_radial_eigen(free, 2, GridSpec(points=2000, r_max=20.0))
    with pytest.raises(ParameterError):  # axial records have no weight
        axial = assemble_axial_ode(LOB5, 5.0)
        solve_radial_eigen(axial, 1, GridSpec(points=100, r_max=5.0))
    with pytest.raises(ParameterError):
        solve_radial_eigen(ode, 0, GridSpec(points=100, r_max=8.5))
    with pytest.raises(ParameterError):
        GridSpec(points=8)
    with pytest.raises(ParameterError):
        GridSpec(points=100, r_max=-1.0)
    with pytest.raises(ParameterError):
        GridSpec(points=100, tol=0.0)
    for points in (200.5, 200.0, "200", None):  # 200.5 leaked a TypeError from slicing
        with pytest.raises(ParameterError, match="integer"):
            GridSpec(points=points)


# ---------------------------------------------------------------------------
# refined eigensolver: certificate, fallback and agreement with bisection
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
WORKLOAD_CELLS = (400, 800, 1200, 1600, 3200)


def _bound_levels(b, m):
    """Lowest Lobachevsky levels (at most 3) bound by at least 1/2 below the
    edge, so that a cutoff of 30 holds their tails."""
    spec = BackgroundSpec(geometry="lobachevsky", b=b)
    for n in range(3):
        t = (m + abs(m)) / 2 + n + 0.5
        if not (analytic_spectrum(spec, QuantumNumbers(n, m), strict=False).valid and t <= b - 0.5):
            return n
    return 3


def _cases(seed, total, cells):
    """Seeded requests (spec, m, levels, cells, r_max) shaped like the
    benchmark's radial sweep, cycling through the three geometries.  Spheres
    keep |m + 2b| >= 0.75, clear of the slowly converging antipode exponents."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < total:
        geometry = ("flat", "lobachevsky", "spherical")[len(out) % 3]
        n_cells, m = int(cells(rng)), int(rng.integers(-3, 4))
        levels, r_max = 3, None
        if geometry == "flat":
            b = float(rng.uniform(0.5, 2.5))
            r_max = math.sqrt(40.0 / b)  # |R|^2 r ~ exp(-b r^2): tail below 1e-8
        elif geometry == "spherical":
            b = float(rng.uniform(0.5, 4.0))
            if abs(m + 2.0 * b) < 0.75:
                continue
        else:
            b, r_max = float(rng.uniform(2.0, 7.0)), 30.0
            levels = _bound_levels(b, m)
            if levels == 0:
                continue
        out.append((BackgroundSpec(geometry=geometry, b=b), m, levels, n_cells, r_max))
    return out


def _bisected(d, e, count, vectors=False):
    return eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1), eigvals_only=not vectors)


def _t_norm(d, e):
    return float(np.max(np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0])))


def _grids(spec, m, cells, r_max, seeded=True):
    ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
    sizes = (cells, 2 * cells, radial.SEED_CELLS) if seeded else (cells, 2 * cells)
    return radial._tridiags(ode, sizes, r_max or math.pi)


@pytest.mark.parametrize(
    "spec,m,levels,cells,r_max", _cases(11, 30, lambda rng: rng.integers(100, 3201))
)
def test_levels_lie_within_their_own_estimates(spec, m, levels, cells, r_max):
    ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
    res = solve_radial_eigen(ode, levels, GridSpec(points=cells, r_max=r_max, tol=0.5))
    exact = [analytic_spectrum(spec, QuantumNumbers(n, m)).Lambda for n in range(levels)]
    assert np.all(np.abs(res.eigenvalues - exact) <= res.error_estimates)


@pytest.mark.parametrize(
    "spec,m,levels,cells,r_max", _cases(12, 12, lambda rng: rng.choice(WORKLOAD_CELLS))
)
def test_refined_pairs_match_bisection(spec, m, levels, cells, r_max):
    grids = _grids(spec, m, cells, r_max)
    vals1, vals2, vecs = radial._lowest_pairs(grids, levels)
    for grid, vals in zip(grids, (vals1, vals2)):
        slack = 4 * EPS * _t_norm(grid.d, grid.e)
        assert np.max(np.abs(vals - _bisected(grid.d, grid.e, levels))) <= slack
    _, stein = _bisected(grids[1].d, grids[1].e, levels, vectors=True)
    assert_allclose(vecs, stein.T, rtol=0, atol=1e-8)  # stein's sign, too


@pytest.mark.parametrize("spec,m,levels,cells,r_max", _cases(14, 6, lambda rng: 800))
def test_eigenfunctions_signed_unit_and_orthogonal(spec, m, levels, cells, r_max):
    ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
    res = solve_radial_eigen(ode, levels, GridSpec(points=cells, r_max=r_max, tol=0.5))
    w = ode.weight(res.grid)
    h = res.grid[1] - res.grid[0]
    gram = (res.eigenfunctions * w) @ res.eigenfunctions.T * h
    assert_allclose(np.diag(gram), 1.0, rtol=1e-12)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-10
    liouville = res.eigenfunctions * np.sqrt(w)  # the solver's vectors, up to scale
    peaks = np.argmax(np.abs(liouville), axis=1)
    assert np.all(liouville[np.arange(levels), peaks] > 0)


def test_certificate_refuses_pairs_that_miss_a_level():
    grid, = radial._tridiags(spectrum_matched_ode(SPH1, QuantumNumbers(0, 1)), (400,), math.pi)
    d, e = grid.d, grid.e
    vals, vecs = _bisected(d, e, 4, vectors=True)
    rows = vecs.T
    refined = radial._refine(grid, vals[:3], rows[:3])
    assert refined is not None and np.max(np.abs(refined[0] - vals[:3])) <= 4 * EPS * _t_norm(d, e)
    assert radial._refine(grid, vals[1:], rows[1:]) is None  # skips level 0
    # level 0 twice and level 1 missed: the Sturm count up to level 2 alone would pass
    assert radial._refine(grid, vals[[0, 0, 2]], rows[[0, 0, 2]]) is None


def test_failed_certificate_returns_the_bisection_answer(monkeypatch):
    ode = spectrum_matched_ode(SPH1, QuantumNumbers(0, 1))
    grid = GridSpec(points=800, tol=1e-3)
    with monkeypatch.context() as patched:
        patched.setattr(radial, "_refine", lambda *args: None)
        want = solve_radial_eigen(ode, 3, grid)
    sizes = []
    bisect = radial._bisect

    def wrong_seed(d, e, count, *args, **kw):
        sizes.append(len(d))
        if len(d) != radial.SEED_CELLS:
            return bisect(d, e, count, *args, **kw)
        vals, vecs = bisect(d, e, count + 1, *args, **kw)  # seeds levels 1..3 in place of 0..2
        return vals[1:], vecs[1:]

    monkeypatch.setattr(radial, "_bisect", wrong_seed)
    got = solve_radial_eigen(ode, 3, grid)
    assert sizes == [radial.SEED_CELLS, 800, 1600]
    for name in ("eigenvalues", "error_estimates", "eigenfunctions", "grid"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("cells,count", [(100, 3), (128, 126), (130, 126), (200, 198)])
def test_small_grids_and_many_levels_match_bisection(cells, count):
    ode = spectrum_matched_ode(SPH1, QuantumNumbers(0, 1))
    res = solve_radial_eigen(ode, count, GridSpec(points=cells, tol=1e6))
    coarse, fine = _grids(SPH1, 1, cells, None, seeded=False)
    vals1, vals2 = _bisected(coarse.d, coarse.e, count), _bisected(fine.d, fine.e, count)
    slack = 4 * EPS * (_t_norm(coarse.d, coarse.e) + _t_norm(fine.d, fine.e))
    assert np.max(np.abs(res.eigenvalues - (vals2 + (vals2 - vals1) / 3.0))) <= slack


def test_refusals_above_the_seed_grid():
    huge = spectrum_matched_ode(BackgroundSpec(geometry="spherical", b=1e300), QuantumNumbers(0, 0))
    with pytest.raises(DomainError, match="on 400 cells"):
        solve_radial_eigen(huge, 1, GridSpec(points=400))
    flat = spectrum_matched_ode(FLAT, QuantumNumbers(0, 0))
    with pytest.raises(GridTooCoarse):
        solve_radial_eigen(flat, 2, GridSpec(points=200, r_max=8.5, tol=1e-9))
    free = spectrum_matched_ode(BackgroundSpec(geometry="lobachevsky", b=0.0), QuantumNumbers(0, 0))
    with pytest.raises(CutoffTooSmall):  # box modes hug the wall
        solve_radial_eigen(free, 2, GridSpec(points=400, r_max=20.0))


def test_bisection_runs_only_on_the_seed_grid(monkeypatch):
    """Workload-shaped requests take the refined path: a change that
    silently fell back to bisection on every request would fail here."""
    sizes = set()
    bisect = radial._bisect

    def recording(d, e, *args, **kw):
        sizes.add(len(d))
        return bisect(d, e, *args, **kw)

    monkeypatch.setattr(radial, "_bisect", recording)
    for spec, m, levels, cells, r_max in _cases(13, 45, lambda rng: rng.choice(WORKLOAD_CELLS)):
        ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
        solve_radial_eigen(ode, levels, GridSpec(points=cells, r_max=r_max, tol=5e-3))
    assert sizes == {radial.SEED_CELLS}


@pytest.mark.parametrize("spec,m,cells,r_max", [
    (FLAT, 2, 400, 6.0), (LOB5, -1, 1600, 30.0), (SPH1, 1, 256, None),  # 256: seed cut from coarse
])
def test_shared_assembly_equals_standalone_grids(spec, m, cells, r_max):
    shared = _grids(spec, m, cells, r_max)
    ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
    for n, grid in zip((cells, 2 * cells, radial.SEED_CELLS), shared):
        (alone,) = radial._tridiags(ode, (n,), r_max or math.pi)
        assert (grid.h, grid.norm) == (alone.h, alone.norm)
        for field in ("centers", "w", "d", "e"):
            assert np.array_equal(getattr(grid, field), getattr(alone, field))


def test_fine_grid_starts_near_its_levels(monkeypatch):
    """Richardson-predicted shifts and interpolated coarse vectors leave the
    fine grid close to one solve per level; the bare coarse values, with
    each coarse vector entry repeated, take 1.65 here."""
    sizes = []
    solve = radial.dgtsv

    def recording(dl, d, *args, **kw):
        sizes.append(len(d))
        return solve(dl, d, *args, **kw)

    monkeypatch.setattr(radial, "dgtsv", recording)
    fine = levels = 0
    for spec, m, count, cells, r_max in _cases(13, 45, lambda rng: rng.choice(WORKLOAD_CELLS)):
        sizes.clear()
        ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
        solve_radial_eigen(ode, count, GridSpec(points=cells, r_max=r_max, tol=5e-3))
        fine += sizes.count(2 * cells)
        levels += count
    assert fine / levels <= 1.25


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_cutoffs_are_refused_without_warnings():
    ode = spectrum_matched_ode(FLAT, QuantumNumbers(0, 0))
    with pytest.raises(DomainError, match="overflows"):  # h^2 underflows: divide-by-zero warnings
        solve_radial_eigen(ode, 1, GridSpec(points=400, r_max=1e-300))
    with pytest.raises(NonConvergence, match="LAPACK info"):  # squared entries overflow in stebz
        solve_radial_eigen(ode, 1, GridSpec(points=400, r_max=1e-100))


# ---------------------------------------------------------------------------
# hypergeometric closed form (x = (1 + ch r)/2)
# ---------------------------------------------------------------------------

def _integrate_x_ode(m, L, x0, R0, d0, x_eval):
    def rhs(x, y):
        R, dR = y
        d2 = -((2 * x - 1) * dR + (L - m * m / (4 * x * (x - 1))) * R) / (x * (x - 1))
        return [dR, d2]

    sol = solve_ivp(
        rhs, (x0, float(np.max(x_eval))), [R0, d0], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )
    return np.array([sol.sol(x)[0] for x in np.atleast_1d(x_eval)])


def test_hypergeometric_solution_axis_values():
    assert radial_hypergeometric_solution(0, 2.0, 1.0) == 1.0 + 0.0j
    assert abs(radial_hypergeometric_solution(1, 2.0, 1.0)) == 0.0
    with pytest.raises(ParameterError):
        radial_hypergeometric_solution(0, 0.25, 2.0)
    with pytest.raises(DomainError):
        radial_hypergeometric_solution(0, 2.0, 0.5)


def test_hypergeometric_solution_constant_phase():
    """Odd |m| values carry the constant principal-branch phase i^|m|."""
    v = radial_hypergeometric_solution(1, 2.0, 3.0)
    assert abs(v.real) < 1e-13 * abs(v)
    w = radial_hypergeometric_solution(2, 3.0, 2.5)
    assert abs(w.imag) < 1e-13 * abs(w)


@pytest.mark.parametrize("m,L", [(0, 1.0), (0, 2.0), (1, 2.0), (2, 3.0)])
def test_hypergeometric_solution_solves_the_equation(m, L):
    """Check against high-order integration of the x-form of the equation,
    x(x-1) R'' + (2x-1) R' + (L - m^2/(4x(x-1)))R = 0, seeded from the
    closed form at x0 = 1.5 (slope by fourth-order finite difference)."""
    x0, h = 1.5, 1e-5
    f = lambda x: radial_hypergeometric_solution(m, L, x)
    R0 = f(x0)
    d0 = (8 * (f(x0 + h) - f(x0 - h)) - (f(x0 + 2 * h) - f(x0 - 2 * h))) / (12 * h)
    xe = np.array([2.0, 3.5, 5.0, 7.0])
    got = _integrate_x_ode(m, L, x0, R0, d0, xe)
    want = np.array([f(x) for x in xe])
    assert np.max(np.abs(got - want)) < 1e-8


def test_hypergeometric_matches_r_form_normalization():
    """Integrating the r-form equation from R(0) = 1 lands on the closed form."""
    L = 2.0

    def rhs(r, y):
        R, dR = y
        return [dR, -(np.cosh(r) / np.sinh(r)) * dR - L * R]

    r0 = 1e-3
    sol = solve_ivp(
        rhs, (r0, 6.0), [1 - L * r0 * r0 / 4, -L * r0 / 2], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )
    for r in (1.0, 2.5, 4.0, 6.0):
        x = (1 + math.cosh(r)) / 2
        assert_allclose(
            sol.sol(r)[0], radial_hypergeometric_solution(0, L, x).real, atol=2e-10
        )


@pytest.mark.parametrize(
    "m,L", [(0, 0.5), (0, 2.0), (1, 1.0), (2, 3.7), (3, 10.0)]
)
def test_asymptotic_amplitudes_conjugate(m, L):
    c3, c4 = asymptotic_amplitudes(m, L)
    assert abs(abs(c3) - abs(c4)) < 1e-10 * abs(c3)
    assert_allclose(c4, np.conj(c3), rtol=1e-12)


def test_asymptotic_envelope():
    """Envelope of |x^(1/2) R| over 20 <= r <= 30 equals 2|c3| within 2%."""
    L = 2.0

    def rhs(r, y):
        R, dR = y
        return [dR, -(np.cosh(r) / np.sinh(r)) * dR - L * R]

    r0 = 1e-3
    sol = solve_ivp(
        rhs, (r0, 30.0), [1 - L * r0 * r0 / 4, -L * r0 / 2], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )
    rs = np.linspace(20.0, 30.0, 3000)
    xs = (1 + np.cosh(rs)) / 2
    vals = np.abs(np.sqrt(xs) * np.array([sol.sol(r)[0] for r in rs]))
    c3, _ = asymptotic_amplitudes(0, L)
    assert_allclose(vals.max(), 2 * abs(c3), rtol=0.02)
