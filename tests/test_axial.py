"""Effective axial potentials, Airy-type branches, integration, local forms."""

from __future__ import annotations

import ast
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from coxlab.axial import (
    _RKF_A,
    _RKF_B4,
    _RKF_BERR,
    _RKF_C,
    AxialSolution,
    _pole_locations,
    _scalar_rows,
    airy_pair,
    effective_force,
    effective_force_extrema,
    effective_potential,
    integrate_axial,
    potential_profile,
    singular_local_form,
)
from coxlab.backgrounds import (
    BackgroundSpec,
    QuantumNumbers,
    SeparatedODE,
    _SECTIONS,
    assemble_axial_ode,
    assemble_radial_ode,
)
from coxlab.errors import DomainError, ParameterError, PoleError, StepFailure

import _axial_reference as per_geometry

LOB = BackgroundSpec(geometry="lobachevsky", b=1.0, gamma=0.2)
SPH = BackgroundSpec(geometry="spherical", b=1.0, gamma=0.25)


# ---------------------------------------------------------------------------
# effective potential and force
# ---------------------------------------------------------------------------

def test_potential_values_lobachevsky():
    """U(0) = -(b g - L)/(1 - g^2), U -> 0 far from the slice z = 0."""
    L = 3.0
    assert_allclose(effective_potential(LOB, L, 0.0), -(0.2 - 3.0) / (1 - 0.04))
    assert abs(effective_potential(LOB, L, 20.0)) < 1e-15
    zs = np.array([-1.0, 0.5, 2.0])
    assert_allclose(
        effective_potential(LOB, L, zs),
        -(0.2 - L * np.cosh(zs) ** 2) / (np.cosh(zs) ** 4 - 0.04),
        rtol=1e-14,
    )


def test_potential_spherical_endpoints():
    """The endpoints are regular for gamma != 0: U(+-pi/2) = -b/gamma."""
    assert_allclose(effective_potential(SPH, 2.0, math.pi / 2), -4.0)
    assert_allclose(effective_potential(SPH, 2.0, -math.pi / 2), -4.0)
    near = effective_potential(SPH, 2.0, math.pi / 2 - 1e-3)
    assert abs(near - (-4.0)) < 0.01 * 4.0


def test_potential_gamma_zero_reduces_and_diverges():
    spec = BackgroundSpec(geometry="spherical", b=1.0, gamma=0.0)
    assert_allclose(effective_potential(spec, 3.0, 1.0), 3.0 / math.cos(1.0) ** 2)
    with pytest.raises(PoleError):
        effective_potential(spec, 3.0, math.pi / 2)


def test_potential_interior_pole_and_domain():
    zp = math.acos(math.sqrt(0.25))  # cos^2 z = |gamma| on the sphere
    with pytest.raises(PoleError):
        effective_potential(SPH, 2.0, zp)
    with pytest.raises(DomainError):
        effective_potential(SPH, 2.0, 2.0)
    wide = BackgroundSpec(geometry="lobachevsky", b=1.0, gamma=1.2)
    with pytest.raises(PoleError):
        effective_potential(wide, 2.0, math.acosh(math.sqrt(1.2)))
    with pytest.raises(ParameterError):
        effective_potential(BackgroundSpec(geometry="flat", b=1.0), 2.0, 0.0)
    with pytest.raises(ParameterError):
        effective_potential(
            BackgroundSpec(geometry="lobachevsky", field="electric", nu=1.0), 2.0, 0.0
        )


def test_force_is_minus_gradient():
    """Closed-form F_z against a central difference of U, 50 random configs."""
    rng = np.random.default_rng(11)
    h = 1e-4
    checked = 0
    while checked < 50:
        geo = "lobachevsky" if rng.random() < 0.5 else "spherical"
        g = rng.uniform(-0.9, 0.9)
        b = rng.uniform(-3.0, 3.0)
        L = rng.uniform(-5.0, 5.0)
        if abs(L) < 0.1:
            continue
        z = rng.uniform(-1.2, 1.2)
        spec = BackgroundSpec(geometry=geo, b=b, gamma=g)
        c2 = math.cos(z) ** 2 if geo == "spherical" else math.cosh(z) ** 2
        if abs(c2 * c2 - g * g) < 0.05:  # keep the stencil off the pole
            continue
        num = -(
            effective_potential(spec, L, z + h) - effective_potential(spec, L, z - h)
        ) / (2 * h)
        F = effective_force(spec, L, z)
        assert_allclose(F, num, rtol=2e-6, atol=2e-6)
        checked += 1


def test_force_parity():
    zs = np.linspace(0.1, 1.2, 7)
    assert_allclose(effective_force(LOB, 2.5, -zs), -effective_force(LOB, 2.5, zs), rtol=1e-13)
    assert_allclose(
        effective_potential(LOB, 2.5, -zs), effective_potential(LOB, 2.5, zs), rtol=1e-13
    )


def test_lobachevsky_profile_in_sech_form():
    """The sech^2/tanh forms equal the cosh forms where those are finite and
    stay finite beyond |z| ~ 178, where ch^4 z overflows (U and F were NaN)."""
    wide = BackgroundSpec(geometry="lobachevsky", b=1.0, gamma=1.2)
    L = 2.5
    zs = np.array([-2.5, -0.3, 0.0, 0.8, 3.0])
    ch, sh = np.cosh(zs), np.sinh(zs)
    for spec in (LOB, wide):
        b, g = spec.b, spec.gamma
        den = ch**4 - g * g
        assert_allclose(effective_potential(spec, L, zs), -(b * g - L * ch**2) / den, rtol=1e-14)
        F = 2 * ch * sh * (L * ch**4 - 2 * b * g * ch**2 + g * g * L) / den**2
        assert_allclose(effective_force(spec, L, zs), F, rtol=1e-13, atol=1e-15)
    far = np.array([-1e4, -800.0, -200.0, 200.0, 800.0, 1e4])
    for spec in (LOB, wide):
        U, F = effective_potential(spec, L, far), effective_force(spec, L, far)
        assert np.all(np.abs(U) < 1e-150) and np.all(np.abs(F) < 1e-150)
    prof = potential_profile(LOB, L, -800.0, 800.0, 9)
    assert np.all(np.isfinite(prof.U)) and np.all(np.isfinite(prof.Fz))


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_unique_equilibrium_when_lambda_dominates():
    """Lambda^2 > b^2: negative discriminant, z = 0 is the only equilibrium."""
    ext = effective_force_extrema(LOB, 2.0)
    assert ext.discriminant < 0
    assert len(ext.equilibria) == 1 and ext.equilibria[0].z == 0.0

    rng = np.random.default_rng(23)
    for _ in range(50):
        geo = "lobachevsky" if rng.random() < 0.5 else "spherical"
        b = rng.uniform(-2.0, 2.0)
        L = (abs(b) + 0.1 + rng.uniform(0.0, 3.0)) * (1 if rng.random() < 0.5 else -1)
        g = rng.uniform(-0.9, 0.9)
        spec = BackgroundSpec(geometry=geo, b=b, gamma=g)
        ext = effective_force_extrema(spec, L)
        assert len(ext.equilibria) == 1
        assert ext.equilibria[0].z == 0.0


def test_lobachevsky_off_axis_equilibria():
    """L=1, b=2, g=0.3: ch^2 z = 0.6 +- 0.3 sqrt(3); only the + root is admissible."""
    spec = BackgroundSpec(geometry="lobachevsky", b=2.0, gamma=0.3)
    ext = effective_force_extrema(spec, 1.0)
    assert_allclose(ext.roots, (0.6 + 0.3 * math.sqrt(3),), rtol=1e-12)
    zs = sorted(e.z for e in ext.equilibria)
    z_star = math.acosh(math.sqrt(0.6 + 0.3 * math.sqrt(3)))
    assert_allclose(zs, [-z_star, 0.0, z_star], atol=1e-12)
    kinds = [e.kind for e in sorted(ext.equilibria, key=lambda e: e.z)]
    assert kinds == ["maximum", "minimum", "maximum"]
    # corroborate with a sign scan of the force off the origin
    grid = np.linspace(0.02, 2.0, 400)
    F = effective_force(spec, 1.0, grid)
    crossings = np.sum(np.sign(F[1:]) != np.sign(F[:-1]))
    assert crossings == 1


def test_spherical_off_axis_equilibria():
    spec = BackgroundSpec(geometry="spherical", b=-2.0, gamma=0.3)
    ext = effective_force_extrema(spec, 1.0)
    assert len(ext.roots) == 1
    root = ext.roots[0]
    assert_allclose(root, 0.6 - 0.3 * math.sqrt(3), rtol=1e-12)
    z_star = math.acos(math.sqrt(root))
    assert any(abs(e.z - z_star) < 1e-12 for e in ext.equilibria)
    grid = np.linspace(0.02, z_star + 0.2, 300)
    F = effective_force(spec, 1.0, grid)
    assert np.sum(np.sign(F[1:]) != np.sign(F[:-1])) == 1


def test_extrema_parameter_errors():
    with pytest.raises(ParameterError):
        effective_force_extrema(LOB, 0.0)


def test_extrema_refuse_a_quadratic_that_overflows():
    # Lambda^2 underflowing to 0 raised ZeroDivisionError; b^2 overflowing
    # to inf returned equilibria at z = +-inf.  What overflows now is
    # base = (b/L) g itself, or on Lobachevsky the root base + sqrt(base^2 - g^2)
    for geometry in ("lobachevsky", "spherical"):
        for b, g, L in ((1e300, 0.1, 1e-200), (1e308, 1.0, 0.55), (-1e200, 0.1, 1e-200)):
            spec = BackgroundSpec(geometry=geometry, b=b, gamma=g)
            with pytest.raises(DomainError, match="stationarity quadratic overflows"):
                effective_force_extrema(spec, L)
        # gamma = 0: the quadratic's roots are 0, so z = 0 stays the answer
        for b, L in ((10.0, 1e-200), (1e300, 2.0)):
            ext = effective_force_extrema(BackgroundSpec(geometry=geometry, b=b), L)
            assert [e.z for e in ext.equilibria] == [0.0] and ext.roots == ()
    # base = 1e308 is finite; the Lobachevsky root base + sqrt(base^2 - g^2) is not
    with pytest.raises(DomainError, match="stationarity quadratic overflows"):
        effective_force_extrema(BackgroundSpec(geometry="lobachevsky", b=1e308, gamma=1.0), 1.0)


def _mp_roots(geometry, b, g, L):
    """The admissible roots of the stationarity quadratic in 50 digits."""
    with mpmath.workdps(50):
        base = mpmath.mpf(b) / L * g
        disc = base * base - mpmath.mpf(g) ** 2
        if disc < 0:
            return []
        if geometry == "lobachevsky":
            cands = (base + mpmath.sqrt(disc), base - mpmath.sqrt(disc))
            return [float(c) for c in cands if c >= 1 + 1e-12]
        cands = (-base + mpmath.sqrt(disc), -base - mpmath.sqrt(disc))
        return [float(c) for c in cands if 1e-12 < c < 1 - 1e-12]


def test_extrema_answer_where_only_b_squared_overflows():
    """b^2 beyond double or Lambda^2 below it, with finite roots: these were
    refused, and the root is now taken without squaring b."""
    spec = BackgroundSpec(geometry="lobachevsky", b=1e200, gamma=0.1)
    ext = effective_force_extrema(spec, 1.0)
    assert ext.discriminant == math.inf
    assert_allclose(ext.roots, [2e199], rtol=1e-15)
    z_star = math.acosh(math.sqrt(2e199))
    assert 230.1 < z_star < 230.2
    assert [e.z for e in ext.equilibria] == [-z_star, 0.0, z_star]
    assert [e.kind for e in ext.equilibria] == ["maximum", "minimum", "maximum"]
    F = effective_force(spec, 1.0, np.array([z_star - 0.01, z_star + 0.01]))
    assert F[0] < 0 < F[1]  # U has its maximum there
    for geometry in ("lobachevsky", "spherical"):
        for b, g, L in ((10.0, 0.9, 1e-200), (1e300, 0.1, 2.0), (1e200, 0.1, -1.0),
                        (-1e250, 0.7, 3.0), (0.0, 0.5, 1e-200)):
            ext = effective_force_extrema(BackgroundSpec(geometry=geometry, b=b, gamma=g), L)
            assert_allclose(ext.roots, _mp_roots(geometry, b, g, L), rtol=1e-14)
            assert len(ext.equilibria) == 1 + 2 * len(ext.roots)


def _mp_force(geometry, b, g, L, z):
    """The documented closed form of F in 40 digits."""
    with mpmath.workdps(40):
        b, g, L, z = (mpmath.mpf(v) for v in (b, g, L, z))
        if geometry == "lobachevsky":
            c, s = mpmath.cosh(z), mpmath.sinh(z)
            return 2 * c * s * (L * c**4 - 2 * b * g * c**2 + g * g * L) / (c**4 - g * g) ** 2
        c, s = mpmath.cos(z), mpmath.sin(z)
        return -2 * c * s * (L * c**4 + 2 * b * g * c**2 + g * g * L) / (c**4 - g * g) ** 2


@pytest.mark.parametrize("geometry, g", [("lobachevsky", 0.9), ("spherical", 0.5)])
def test_force_answers_wherever_the_documented_force_is_finite(geometry, g):
    """b = 1e308: 2 b g s overflowed and F was refused, although finite."""
    b, L = 1e308, 1.0
    spec = BackgroundSpec(geometry=geometry, b=b, gamma=g)
    answered = refused = 0
    for z in np.linspace(-1.5, 1.5, 61):
        want = _mp_force(geometry, b, g, L, z)
        if abs(want) <= mpmath.mpf("1.7e308"):
            assert_allclose(effective_force(spec, L, z), float(want), rtol=1e-12)
            answered += 1
        elif abs(want) >= mpmath.mpf("1.8e308"):
            with pytest.raises(DomainError, match="effective force overflows"):
                effective_force(spec, L, z)
            refused += 1
    assert answered >= 20 and refused >= 4
    # where nothing overflows, the values are those of the plain formula
    plain = BackgroundSpec(geometry=geometry, b=1.7, gamma=g)
    zs = np.linspace(-1.4, 1.4, 29)
    got = effective_force(plain, L, zs)
    want = [float(_mp_force(geometry, 1.7, g, L, z)) for z in zs]
    assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def test_potential_and_force_refuse_overflow():
    # U = s (L - b g s)/(1 - g^2 s^2) overflowed to -inf with a RuntimeWarning
    spec = BackgroundSpec(geometry="lobachevsky", b=1e307, gamma=0.999)
    zs = np.linspace(-3.0, 3.0, 5)
    with pytest.raises(DomainError, match="effective potential overflows"):
        effective_potential(spec, 1.0, zs)
    with pytest.raises(DomainError, match="effective potential overflows"):
        effective_potential(spec, 1.0, 0.0)
    # F itself lies beyond double (|F| = 4.1e308 and 5.5e308) while U stays finite
    for geometry, g in (("lobachevsky", 0.9), ("spherical", 0.5)):
        strong = BackgroundSpec(geometry=geometry, b=1e308, gamma=g)
        assert np.isfinite(effective_potential(strong, 1.0, 0.5))
        with pytest.raises(DomainError, match="effective force overflows"):
            effective_force(strong, 1.0, np.array([0.1, 0.5]))
    with pytest.raises(DomainError):
        potential_profile(spec, 1.0, -3.0, 3.0, 5)


def test_potential_profile_and_pole_crossing():
    prof = potential_profile(LOB, 3.0, -2.0, 2.0, 101)
    assert prof.z_grid.shape == (101,)
    assert_allclose(prof.U[50], effective_potential(LOB, 3.0, 0.0))
    assert prof.extrema.equilibria[0].kind in ("minimum", "maximum")
    with pytest.raises(PoleError):  # interior pole at cos^2 z = 0.25
        potential_profile(SPH, 2.0, -1.5, 1.5, 51)
    with pytest.raises(ParameterError):
        potential_profile(LOB, 3.0, 2.0, -2.0, 11)
    with pytest.raises(ParameterError):
        potential_profile(LOB, 3.0, -2.0, 2.0, 1)


# ---------------------------------------------------------------------------
# Airy-type pair
# ---------------------------------------------------------------------------

def test_airy_turning_point_is_exact():
    pair = airy_pair(w_prime=1.5, nu=2.0)
    assert float(pair.x_of_z(pair.turning_point)) == 0.0
    pair2 = airy_pair(w_prime=-0.7, nu=0.5)
    assert float(pair2.x_of_z(pair2.turning_point)) == 0.0
    with pytest.raises(ParameterError):
        airy_pair(1.0, 0.0)


def test_airy_branches_solve_the_equation():
    """Both branches track a high-order integration of Z_xx = x Z started
    from their own values at x = -10, across the turning point to x = +10."""
    pair = airy_pair(w_prime=1.5, nu=2.0)

    def rhs(x, y):
        return [y[1], x * y[0]]

    for f, df in ((pair.z1, pair.dz1), (pair.z2, pair.dz2)):
        sol = solve_ivp(
            rhs, (-10.0, 10.0), [f(-10.0), df(-10.0)], method="DOP853",
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        xs = np.linspace(-10.0, 10.0, 81)
        dev = max(abs(sol.sol(x)[0] - f(x)) / max(1.0, abs(f(x))) for x in xs)
        assert dev < 1e-8


def test_airy_wronskian():
    """z1 z2' - z1' z2 is constant and equals -(2/3)^(2/3) 3 sqrt(3)/(2 pi)."""
    pair = airy_pair(w_prime=0.3, nu=1.0)
    exact = -((2.0 / 3.0) ** (2.0 / 3.0)) * 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
    assert_allclose(pair.wronskian, exact, rtol=1e-13)
    for x in np.linspace(-8.0, 4.0, 25):
        W = pair.z1(x) * pair.dz2(x) - pair.dz1(x) * pair.z2(x)
        assert abs(W - exact) < 1e-8


def test_airy_recombines_into_decaying_solution():
    """The Ai-like combination of the branches decays on the barrier side."""
    pair = airy_pair(w_prime=0.0, nu=1.0)
    # Ai(x) = p * x 0F1(;4/3;x^3/9) + q * 0F1(;2/3;x^3/9)
    p = -(3.0 ** (-1.0 / 3.0)) / sps.gamma(1.0 / 3.0)
    q = 3.0 ** (-2.0 / 3.0) / sps.gamma(2.0 / 3.0)
    C1 = (
        complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
        * 2.0 ** (-1.0 / 3.0) * (2.0 / 3.0) ** (2.0 / 3.0) / sps.gamma(4.0 / 3.0)
    )
    C2 = 2.0 ** (1.0 / 3.0) * complex(math.cos(math.pi / 6), -math.sin(math.pi / 6)) / sps.gamma(2.0 / 3.0)
    for x in np.linspace(0.0, 4.0, 9):
        combo = (p / C1) * pair.z1(x) + (q / C2) * pair.z2(x)
        assert abs(combo - sps.airy(x)[0]) < 1e-12


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------

def test_integrate_axial_matches_airy_branch():
    """The assembled flat electric equation integrated across the turning
    point reproduces the closed-form Z1 branch."""
    nu = 2.0
    spec = BackgroundSpec(geometry="flat", field="electric", nu=nu, gamma=0.3)
    ode = assemble_axial_ode(spec, 2.0, w=5.0, compton=0.5)
    pair = airy_pair(ode.params["w_prime"], nu)
    x_of = lambda z: float(pair.x_of_z(z))
    dxdz = -nu ** (1.0 / 3.0)
    zl, zr = -3.0, 3.0
    ic = (pair.z1(x_of(zl)), dxdz * pair.dz1(x_of(zl)))
    sol = integrate_axial(ode, ic, (zl, zr), steps=3000)
    dev = max(
        abs(sol.Z[i] - pair.z1(x_of(sol.z[i]))) for i in range(0, len(sol.z), 50)
    )
    assert dev < 1e-7
    assert sol.residual_estimate < 1e-9


def test_integrate_axial_fourth_order_convergence():
    """Halving the step divides the global error by >= 8 (4th-order scheme)."""
    ode = assemble_axial_ode(
        BackgroundSpec(geometry="lobachevsky", b=1.0, gamma=0.0), 2.0, epsilon=1.0
    )

    def rhs(z, y):
        return [y[1], -(ode.pcoef(z) * y[1] + ode.qcoef(z, 0.0) * y[0])]

    ref = solve_ivp(
        rhs, (-4.0, 4.0), [1.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-14
    ).y[0][-1]
    errs = []
    for steps in (200, 400):
        sol = integrate_axial(ode, (1.0, 0.0), (-4.0, 4.0), steps=steps, tol=1e-3)
        errs.append(abs(sol.Z[-1].real - ref))
    assert errs[0] / errs[1] > 8.0


def test_integrate_axial_sub_barrier_growth():
    """Below the barrier the normal-form solution grows monotonically."""
    ode = assemble_axial_ode(
        BackgroundSpec(geometry="lobachevsky", b=1.0, gamma=0.0), 2.0, epsilon=0.0
    )
    sol = integrate_axial(ode.schrodinger, (1.0, 0.1), (-4.0, 4.0), steps=800)
    vals = sol.Z.real
    assert np.all(np.diff(vals) > 0)


def test_integrate_axial_error_modes():
    spec = BackgroundSpec(geometry="flat", field="electric", nu=50.0)
    ode = assemble_axial_ode(spec, 0.0, w=0.0)
    with pytest.raises(StepFailure) as failure:
        integrate_axial(ode, (1.0, 0.0), (-3.0, 3.0), steps=5)
    assert str(failure.value) == (
        "local error 8.048e+03 at z = -3 exceeds tol*scale = 4.541e-05; increase steps"
    )
    with pytest.raises(ParameterError):
        integrate_axial(ode, (1.0, 0.0), (3.0, -3.0), steps=100)
    with pytest.raises(ParameterError):
        integrate_axial(ode, (1.0, 0.0), (-3.0, 3.0), steps=0)
    radial = assemble_radial_ode(LOB, QuantumNumbers(0, 0))
    with pytest.raises(ParameterError):
        integrate_axial(radial, (1.0, 0.0), (0.1, 2.0), steps=100)


def _per_step_rkf45(ode, ic_left, z_range, steps):
    """The Fehlberg 4(5) loop written step by step, with one scalar
    coefficient call per stage: the reference for integrate_axial."""

    def f(z, y):
        return np.array(
            [y[1], -(ode.pcoef(z) * y[1] + ode.qcoef(z, 0.0) * y[0])], dtype=complex
        )

    z0, z1 = z_range
    h = (z1 - z0) / steps
    zs = z0 + h * np.arange(steps + 1)
    Z = np.empty(steps + 1, dtype=complex)
    dZ = np.empty(steps + 1, dtype=complex)
    y = np.array(ic_left, dtype=complex)
    Z[0], dZ[0] = y
    total_err = 0.0
    for i in range(steps):
        k = []
        for stage in range(6):
            dy = sum((a * kk for a, kk in zip(_RKF_A[stage], k)), start=np.zeros(2, complex))
            k.append(f(zs[i] + _RKF_C[stage] * h, y + h * dy))
        y_next = y + h * sum(b * kk for b, kk in zip(_RKF_B4, k))
        err = abs(h) * np.max(np.abs(sum(b * kk for b, kk in zip(_RKF_BERR, k))))
        total_err += err
        y = y_next
        Z[i + 1], dZ[i + 1] = y
    return zs, Z, dZ, total_err


_ASSEMBLED = {
    "lobachevsky-magnetic": (LOB, 2.0, dict(epsilon=1.0), (-2.0, 2.0)),
    "spherical-magnetic": (SPH, 2.0, dict(epsilon=0.5), (-0.9, 0.9)),
    "flat-electric": (
        BackgroundSpec(geometry="flat", field="electric", nu=1.5, gamma=0.3),
        1.0, dict(w=3.0), (-2.0, 1.0),
    ),
    "lobachevsky-electric": (
        BackgroundSpec(geometry="lobachevsky", field="electric", nu=1.2, gamma=0.4),
        1.5, dict(w=2.0), (-1.5, 1.5),
    ),
    "spherical-electric": (
        BackgroundSpec(geometry="spherical", field="electric", nu=0.8, gamma=-0.3),
        1.0, dict(w=1.0), (-0.8, 0.8),
    ),
}


@pytest.mark.parametrize(
    "name, schrodinger",
    [(name, False) for name in _ASSEMBLED]
    + [("lobachevsky-magnetic", True), ("spherical-magnetic", True)],
)
def test_integrate_axial_matches_per_step_loop(name, schrodinger):
    spec, Lambda, kw, z_range = _ASSEMBLED[name]
    ode = assemble_axial_ode(spec, Lambda, **kw)
    if schrodinger:
        ode = ode.schrodinger
    ic = (1.0 + 0.5j, -0.3 + 0.2j)
    zs, Z, dZ, total_err = _per_step_rkf45(ode, ic, z_range, 300)
    sol = integrate_axial(ode, ic, z_range, 300)
    assert np.array_equal(sol.z, zs)
    assert np.max(np.abs(sol.Z - Z)) <= 1e-13 * np.max(np.abs(Z))
    assert np.max(np.abs(sol.dZ - dZ)) <= 1e-13 * np.max(np.abs(dZ))
    # the summed local errors are differences of nearly equal stage sums,
    # so they keep fewer digits than the solution itself
    assert_allclose(sol.residual_estimate, total_err, rtol=1e-6)


def _counting(fn, shapes):
    def wrapped(*args):
        shapes.append(np.shape(args[0]))
        return fn(*args)

    return wrapped


def test_integrate_axial_evaluates_coefficients_once():
    ode = assemble_axial_ode(LOB, 2.0, epsilon=1.0)
    p_shapes, q_shapes = [], []
    counted = dataclasses.replace(
        ode, pcoef=_counting(ode.pcoef, p_shapes), qcoef=_counting(ode.qcoef, q_shapes)
    )
    integrate_axial(counted, (1.0, 0.0), (-2.0, 2.0), steps=250)
    assert p_shapes == [(250, 6)]
    assert q_shapes == [(250, 6)]


def test_integrate_axial_constant_coefficients():
    """Scalar-valued coefficients broadcast over the stage nodes:
    Z'' + Z = 0 from (1, 0) is cos z."""
    ode = SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf), pcoef=lambda z: 0.0,
        qcoef=lambda z, s: 1.0 + s, eigen_name="w",
    )
    sol = integrate_axial(ode, (1.0, 0.0), (0.0, 3.0), steps=600)
    assert_allclose(sol.Z.real, np.cos(sol.z), atol=1e-10)
    assert_allclose(sol.dZ.real, -np.sin(sol.z), atol=1e-10)


def test_integrate_axial_refuses_non_finite_input():
    ode = assemble_axial_ode(LOB, 1.0)
    for ic in [(math.nan, 0.0), (1.0, complex(0.0, math.inf))]:
        with pytest.raises(ParameterError):
            integrate_axial(ode, ic, (-1.0, 1.0), steps=10)
    for z_range in [(-1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)]:
        with pytest.raises(ParameterError):
            integrate_axial(ode, (1.0, 0.0), z_range, steps=10)
    for tol in [math.nan, 0.0, -1e-9]:
        with pytest.raises(ParameterError):
            integrate_axial(ode, (1.0, 0.0), (-1.0, 1.0), steps=10, tol=tol)


def test_integrate_axial_refuses_range_outside_domain():
    ode = assemble_axial_ode(SPH, 2.0)
    with pytest.raises(DomainError):
        integrate_axial(ode, (1.0, 0.0), (-2.0, 2.0), steps=400)
    with pytest.raises(DomainError):
        integrate_axial(ode.schrodinger, (1.0, 0.0), (0.0, 1.6), steps=400)


def test_integrate_axial_nan_local_error_is_a_step_failure():
    """A coefficient that turns NaN past z = 0.5 fails the first step
    whose stage nodes reach it, instead of writing NaN rows."""
    ode = SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf), pcoef=lambda z: np.zeros_like(z),
        qcoef=lambda z, s: np.where(z > 0.5, math.nan, 1.0 + s), eigen_name="w",
    )
    with pytest.raises(StepFailure, match=r"local error nan at z = 0\.5 "):
        integrate_axial(ode, (1.0, 0.0), (0.0, 1.0), steps=100)


def _complex_loop(ode, ic_left, z_range, steps, tol=1e-9):
    """The integrator's former recurrence, kept verbatim as the bit-level
    reference: every stage in Python complex arithmetic and the error
    bookkeeping inside the loop."""
    z0, z1 = float(z_range[0]), float(z_range[1])
    u, v = complex(ic_left[0]), complex(ic_left[1])
    h = (z1 - z0) / steps
    zs = z0 + h * np.arange(steps + 1)
    nodes = zs[:-1, None] + h * np.array(_RKF_C)
    P = _scalar_rows(np.broadcast_to(ode.pcoef(nodes), nodes.shape))
    Q = _scalar_rows(np.broadcast_to(ode.qcoef(nodes, 0.0), nodes.shape))

    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54)) = _RKF_A
    b0, _, b2, b3, b4, _ = _RKF_B4
    e0, _, e2, e3, e4, e5 = _RKF_BERR
    Z, dZ = [u], [v]
    total_err = 0.0
    # stage j evaluates f = (v, -(p v + q u)) at (u_j, v_j); k_j = (v_j, g_j)
    for i, (p0, p1, p2, p3, p4, p5), (q0, q1, q2, q3, q4, q5) in zip(range(steps), P, Q):
        v1 = v
        g1 = -(p0 * v + q0 * u)
        v2 = v + h * (a10 * g1)
        g2 = -(p1 * v2 + q1 * (u + h * (a10 * v1)))
        v3 = v + h * (a20 * g1 + a21 * g2)
        g3 = -(p2 * v3 + q2 * (u + h * (a20 * v1 + a21 * v2)))
        v4 = v + h * (a30 * g1 + a31 * g2 + a32 * g3)
        g4 = -(p3 * v4 + q3 * (u + h * (a30 * v1 + a31 * v2 + a32 * v3)))
        v5 = v + h * (a40 * g1 + a41 * g2 + a42 * g3 + a43 * g4)
        g5 = -(p4 * v5 + q4 * (u + h * (a40 * v1 + a41 * v2 + a42 * v3 + a43 * v4)))
        v6 = v + h * (a50 * g1 + a51 * g2 + a52 * g3 + a53 * g4 + a54 * g5)
        g6 = -(p5 * v6 + q5 * (u + h * (a50 * v1 + a51 * v2 + a52 * v3 + a53 * v4 + a54 * v5)))
        u = u + h * (b0 * v1 + b2 * v3 + b3 * v4 + b4 * v5)
        v = v + h * (b0 * g1 + b2 * g3 + b3 * g4 + b4 * g5)
        err = h * max(
            abs(e0 * v1 + e2 * v3 + e3 * v4 + e4 * v5 + e5 * v6),
            abs(e0 * g1 + e2 * g3 + e3 * g4 + e4 * g5 + e5 * g6),
        )
        scale = max(1.0, abs(u), abs(v))
        if not err <= tol * scale:
            raise StepFailure(
                f"local error {err:.3e} at z = {zs[i]:.6g} exceeds tol*scale = "
                f"{tol * scale:.3e}; increase steps"
            )
        total_err += err
        Z.append(u)
        dZ.append(v)
    return AxialSolution(
        z=zs, Z=np.array(Z, dtype=complex), dZ=np.array(dZ, dtype=complex),
        residual_estimate=total_err,
    )


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except StepFailure as exc:
        return str(exc)


def _assert_same_outcome(ode, ic, z_range, steps, tol=1e-9):
    ref = _outcome(_complex_loop, ode, ic, z_range, steps, tol)
    got = _outcome(integrate_axial, ode, ic, z_range, steps, tol)
    if isinstance(ref, str):
        assert got == ref
        return "failed"
    assert np.array_equal(got.z, ref.z)
    assert np.array_equal(got.Z, ref.Z)
    assert np.array_equal(got.dZ, ref.dZ)
    assert got.residual_estimate == ref.residual_estimate
    return "solved"


def _seeded_axial_cases(seed=2024):
    rng = np.random.default_rng(seed)
    odes = []
    for name, (spec, Lambda, kw, z_range) in _ASSEMBLED.items():
        ode = assemble_axial_ode(spec, Lambda, **kw)
        odes.append((f"{name}", ode, z_range))
        if ode.schrodinger is not None:
            odes.append((f"{name}/schrodinger", ode.schrodinger, z_range))
    for name, ode, (lo, hi) in odes:
        for data in ("real", "complex"):
            for steps in (1, int(rng.integers(2, 60)), int(rng.integers(60, 801)), 800):
                ic = (complex(rng.uniform(-1, 1)), complex(rng.uniform(-1, 1)))
                if data == "complex":
                    ic = (ic[0] + 1j * rng.uniform(-1, 1), ic[1] + 1j * rng.uniform(-1, 1))
                tol = float(10.0 ** rng.uniform(-10, -3))
                yield pytest.param(ode, ic, (lo, hi), steps, tol,
                                   id=f"{name}-{data}-{steps}")


@pytest.mark.parametrize("ode, ic, z_range, steps, tol", _seeded_axial_cases())
def test_integrate_axial_reproduces_complex_loop_bit_for_bit(ode, ic, z_range, steps, tol):
    """Real and imaginary parts as separate real passes give the complex
    loop's z, Z, dZ and residual_estimate exactly, or its StepFailure."""
    _assert_same_outcome(ode, ic, z_range, steps, tol)


def test_integrate_axial_bit_identity_covers_solutions_and_failures():
    outcomes = {_assert_same_outcome(*case.values) for case in _seeded_axial_cases()}
    assert outcomes == {"solved", "failed"}


def test_integrate_axial_complex_coefficients_take_the_complex_loop():
    ode = SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf), pcoef=lambda z: 0.1j * z,
        qcoef=lambda z, s: 1.0 + 0.3j * np.cos(z) + s, eigen_name="w",
    )
    for ic in [(1.0, 0.0), (1.0 - 0.5j, 0.2 + 0.1j)]:
        assert _assert_same_outcome(ode, ic, (-2.0, 3.0), 400) == "solved"
    assert _assert_same_outcome(ode, (1.0, 0.5j), (-2.0, 3.0), 4) == "failed"


def test_integrate_axial_complex_data_fails_at_the_same_step():
    """A step failure past the first step of complex data names the same
    step and values as the complex loop."""
    spec = BackgroundSpec(geometry="flat", field="electric", nu=50.0)
    ode = assemble_axial_ode(spec, 0.0, w=0.0)
    ic = (0.3 + 1.0j, -0.2 + 0.4j)
    message = _outcome(integrate_axial, ode, ic, (0.0, 3.0), 600)
    assert message == _outcome(_complex_loop, ode, ic, (0.0, 3.0), 600)
    assert message.startswith("local error 1.322e-09 at z = 1.6 ")


def _failing_z(message):
    return float(message.split(" at z = ")[1].split()[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
@pytest.mark.parametrize("ic", [(1.0, 0.0), (1.0 + 0.5j, -0.3j)])
def test_integrate_axial_non_finite_values_fail_like_the_complex_loop(bad, ic):
    """Coefficients that turn NaN, infinite or overflowing past z = 0.5
    fail, without warnings, no later than the complex loop does: a
    non-finite value fails its step even where the complex loop's
    max(|eZ|, NaN) or inf <= inf let it pass."""
    ode = SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf), pcoef=lambda z: np.zeros_like(z),
        qcoef=lambda z, s: np.where(z > 0.5, bad, 1.0 + s), eigen_name="w",
    )
    ref = _outcome(_complex_loop, ode, ic, (0.0, 1.0), 100)
    got = _outcome(integrate_axial, ode, ic, (0.0, 1.0), 100)
    assert isinstance(ref, str) and isinstance(got, str)
    assert 0.5 <= _failing_z(got) <= _failing_z(ref)


@pytest.mark.parametrize("ic", [(1.0, 0.3), (1.0 + 0.5j, -0.3j)])
def test_integrate_axial_nan_in_one_error_sum_is_a_step_failure(ic):
    """A NaN met only at the mid-step stage node enters the Z'' error sum
    but not the step itself.  The complex loop's max(|eZ|, NaN) keeps
    |eZ| and accepts that step; a non-finite stage-sum difference now
    fails it."""
    ode = _bad_at_one_mid_step_node(math.nan)
    assert not isinstance(_outcome(_complex_loop, ode, ic, (0.0, 1.0), 100), str)
    with pytest.raises(StepFailure, match=r"local error nan at z = 0\.4 "):
        integrate_axial(ode, ic, (0.0, 1.0), 100)


def _bad_at_one_mid_step_node(bad):
    h = 0.01
    mid_step = (h * np.arange(100)[:, None] + h * np.array(_RKF_C))[40, 5]
    return SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf),
        pcoef=lambda z: np.where(z == mid_step, bad, 0.0),
        qcoef=lambda z, s: 1.0 + s + 0.0 * z, eigen_name="w",
    )


def test_integrate_axial_non_finite_error_or_scale_fails_under_any_tol():
    """An infinite error estimate, or a solution whose modulus overflows,
    fails its step even where tol * scale overflows too (inf <= inf)."""
    with pytest.raises(StepFailure, match=r"local error inf at z = 0\.4 "):
        integrate_axial(_bad_at_one_mid_step_node(math.inf), (2.0, 0.3), (0.0, 1.0), 100,
                        tol=1.7e308)
    free = SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf), pcoef=lambda z: 0.0,
        qcoef=lambda z, s: 0.0 * z + s, eigen_name="w",
    )
    # both parts are finite; |Z| is not (abs() of this complex overflows)
    with pytest.raises(StepFailure, match=r"at z = 0 exceeds tol\*scale = inf"):
        integrate_axial(free, (1.5e308 + 1.5e308j, 0.0), (0.0, 1.0), 10, tol=1.0)


def test_integrate_axial_peak_memory_below_the_complex_loop():
    """Per-step results live in float arrays, not Python objects, and the
    coefficients are converted in chunks: the traced peak of a complex-
    data integration stays below what the complex loop holds at once at
    its end (node array, one coefficient chunk each for p and q, and two
    lists of Python complex)."""
    steps = 2048  # two whole chunks, so the loop ends holding a full one
    ode = SeparatedODE(
        kind="axial", geometry="flat", field_kind="electric",
        domain=(-math.inf, math.inf), pcoef=lambda z: 0.0,
        qcoef=lambda z, s: 1.0 + s, eigen_name="w",
    )
    h = 3.0 / steps
    tracemalloc.start()
    try:
        nodes = h * np.arange(steps)[:, None] + h * np.array(_RKF_C)
        P = _scalar_rows(np.broadcast_to(0.0, nodes.shape))
        Q = _scalar_rows(np.broadcast_to(1.0, nodes.shape))
        for _ in zip(range(steps), P, Q):
            pass
        Z = [complex(k, 1.0) for k in range(steps + 1)]
        dZ = [complex(k, 2.0) for k in range(steps + 1)]
        held = tracemalloc.get_traced_memory()[0]
        del nodes, P, Q, Z, dZ
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        integrate_axial(ode, (1.0 + 0.5j, 0.2j), (0.0, 3.0), steps)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < held


# ---------------------------------------------------------------------------
# singular local forms
# ---------------------------------------------------------------------------

def test_local_forms_spherical_values():
    g, b, L, eps = 0.25, 1.0, 2.0, 0.5
    spec = BackgroundSpec(geometry="spherical", b=b, gamma=g)
    one = singular_local_form(spec, L, "y=1", epsilon=eps)
    assert_allclose(one.params["A"], eps - (b * g + L) / (1 - g * g))
    zero = singular_local_form(spec, L, "y=0", epsilon=eps)
    assert_allclose(zero.params["C"], -eps - b / g)
    inf = singular_local_form(spec, L, "y=infinity", epsilon=0.0)
    assert inf.params["D_plus"] == 0.0 and inf.params["D_minus"] == -1.0
    plus = singular_local_form(spec, L, "y=+gamma")
    assert_allclose(plus.params["a"], (L + b) / (4 * (3 - 4 * g)))
    minus = singular_local_form(spec, L, "y=-gamma")
    assert_allclose(minus.params["a"], (L - b) / (4 * (3 + 4 * g)))


def test_local_forms_lobachevsky_values():
    g, b, L, eps = 0.2, 1.5, 3.0, 0.5
    spec = BackgroundSpec(geometry="lobachevsky", b=b, gamma=g)
    one = singular_local_form(spec, L, "y=1", epsilon=eps)
    assert_allclose(one.params["A"], -eps + (L - b * g) / (1 - g * g))
    zero = singular_local_form(spec, L, "y=0", epsilon=eps)
    assert_allclose(zero.params["C"], eps - b / g)
    inf = singular_local_form(spec, L, "y=infinity", epsilon=2.0)
    assert_allclose(inf.params["D_plus"], complex(-1, 1) / 2)
    plus = singular_local_form(spec, L, "y=+gamma")
    assert_allclose(plus.params["a"], (L - b) / (4 * (3 - 4 * g)))
    minus = singular_local_form(spec, L, "y=-gamma")
    assert_allclose(minus.params["a"], (L + b) / (4 * (3 + 4 * g)))


def test_local_forms_cover_all_singular_labels():
    ode = assemble_axial_ode(SPH, 2.0)
    for sp in ode.singular_points:
        form = singular_local_form(SPH, 2.0, sp.label)
        assert form.point == sp.label


def test_local_forms_errors():
    with pytest.raises(ParameterError):
        singular_local_form(
            BackgroundSpec(geometry="spherical", b=1.0, gamma=0.0), 2.0, "y=0"
        )
    with pytest.raises(ParameterError):
        singular_local_form(SPH, 2.0, "y=2")
    with pytest.raises(ParameterError):
        singular_local_form(BackgroundSpec(geometry="flat", b=1.0), 2.0, "y=0")


def test_local_forms_refuse_degenerate_gamma():
    """3 -+ 4 gamma = 0 and 1 - gamma^2 = 0 divided by zero (a bare
    ZeroDivisionError); they are refused like gamma = 0."""
    for geometry in ("lobachevsky", "spherical"):
        for g, point in ((1.0, "y=1"), (-1.0, "y=1"), (0.75, "y=+gamma"), (-0.75, "y=-gamma")):
            spec = BackgroundSpec(geometry=geometry, b=1.0, gamma=g)
            with pytest.raises(ParameterError, match="needs gamma"):
                singular_local_form(spec, 2.0, point, epsilon=0.5)
        # the other point of each pair stays finite
        spec = BackgroundSpec(geometry=geometry, b=1.0, gamma=0.75)
        assert math.isfinite(singular_local_form(spec, 2.0, "y=-gamma").params["a"])


def test_local_forms_refuse_non_finite_coefficients():
    """A = nan (b = gamma = Lambda = eps = 1e300), C = -inf (gamma = 1e-310)
    and non-finite Lambda or epsilon were returned as answers."""
    for geometry, spec in (("lobachevsky", LOB), ("spherical", SPH)):
        big = BackgroundSpec(geometry=geometry, b=1e300, gamma=1e300)
        with pytest.raises(DomainError, match="local form at y=1 is not finite"):
            singular_local_form(big, 1e300, "y=1", epsilon=1e300)
        tiny = BackgroundSpec(geometry=geometry, b=1.0, gamma=1e-310)
        with pytest.raises(DomainError, match="local form at y=0 is not finite"):
            singular_local_form(tiny, 2.0, "y=0")
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                singular_local_form(spec, bad, "y=+gamma")
            with pytest.raises(DomainError):
                singular_local_form(spec, 2.0, "y=infinity", epsilon=bad)


def test_airy_derivatives_refuse_overflowing_cubes():
    """dz1 and dz2 raised a bare OverflowError from x**3 where z1 and z2
    refuse the same x with DomainError."""
    pair = airy_pair(w_prime=0.0, nu=1.0)
    for x in (6e102, -1e200, 1e308):
        for branch in (pair.z1, pair.z2, pair.dz1, pair.dz2):
            with pytest.raises(DomainError, match="x\\^3/9 overflows"):
                branch(x)


# ---------------------------------------------------------------------------
# one curved problem: the section record against the per-geometry originals
# ---------------------------------------------------------------------------

def test_axial_module_compares_no_curved_geometry_name():
    """The curvature sign is decided in `backgrounds._SECTIONS`: axial.py
    compares nothing to a curved geometry's name (only "flat" is refused)."""
    import coxlab.axial

    tree = ast.parse(Path(coxlab.axial.__file__).read_text())
    names = {"lobachevsky", "spherical"}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and sub.value in names
    ]
    assert found == []


def _outcome_bits(fn, *args, **kw):
    """A value as bits (array bytes, or repr of a scalar or record), or a
    refusal as its type and message."""
    try:
        value = fn(*args, **kw)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def _extreme_value(rng, scale=5.0):
    kind = rng.integers(5)
    if kind == 0:
        return float(rng.uniform(-scale, scale))
    if kind == 1:
        return float(rng.choice([0.0, -0.0, 1.0, -1.0, 0.75, -0.75, 1e308, -1e308,
                                 1e-310, -1e-310, 1e300, 1e-200]))
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 308))


def _curved_draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        geometry = str(rng.choice(["lobachevsky", "spherical"]))
        b, L, eps = (_extreme_value(rng) for _ in range(3))
        g = _extreme_value(rng, 2.0)
        if rng.random() < 0.05:
            L = float(rng.choice([math.nan, math.inf, -math.inf]))
        zmax = math.pi / 2 + 0.1 if geometry == "spherical" else 6.0
        z = rng.uniform(-zmax, zmax, int(rng.integers(1, 5)))
        if rng.random() < 0.2:
            z[0] = float(rng.choice([0.0, math.pi / 2, -math.pi / 2, 800.0, -1e4]))
        yield BackgroundSpec(geometry=geometry, b=b, gamma=g), L, eps, z


_LOCAL_POINTS = ("y=0", "y=1", "y=+gamma", "y=-gamma", "y=infinity")


def test_curved_axial_functions_equal_the_per_geometry_originals():
    """Seeded draws over both curved sections, with b, gamma, Lambda and
    epsilon up to +-1e308, subnormal, signed zero and the degenerate gamma
    in {0, +-1, +-3/4}: poles, equilibria, U, F and the five local forms
    are the originals' bits, or their refusals by type and message.  The
    local forms differ only where an original divided by zero (now a
    ParameterError) or returned a non-finite coefficient (now a
    DomainError)."""
    kinds = set()
    for spec, L, eps, z in _curved_draws(2030, 1500):
        assert _pole_locations(_SECTIONS[spec.geometry], spec.gamma) == (
            per_geometry._pole_locations(spec))
        for new, old in ((effective_potential, per_geometry.effective_potential),
                         (effective_force, per_geometry.effective_force)):
            for arg in (z, float(z[0])):
                want = _outcome_bits(old, spec, L, arg)
                assert _outcome_bits(new, spec, L, arg) == want
                kinds.add(type(want))
        want = _outcome_bits(per_geometry.effective_force_extrema, spec, L)
        assert _outcome_bits(effective_force_extrema, spec, L) == want
        for point in _LOCAL_POINTS:
            try:
                ref = per_geometry.singular_local_form(spec, L, point, eps)
            except ZeroDivisionError:
                with pytest.raises(ParameterError, match="needs gamma"):
                    singular_local_form(spec, L, point, eps)
                kinds.add("degenerate")
                continue
            except ParameterError as exc:
                with pytest.raises(ParameterError, match=re.escape(str(exc))):
                    singular_local_form(spec, L, point, eps)
                continue
            if all(np.isfinite(complex(v)) for v in ref.params.values()):
                assert repr(singular_local_form(spec, L, point, eps)) == repr(ref)
            else:
                with pytest.raises(DomainError, match="is not finite"):
                    singular_local_form(spec, L, point, eps)
                kinds.add("non-finite")
    assert {str, tuple, "degenerate", "non-finite"} <= kinds
