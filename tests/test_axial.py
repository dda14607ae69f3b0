"""Effective axial potentials, Airy-type branches, integration, local forms."""

from __future__ import annotations

import dataclasses
import math

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
    assemble_axial_ode,
    assemble_radial_ode,
)
from coxlab.errors import DomainError, ParameterError, PoleError, StepFailure

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
