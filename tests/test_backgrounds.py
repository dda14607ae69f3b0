"""Gauge potentials, local field data and separated-equation coefficients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coxlab.backgrounds import (
    BackgroundSpec,
    QuantumNumbers,
    assemble_axial_ode,
    assemble_radial_ode,
    electric_strength_parameter,
    field_components,
    flat_equivalent_magnetic_b,
    gamma_profile,
    gauge_potential,
    magnetic_strength_parameter,
    metric_at,
)
from coxlab.errors import DomainError, InvalidEta, ParameterError
from coxlab.tensor_algebra import field_invariants


def _spec(geometry, field="magnetic", **kw):
    return BackgroundSpec(geometry=geometry, field=field, **kw)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_background_spec_validation():
    with pytest.raises(ParameterError):
        BackgroundSpec(geometry="euclidean")
    with pytest.raises(ParameterError):
        BackgroundSpec(geometry="flat", field="dyonic")
    with pytest.raises(ParameterError):
        BackgroundSpec(geometry="spherical", rho=0.0)
    with pytest.raises(InvalidEta):
        BackgroundSpec(geometry="flat", field="magnetic", eta=1.5)
    # eta is unconstrained for electric configurations
    BackgroundSpec(geometry="flat", field="electric", eta=1.5)


@pytest.mark.parametrize("name", ["b", "nu", "eta", "gamma", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_background_spec_rejects_non_finite(name, value):
    # a NaN eta used to pass: abs(nan) >= 1 is false
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        BackgroundSpec(geometry="flat", **{name: value})


def test_quantum_numbers_validation():
    with pytest.raises(ParameterError):
        QuantumNumbers(n=-1, m=0)
    qn = QuantumNumbers(n=2, m=-3, k=0.5)
    assert (qn.n, qn.m, qn.k) == (2, -3, 0.5)


# ---------------------------------------------------------------------------
# gauge potentials
# ---------------------------------------------------------------------------

def test_gauge_potential_flat_magnetic():
    """A_phi = -B r^2/2 with B = 2b, so b=1 gives A_phi(1) = -1."""
    spec = _spec("flat", b=1.0)
    assert gauge_potential(spec, 0.0) == 0.0
    assert_allclose(gauge_potential(spec, 1.0), -1.0, rtol=0, atol=0)
    with pytest.raises(DomainError):
        gauge_potential(spec, -0.1)


def test_gauge_potential_small_r_matches_flat():
    """Both curved potentials reduce to -b r^2/2 near the axis."""
    r = 1e-3
    for geo in ("lobachevsky", "spherical"):
        spec = _spec(geo, b=3.0)
        assert_allclose(gauge_potential(spec, r), -3.0 * r * r / 2, rtol=1e-6)


def test_gauge_potential_spherical_domain():
    spec = _spec("spherical", b=1.0)
    assert_allclose(gauge_potential(spec, math.pi), -2.0)
    with pytest.raises(DomainError):
        gauge_potential(spec, math.pi + 0.01)


def test_gauge_potential_electric():
    flat = _spec("flat", "electric", nu=2.0)
    assert_allclose(gauge_potential(flat, 1.5), -3.0)
    lob = _spec("lobachevsky", "electric", nu=2.0)
    assert gauge_potential(lob, 0.0) == 0.0
    assert_allclose(gauge_potential(lob, 50.0), -2.0, rtol=1e-12)  # saturates
    sph = _spec("spherical", "electric", nu=1.0)
    assert_allclose(gauge_potential(sph, math.pi / 4), -1.0, rtol=1e-12)
    with pytest.raises(DomainError):
        gauge_potential(sph, math.pi / 2)


# ---------------------------------------------------------------------------
# local field components and invariants
# ---------------------------------------------------------------------------

def test_flat_magnetic_invariant_uniform():
    """|I| = B^2 = (2b)^2 everywhere: the flat field is genuinely uniform."""
    spec = _spec("flat", b=1.0)
    for r, z in [(0.3, 0.0), (0.7, 3.0), (2.0, -1.0)]:
        fields, inv = field_components(spec, z, r=r)
        assert fields.B[2] == -2.0 * r
        assert_allclose(inv, 4.0, rtol=1e-12)


def test_lobachevsky_magnetic_invariant_profile():
    """|I| = b^2/ch^4 z, independent of r: uniform on each z-slice, dying off axially."""
    spec = _spec("lobachevsky", b=2.0)
    for r in (0.4, 0.9, 2.0):
        _, inv = field_components(spec, 1.0, r=r)
        assert_allclose(inv, 4.0 / math.cosh(1.0) ** 4, rtol=1e-12)
    _, inv0 = field_components(spec, 0.0, r=1.0)
    assert_allclose(inv0, 4.0, rtol=1e-12)
    _, inv_far = field_components(spec, 8.0, r=1.0)
    assert inv_far < 1e-5


def test_spherical_magnetic_invariant_grows_to_poles():
    spec = _spec("spherical", b=1.0)
    zs = [0.0, 0.5, 1.0, 1.4, 1.55]
    invs = [field_components(spec, z, r=0.8)[1] for z in zs]
    assert all(b > a for a, b in zip(invs, invs[1:]))
    assert_allclose(invs[0], 1.0, rtol=1e-12)
    assert_allclose(invs[2], 1.0 / math.cos(1.0) ** 4, rtol=1e-12)


def test_electric_components_and_invariant():
    lob = _spec("lobachevsky", "electric", nu=3.0)
    fields, inv = field_components(lob, 1.2, r=0.5)
    assert_allclose(fields.E[2], 3.0 / math.cosh(1.2) ** 2, rtol=1e-12)
    assert_allclose(inv, 9.0 / math.cosh(1.2) ** 4, rtol=1e-12)
    flat = _spec("flat", "electric", nu=3.0)
    _, inv_flat = field_components(flat, 5.0, r=0.5)
    assert_allclose(inv_flat, 9.0, rtol=1e-12)


def test_field_components_bridge_to_tensor_invariants():
    """Recompute I and J from the raw tensor layer: magnetic I < 0, J = 0."""
    spec = _spec("lobachevsky", b=2.5)
    r, z = 0.8, 0.6
    fields, inv = field_components(spec, z, r=r)
    res = field_invariants(fields, metric_at(spec, r, z))
    assert_allclose(res.I, -2.5**2 / math.cosh(z) ** 4, rtol=1e-12)
    assert res.J == 0.0
    assert_allclose(inv, abs(res.I), rtol=0, atol=0)


_GEOS = ("flat", "lobachevsky", "spherical")
# one off-chart radial point and, on the sphere, one off-chart axial point
_OFF_CHART = {"flat": (-0.5, None), "lobachevsky": (-0.5, None),
              "spherical": (math.pi + 0.1, math.pi / 2)}


@pytest.mark.parametrize("geo", _GEOS)
@pytest.mark.parametrize("field", ["magnetic", "electric"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "off-chart"])
def test_local_values_refuse_points_off_the_chart(geo, field, bad):
    """NaN, infinite and off-chart coordinates raise DomainError from every
    local-value function (they used to give nan/inf, a bare ValueError, or
    a metric at r < 0)."""
    spec = _spec(geo, field, b=1.0, nu=1.0)
    r, z = _OFF_CHART[geo] if bad == "off-chart" else (float(bad), float(bad))
    calls = [lambda: metric_at(spec, r, 0.0), lambda: field_components(spec, 0.0, r=r)]
    if z is not None:
        calls += [lambda: metric_at(spec, 1.0, z), lambda: field_components(spec, z, r=1.0)]
    coord = r if field == "magnetic" else z
    if coord is not None:
        calls.append(lambda: gauge_potential(spec, coord))
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("call", [
    lambda: gauge_potential(_spec("flat", b=1e300), 1e10),
    lambda: gauge_potential(_spec("lobachevsky", b=1.0), 800.0),
    lambda: metric_at(_spec("lobachevsky", b=1.0), 1.0, 800.0),
    lambda: field_components(_spec("lobachevsky", b=1e300), 0.5, r=800.0),
    lambda: field_components(_spec("spherical", "electric", nu=1e300), 1.5707963),
], ids=["flat-A", "lobachevsky-A", "lobachevsky-metric", "lobachevsky-B", "spherical-E"])
def test_local_values_refuse_overflow(call):
    with pytest.raises(DomainError, match="overflow"):
        call()


@pytest.mark.parametrize("geo", _GEOS)
def test_section_relations_by_central_differences(geo):
    """p = w'/w, B_3 = dA_phi/dr, E_3 = -dA_0/dz = nu/a and (axial) p = a'/a,
    with w^2 and a read from the metric."""
    h = 1e-5
    mag, ele = _spec(geo, b=1.3), _spec(geo, "electric", nu=0.7)
    radial = assemble_radial_ode(mag, QuantumNumbers(0, 1))
    axial = assemble_axial_ode(mag if geo != "flat" else ele, 1.0)

    def a(z):
        return -metric_at(mag, 1.0, z).g11

    for r in (0.3, 1.1, 2.4):
        w = radial.weight
        assert_allclose(radial.pcoef(r), (w(r + h) - w(r - h)) / (2 * h * w(r)), rtol=1e-8)
        assert_allclose(-metric_at(mag, r, 0.0).g22, w(r) ** 2, rtol=1e-14)
        dA = (gauge_potential(mag, r + h) - gauge_potential(mag, r - h)) / (2 * h)
        assert_allclose(field_components(mag, 0.0, r=r)[0].B[2], dA, rtol=1e-8)
    for z in (-1.2, 0.2, 0.9):
        dA0 = (gauge_potential(ele, z + h) - gauge_potential(ele, z - h)) / (2 * h)
        E3 = field_components(ele, z, r=1.0)[0].E[2]
        assert_allclose(E3, -dA0, rtol=1e-8)
        assert_allclose(E3, 0.7 / a(z), rtol=1e-14)
        assert_allclose(axial.pcoef(z), (a(z + h) - a(z - h)) / (2 * h * a(z)), rtol=1e-8,
                        atol=1e-12)


def test_gamma_profile():
    lob = _spec("lobachevsky", b=1.0, gamma=0.4)
    assert_allclose(gamma_profile(lob, 0.0), 0.4)
    assert_allclose(gamma_profile(lob, 1.0), 0.4 / math.cosh(1.0) ** 2)
    assert_allclose(gamma_profile(lob, -1.0), gamma_profile(lob, 1.0))  # even
    sph = _spec("spherical", b=1.0, gamma=0.4)
    assert_allclose(gamma_profile(sph, 1.0), 0.4 / math.cos(1.0) ** 2)
    flat = _spec("flat", b=1.0, eta=0.3)
    assert_allclose(gamma_profile(flat, [0.0, 2.0]), [0.3, 0.3])


def test_gamma_profile_lobachevsky_beyond_cosh_range():
    """gamma sech^2 z stays finite, without an overflow warning, where
    ch^2 z overflows (|z| > 355), and agrees with gamma / ch^2 z to 2 ulp
    wherever that is finite."""
    lob = _spec("lobachevsky", b=1.0, gamma=0.37)
    far = gamma_profile(lob, [400.0, -400.0, 1e4, 360.0])
    assert np.all(np.isfinite(far)) and np.all(far >= 0.0)
    assert far[3] > 0.0  # 4 g e^(-720): subnormal, not flushed to 0
    assert gamma_profile(lob, 1e4) == 0.0
    zs = np.concatenate([np.linspace(-355.0, 355.0, 20001),
                         np.random.default_rng(8).uniform(-3.0, 3.0, 2000)])
    with np.errstate(over="ignore"):
        ch2 = np.cosh(zs) ** 2
    assert np.isfinite(ch2).all()
    want = 0.37 / ch2
    got = gamma_profile(lob, zs)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


@pytest.mark.parametrize("geo", _GEOS)
@pytest.mark.parametrize("field", ["magnetic", "electric"])
def test_axis_is_a_coordinate_singularity(geo, field):
    """r = 0 raised ParameterError from the metric's signature check."""
    spec = _spec(geo, field, b=1.0, nu=1.0)
    singular = rf"the axis r = 0, a coordinate singularity of the {geo} chart\)"
    for call in (lambda: metric_at(spec, 0.0, 0.25), lambda: field_components(spec, 0.25, r=0.0)):
        with pytest.raises(DomainError, match=r"g_phiphi = 0 at r = 0.0, z = 0.25 \(" + singular):
            call()
    # off the axis w(r)^2 underflows to 0 below r ~ 1.5e-154: the same refusal, named as such
    below = r"g_phiphi = 0 at r = 1e-170, z = 0.25 \(w\(r\)\^2 below double range near "
    with pytest.raises(DomainError, match=below + singular):
        metric_at(spec, 1e-170, 0.25)
    assert metric_at(spec, 1e-3, 0.25).g22 < 0.0


def test_strength_parameter_conversions():
    assert magnetic_strength_parameter(2.0, 1.0, "flat") == 1.0
    assert magnetic_strength_parameter(0.05, 10.0, "lobachevsky") == 5.0
    assert electric_strength_parameter(3.0, 1.0, 0.5, "flat") == 3.0
    assert electric_strength_parameter(2.0, 2.0, 1.0, "spherical") == 32.0
    spec = _spec("spherical", b=80.0, rho=40.0)
    assert_allclose(flat_equivalent_magnetic_b(spec), 0.025)
    assert flat_equivalent_magnetic_b(_spec("flat", b=1.5)) == 1.5


# ---------------------------------------------------------------------------
# radial equations: coefficients verbatim
# ---------------------------------------------------------------------------

# The assemble_radial_ode docstring table, one row per (geometry, field), in
# the floating-point order the library evaluates it: (p, q0 with A_phi, w).
_RADIAL_TABLE = {
    ("flat", "magnetic"): (
        lambda r: 1.0 / r, lambda m, b, r: -((m - b * r * r) ** 2) / (r * r), lambda r: r),
    ("lobachevsky", "magnetic"): (
        lambda r: 1.0 / np.tanh(r),
        lambda m, b, r: -((m - b * (np.cosh(r) - 1.0)) ** 2) / np.sinh(r) ** 2, np.sinh),
    ("spherical", "magnetic"): (
        lambda r: 1.0 / np.tan(r),
        lambda m, b, r: -((m + b * (np.cos(r) - 1.0)) ** 2) / np.sin(r) ** 2, np.sin),
    ("flat", "electric"): (
        lambda r: 1.0 / r, lambda m, b, r: -(m * m) / (r * r), lambda r: r),
    ("lobachevsky", "electric"): (
        lambda r: 1.0 / np.tanh(r), lambda m, b, r: -(m * m) / np.sinh(r) ** 2, np.sinh),
    ("spherical", "electric"): (
        lambda r: 1.0 / np.tan(r), lambda m, b, r: -(m * m) / np.sin(r) ** 2, np.sin),
}


def _assert_radial_table(ode, m, b, rs, s):
    """pcoef, qcoef and weight equal the table bit for bit, on the array
    and on each of its points as a scalar."""
    p, q0, w = _RADIAL_TABLE[ode.geometry, ode.field_kind]
    m = float(m)
    for r in [rs] + [float(x) for x in rs]:
        x = np.asarray(r, dtype=float)
        assert np.array_equal(ode.pcoef(r), p(x))
        assert np.array_equal(ode.qcoef(r, s), q0(m, b, x) + s)
        assert np.array_equal(ode.weight(r), w(x))


def test_radial_flat_magnetic_coefficients():
    ode = assemble_radial_ode(_spec("flat", b=1.0), QuantumNumbers(n=0, m=2))
    rs = np.array([0.3, 1.0, 2.5])
    assert_allclose(ode.pcoef(rs), 1.0 / rs, rtol=1e-15)
    expected = 7.0 - (2.0 - rs**2) ** 2 / rs**2
    assert_allclose(ode.qcoef(rs, 7.0), expected, rtol=1e-14)
    _assert_radial_table(ode, 2, 1.0, rs, 7.0)
    assert ode.eigen_name == "eps_prime"
    assert ode.weight(2.0) == 2.0


def test_radial_lobachevsky_magnetic_coefficients():
    ode = assemble_radial_ode(_spec("lobachevsky", b=5.0), QuantumNumbers(n=0, m=1))
    rs = np.array([0.2, 0.9, 3.0])
    assert_allclose(ode.pcoef(rs), np.cosh(rs) / np.sinh(rs), rtol=1e-14)
    expected = 13.0 - (1.0 - 5.0 * (np.cosh(rs) - 1.0)) ** 2 / np.sinh(rs) ** 2
    assert_allclose(ode.qcoef(rs, 13.0), expected, rtol=1e-14)
    _assert_radial_table(ode, 1, 5.0, rs, 13.0)
    assert ode.eigen_name == "Lambda"
    assert_allclose(ode.weight(rs), np.sinh(rs))


def test_radial_spherical_magnetic_coefficients():
    ode = assemble_radial_ode(_spec("spherical", b=2.0), QuantumNumbers(n=1, m=-1))
    rs = np.array([0.4, 1.5, 2.8])
    assert_allclose(ode.pcoef(rs), np.cos(rs) / np.sin(rs), rtol=1e-13)
    expected = 4.0 - (-1.0 + 2.0 * (np.cos(rs) - 1.0)) ** 2 / np.sin(rs) ** 2
    assert_allclose(ode.qcoef(rs, 4.0), expected, rtol=1e-13)
    _assert_radial_table(ode, -1, 2.0, rs, 4.0)
    assert ode.domain == (0.0, math.pi)
    labels = {p.label for p in ode.singular_points}
    assert labels == {"axis", "antipode"}


def test_radial_electric_coefficients():
    flat = assemble_radial_ode(_spec("flat", "electric", nu=1.0), QuantumNumbers(0, 3))
    assert_allclose(flat.qcoef(2.0, 1.0), 1.0 - 9.0 / 4.0)
    assert flat.eigen_name == "w_perp"
    lob = assemble_radial_ode(_spec("lobachevsky", "electric", nu=1.0), QuantumNumbers(0, 2))
    assert_allclose(lob.qcoef(1.0, 0.0), -4.0 / math.sinh(1.0) ** 2)
    sph = assemble_radial_ode(_spec("spherical", "electric", nu=1.0), QuantumNumbers(0, 2))
    assert_allclose(sph.qcoef(1.0, 0.0), -4.0 / math.sin(1.0) ** 2)
    rs = np.array([0.25, 1.0, 2.0, 3.0])
    for ode, m in ((flat, 3), (lob, 2), (sph, 2)):
        _assert_radial_table(ode, m, 0.0, rs, 1.5)


@given(
    s=st.floats(min_value=-20.0, max_value=20.0),
    r=st.floats(min_value=0.05, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_radial_eigen_enters_additively(s, r):
    ode = assemble_radial_ode(_spec("lobachevsky", b=2.0), QuantumNumbers(0, 1))
    assert_allclose(ode.qcoef(r, s), ode.qcoef(r, 0.0) + s, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# axial equations: coefficients verbatim
# ---------------------------------------------------------------------------

def test_axial_flat_magnetic_rejected():
    with pytest.raises(ParameterError):
        assemble_axial_ode(_spec("flat", b=1.0), 2.0)


def test_axial_lobachevsky_magnetic_coefficients():
    """Z'' + 2 th z Z' + (eps - U) Z = 0 with U = -(b g - L ch^2 z)/(ch^4 z - g^2)."""
    L, b, g, eps = 13.0, 5.0, 0.2, 3.0
    ode = assemble_axial_ode(_spec("lobachevsky", b=b, gamma=g), L, epsilon=eps)
    zs = np.array([-1.3, 0.0, 0.5, 2.0])
    assert_allclose(ode.pcoef(zs), 2.0 * np.tanh(zs), rtol=1e-15)
    ch2 = np.cosh(zs) ** 2
    U = -(b * g - L * ch2) / (ch2**2 - g**2)
    assert_allclose(ode.qcoef(zs, 0.0), eps - U, rtol=1e-14)
    # companion normal form: f = Z ch z shifts the constant by -1
    schro = ode.schrodinger
    assert_allclose(schro.pcoef(zs), np.zeros(4))
    assert_allclose(schro.qcoef(zs, 0.0), ode.qcoef(zs, 0.0) - 1.0, rtol=1e-14)
    # bit for bit, in the library's sech^2 form s = 4 e^2/(1 + e^2)^2, e = exp(-|z|)
    e2 = np.exp(-2.0 * np.abs(zs))
    sech2 = 4.0 * e2 / ((1.0 + e2) * (1.0 + e2))
    U_lib = sech2 * (L - b * g * sech2) / (1.0 - g * g * sech2 * sech2)
    assert np.array_equal(ode.pcoef(zs), 2.0 * np.tanh(zs))
    assert np.array_equal(ode.qcoef(zs, 0.5), eps - U_lib + 0.5)
    assert np.array_equal(schro.qcoef(zs, 0.5), (eps + 0.5) - 1.0 - U_lib)


def test_axial_spherical_magnetic_coefficients():
    """Z'' - 2 tg z Z' + (eps - U) Z = 0 with U = (b g + L cos^2 z)/(cos^4 z - g^2)."""
    L, b, g, eps = 5.0, 1.0, 0.3, 2.0
    ode = assemble_axial_ode(_spec("spherical", b=b, gamma=g), L, epsilon=eps)
    zs = np.array([-1.0, 0.2, 1.1])
    assert_allclose(ode.pcoef(zs), -2.0 * np.tan(zs), rtol=1e-14)
    c2 = np.cos(zs) ** 2
    U = (b * g + L * c2) / (c2**2 - g**2)
    assert_allclose(ode.qcoef(zs, 0.0), eps - U, rtol=1e-13)
    assert_allclose(ode.schrodinger.qcoef(zs, 0.0), ode.qcoef(zs, 0.0) + 1.0, rtol=1e-13)
    assert ode.domain == (-math.pi / 2, math.pi / 2)
    # bit for bit, in the library's form
    U_lib = (b * g + L * c2) / (c2 * c2 - g * g)
    assert np.array_equal(ode.pcoef(zs), -2.0 * np.tan(zs))
    assert np.array_equal(ode.qcoef(zs, 0.5), eps - U_lib + 0.5)
    assert np.array_equal(ode.schrodinger.qcoef(zs, 0.5), (eps + 0.5) + 1.0 - U_lib)


def test_axial_magnetic_singular_points():
    g = 0.25
    ode = assemble_axial_ode(_spec("lobachevsky", b=1.0, gamma=g), 2.0)
    locs = sorted(p.location for p in ode.singular_points)
    assert locs == [-g, 0.0, g, 1.0, math.inf]
    assert len(ode.singular_points) == 5


def test_axial_flat_electric_coefficients():
    """q = w' + nu z with w' = w - w_perp + (1/lc^2) g^2/(1+g^2)."""
    w_perp, w, g, lc, nu = 2.0, 5.0, 0.3, 0.25, 1.5
    spec = _spec("flat", "electric", nu=nu, gamma=g)
    ode = assemble_axial_ode(spec, w_perp, w=w, compton=lc)
    w_prime = w - w_perp + g * g / ((1 + g * g) * lc * lc)
    assert_allclose(ode.params["w_prime"], w_prime, rtol=1e-15)
    zs = np.array([-2.0, 0.0, 1.0])
    assert_allclose(ode.qcoef(zs, 0.0), w_prime + nu * zs, rtol=1e-14)
    assert_allclose(ode.pcoef(zs), np.zeros(3))


def test_axial_lobachevsky_electric_coefficients():
    """Transcription check against the longhand coefficient at sample points."""
    L, g, nu, w, mu2 = 3.0, 0.4, 2.0, 1.0, 2.25
    mu = math.sqrt(mu2)
    spec = _spec("lobachevsky", "electric", nu=nu, gamma=g)
    ode = assemble_axial_ode(spec, L, w=w, mu2=mu2)
    for z in (-0.9, 0.3, 0.7, 1.8):
        ch, sh = math.cosh(z), math.sinh(z)
        D = ch**4 + g * g
        q_hand = (
            -2 * mu * g * sh * ch * (g * g - ch**4) / D**2
            - 2 * mu * g * sh * ch / D
            + w
            + nu * math.tanh(z)
            - mu2 * g * g / D
            - L / ch**2
        )
        assert_allclose(ode.qcoef(z, 0.0), q_hand, rtol=1e-14)
        assert_allclose(ode.pcoef(z), 2 * math.tanh(z), rtol=1e-15)


@pytest.mark.parametrize("field", ["magnetic", "electric"])
def test_axial_lobachevsky_coefficients_finite_far_out(field):
    # cosh^4 z overflows beyond |z| ~ 178 and cosh z beyond ~ 710; the
    # sech/tanh forms stay finite (RuntimeWarnings are errors in this suite)
    spec = _spec("lobachevsky", field, b=1.0, nu=1.5, gamma=0.2)
    ode = assemble_axial_ode(spec, 1.0, epsilon=0.5, w=0.3)
    zs = np.array([-1e6, -800.0, -400.0, -200.0, 200.0, 400.0, 800.0, 1e6])
    q = ode.qcoef(zs, 0.0)
    assert np.all(np.isfinite(q)) and np.all(np.isfinite(ode.pcoef(zs)))
    # far out the potential terms vanish: q -> eps (magnetic), w + nu th z (electric)
    far = 0.5 + 0.0 * zs if field == "magnetic" else 0.3 + 1.5 * np.sign(zs)
    assert_allclose(q, far, rtol=0, atol=1e-12)


def test_axial_spherical_electric_coefficients():
    """Raw second-derivative factor c2 = (cos^4 z + 2 g^2)/(cos^4 z + g^2) divided out."""
    L, g, nu, w, mu2 = 2.0, 0.35, 1.0, 0.5, 4.0
    mu = 2.0
    spec = _spec("spherical", "electric", nu=nu, gamma=g)
    ode = assemble_axial_ode(spec, L, w=w, mu2=mu2)
    for z in (-1.1, -0.4, 0.2, 0.9):
        cz, sz = math.cos(z), math.sin(z)
        u = cz**4
        D = u + g * g
        c2 = (u + 2 * g * g) / D
        c1 = (
            -2 * (sz / cz) * (g * g * u + 2 * g**4 + u * u) / D**2
            - mu * g * cz * cz / D
        )
        c0 = (
            4 * mu * g**3 * sz * cz / D**2
            + w
            + nu * math.tan(z)
            - mu2 * g * g / D
            - L / cz**2
        )
        assert_allclose(ode.pcoef(z), c1 / c2, rtol=1e-13)
        assert_allclose(ode.qcoef(z, 0.0), c0 / c2, rtol=1e-13)


def _spherical_electric_closures(Lambda, gam, nu, w, mu2):
    """assemble_axial_ode's spherical electric p and q as first written, each
    evaluating cos z and the Z'' factor c2z on its own: the bit-level
    reference for the shared terms(z)."""
    mu = math.sqrt(mu2)

    def c2z(z):
        u = np.cos(np.asarray(z, dtype=float)) ** 4
        return (u + 2.0 * gam * gam) / (u + gam * gam)

    def pcoef(z):
        z = np.asarray(z, dtype=float)
        cz = np.cos(z)
        sz = np.sin(z)
        u = cz**4
        D = u + gam * gam
        raw = (
            -2.0 * (sz / cz) * (gam * gam * u + 2.0 * gam**4 + u * u) / (D * D)
            - mu * gam * cz * cz / D
        )
        return raw / c2z(z)

    def qcoef(z, s):
        z = np.asarray(z, dtype=float)
        cz = np.cos(z)
        sz = np.sin(z)
        u = cz**4
        D = u + gam * gam
        raw = (
            4.0 * mu * gam**3 * sz * cz / (D * D)
            + (w + s)
            + nu * np.tan(z)
            - mu2 * gam * gam / D
            - Lambda / (cz * cz)
        )
        return raw / c2z(z)

    return pcoef, qcoef


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_axial_spherical_electric_terms_equal_two_closures_bit_for_bit():
    rng = np.random.default_rng(37)
    edge = math.pi / 2
    zs = np.concatenate([
        rng.uniform(-edge, edge, 200),
        [0.0, -0.0, edge, -edge, np.nextafter(edge, 0.0), 1e-300, -1e-12],
        edge - 10.0 ** rng.uniform(-15.0, -1.0, 50),
    ])
    for _ in range(60):
        Lambda, nu, w = rng.uniform(-5.0, 5.0, 3)
        gam = float(rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-8.0, 3.0)]))
        mu2 = float(rng.choice([0.0, rng.uniform(0.0, 10.0)]))
        ode = assemble_axial_ode(_spec("spherical", "electric", nu=nu, gamma=gam), Lambda, w=w, mu2=mu2)
        pcoef, qcoef = _spherical_electric_closures(Lambda, gam, nu, w, mu2)
        s = float(rng.uniform(-2.0, 2.0))
        assert _same_bits(ode.pcoef(zs), pcoef(zs)), (Lambda, gam, nu, w, mu2)
        assert _same_bits(ode.qcoef(zs, s), qcoef(zs, s)), (Lambda, gam, nu, w, mu2)
        for z in zs[::25].tolist():  # scalar calls, as the integrator makes them
            assert _same_bits(ode.pcoef(z), pcoef(z)), z
            assert _same_bits(ode.qcoef(z, s), qcoef(z, s)), z


@given(
    z=st.floats(min_value=-2.0, max_value=2.0),
    s=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=40, deadline=None)
def test_axial_eigen_offset_additive(z, s):
    ode = assemble_axial_ode(
        _spec("lobachevsky", b=2.0, gamma=0.1), 6.0, epsilon=1.0
    )
    assert_allclose(ode.qcoef(z, s), ode.qcoef(z, 0.0) + s, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# flat-space limit of the curved radial coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geo", ["lobachevsky", "spherical"])
def test_radial_flat_limit_coherence(geo):
    """At curvature radius rho, the curved equation evaluated at r = s/rho
    reproduces the flat equation at s to O(1/rho^2): p_c(s/rho)/rho -> 1/s and
    q_c(s/rho, rho^2 e)/rho^2 -> q_f(s, e), with b_curved = 2 b_flat rho^2."""
    rho = 1e4
    b_flat, m, eps = 1.0, 2, 7.0
    flat = assemble_radial_ode(_spec("flat", b=b_flat), QuantumNumbers(0, m))
    curved = assemble_radial_ode(
        _spec(geo, b=2.0 * b_flat * rho**2, rho=rho), QuantumNumbers(0, m)
    )
    for s in (0.5, 1.5, 3.0):
        assert abs(curved.pcoef(s / rho) / rho - flat.pcoef(s)) < 1e-6
        qf = flat.qcoef(s, eps)
        qc = curved.qcoef(s / rho, rho**2 * eps) / rho**2
        assert abs(qc - qf) < 1e-6 * max(1.0, abs(qf))
