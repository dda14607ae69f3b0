"""Spec and quantum-number validation and separated-equation coefficients."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coxlab.backgrounds import (
    _SECTIONS,
    BackgroundSpec,
    QuantumNumbers,
    assemble_axial_ode,
    assemble_radial_ode,
)
from coxlab.axial import effective_potential
from coxlab.errors import InvalidEta, ParameterError
from coxlab.radial import analytic_spectrum


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
    # the library works at curvature radius 1; there is no rho to set
    with pytest.raises(TypeError, match="rho"):
        BackgroundSpec(geometry="spherical", rho=1.0)
    with pytest.raises(InvalidEta):
        BackgroundSpec(geometry="flat", field="magnetic", eta=1.5)
    # eta is unconstrained for electric configurations
    BackgroundSpec(geometry="flat", field="electric", eta=1.5)


@pytest.mark.parametrize("name", ["b", "nu", "eta", "gamma"])
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


@pytest.mark.parametrize("name, kw", [
    ("n", {"n": 1.5, "m": 0}), ("m", {"n": 0, "m": -0.5}),
    ("n", {"n": math.nan, "m": 0}), ("m", {"n": 0, "m": math.nan}),
    ("n", {"n": math.inf, "m": 0}), ("m", {"n": 0, "m": -math.inf}),
    ("k", {"n": 0, "m": 0, "k": math.nan}), ("k", {"n": 0, "m": 0, "k": math.inf}),
    ("k", {"n": 0, "m": 0, "k": -math.inf}),
])
def test_quantum_numbers_refuse_non_integral_or_non_finite(name, kw):
    """n = 1.5 answered Lambda = 8.0 with valid=True (no level has it), a
    NaN n or m was refused as an overflowing Lambda, and a NaN or infinite
    k was accepted; each is now refused, by the field's name."""
    what = {"n": "radial quantum number n must be an integer",
            "m": "azimuthal quantum number m must be an integer",
            "k": "axial wavenumber k must be finite"}[name]
    with pytest.raises(ParameterError, match=what):
        QuantumNumbers(**kw)


def test_quantum_numbers_take_integral_floats_and_numpy_integers():
    for geometry in ("flat", "lobachevsky", "spherical"):
        spec = _spec(geometry, b=3.0)
        want = analytic_spectrum(spec, QuantumNumbers(1, -2, 0.5))
        for n, m in ((1.0, -2.0), (np.int64(1), np.int32(-2))):
            got = analytic_spectrum(spec, QuantumNumbers(n, m, 0.5))
            assert (got.Lambda, got.epsilon, got.valid, got.branch, got.reason) == (
                want.Lambda, want.epsilon, want.valid, want.branch, want.reason)
    with pytest.raises(ParameterError, match="n must be >= 0"):
        QuantumNumbers(-1.0, 0)


_GEOS = ("flat", "lobachevsky", "spherical")
# the axial metric factor a(z) of each section
_A = {"flat": lambda z: 1.0, "lobachevsky": lambda z: math.cosh(z) ** 2,
      "spherical": lambda z: math.cos(z) ** 2}


@pytest.mark.parametrize("geo", _GEOS)
def test_section_relations_by_central_differences(geo):
    """Radial p = w'/w and axial p = a'/a, with a = 1, ch^2 z, cos^2 z."""
    h = 1e-5
    mag, ele = _spec(geo, b=1.3), _spec(geo, "electric", nu=0.7)
    radial = assemble_radial_ode(mag, QuantumNumbers(0, 1))
    axial = assemble_axial_ode(mag if geo != "flat" else ele, 1.0)
    a = _A[geo]
    for r in (0.3, 1.1, 2.4):
        w = radial.weight
        assert_allclose(radial.pcoef(r), (w(r + h) - w(r - h)) / (2 * h * w(r)), rtol=1e-8)
    for z in (-1.2, 0.2, 0.9):
        assert_allclose(axial.pcoef(z), (a(z + h) - a(z - h)) / (2 * h * a(z)), rtol=1e-8,
                        atol=1e-12)


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


# m and b for the chart-end checks: m + 2b != 0, so the antipode is not degenerate
_M, _B = 2, 1.3
# far point r, then (factor, limit) for p and for q0: factor * p -> limit.  The
# sphere's antipode is a regular singular point like the axis; at infinity the
# flat magnetic q0 grows like -b^2 r^2, the Lobachevsky q0 tends to -b^2
# (magnetic) or 0 (electric) and the flat electric q0 is -m^2 / r^2
_FAR_END = {
    ("flat", "magnetic"): (1e4, lambda r: r, 1.0, lambda r: r**-2, -_B**2),
    ("flat", "electric"): (1e4, lambda r: r, 1.0, lambda r: r**2, -_M**2),
    ("lobachevsky", "magnetic"): (40.0, lambda r: 1.0, 1.0, lambda r: 1.0, -_B**2),
    ("lobachevsky", "electric"): (40.0, lambda r: 1.0, 1.0, lambda r: 1.0, 0.0),
    ("spherical", "magnetic"): (math.pi - 1e-6, lambda r: math.pi - r, -1.0,
                                lambda r: (math.pi - r) ** 2, -((_M - 2 * _B) ** 2)),
    ("spherical", "electric"): (math.pi - 1e-6, lambda r: math.pi - r, -1.0,
                                lambda r: (math.pi - r) ** 2, -_M**2),
}
_R_END = {"flat": math.inf, "lobachevsky": math.inf, "spherical": math.pi}


@pytest.mark.parametrize("geo", _GEOS)
@pytest.mark.parametrize("field", ["magnetic", "electric"])
def test_axis_is_a_coordinate_singularity(geo, field):
    """The domain starts at the axis r = 0, a regular singular point of every
    radial equation: w(r) ~ r there, so r p -> 1 and r^2 q0 -> -m^2 (A_phi(0) = 0)."""
    ode = assemble_radial_ode(_spec(geo, field, b=_B, nu=1.0), QuantumNumbers(0, _M))
    assert ode.domain[0] == 0.0
    for r in (1e-6, 1e-5):
        assert_allclose(r * ode.pcoef(r), 1.0, rtol=1e-9)
        assert_allclose(r * r * ode.qcoef(r, 0.0), -(_M**2), rtol=1e-8)


@pytest.mark.parametrize("geo", _GEOS)
@pytest.mark.parametrize("field", ["magnetic", "electric"])
def test_radial_far_end_of_the_chart(geo, field):
    """The domain ends at the section's r_end (infinity or the sphere's
    antipode), and p and q0 approach there the forms that fix each spectrum:
    the antipode carries the exponents +-(m - 2b) (magnetic) or +-m (electric)."""
    ode = assemble_radial_ode(_spec(geo, field, b=_B, nu=1.0), QuantumNumbers(0, _M))
    assert ode.domain == (0.0, _R_END[geo])
    r, fp, p_lim, fq, q_lim = _FAR_END[geo, field]
    assert_allclose(fp(r) * ode.pcoef(r), p_lim, rtol=1e-6)
    assert_allclose(fq(r) * ode.qcoef(r, 0.0), q_lim, rtol=1e-6, atol=1e-12)


# ---------------------------------------------------------------------------
# axial equations: coefficients verbatim
# ---------------------------------------------------------------------------

def test_axial_flat_magnetic_rejected():
    with pytest.raises(ParameterError):
        assemble_axial_ode(_spec("flat", b=1.0), 2.0)


@pytest.mark.parametrize("geo", _GEOS)
@pytest.mark.parametrize("kw, message", [
    ({"compton": 0.0}, "compton wavelength must be positive"),
    ({"compton": -0.5}, "compton wavelength must be positive"),
    ({"mu2": -1.0}, "mu2 must be non-negative"),
], ids=["compton-zero", "compton-negative", "mu2-negative"])
def test_axial_electric_refuses_unphysical_parameters(geo, kw, message):
    """hbar/Mc must be positive and (M c rho/hbar)^2 non-negative on every
    section; mu2 = 0 is the massless edge and is assembled."""
    spec = _spec(geo, "electric", nu=1.0, gamma=0.3)
    with pytest.raises(ParameterError, match=message):
        assemble_axial_ode(spec, 2.0, **kw)
    assert assemble_axial_ode(spec, 2.0, mu2=0.0).field_kind == "electric"


def test_axial_lobachevsky_magnetic_coefficients():
    """Z'' + 2 th z Z' + (eps - U) Z = 0 with U = -(b g - L ch^2 z)/(ch^4 z - g^2)."""
    L, b, g, eps = 13.0, 5.0, 0.2, 3.0
    ode = assemble_axial_ode(_spec("lobachevsky", b=b, gamma=g), L, epsilon=eps)
    zs = np.array([-1.3, 0.0, 0.5, 2.0])
    assert_allclose(ode.pcoef(zs), 2.0 * np.tanh(zs), rtol=1e-15)
    ch2 = np.cosh(zs) ** 2
    U = -(b * g - L * ch2) / (ch2**2 - g**2)
    assert_allclose(ode.qcoef(zs, 0.0), eps - U, rtol=1e-14)
    # bit for bit, in the library's sech^2 form s = 4 e^2/(1 + e^2)^2, e = exp(-|z|)
    e2 = np.exp(-2.0 * np.abs(zs))
    sech2 = 4.0 * e2 / ((1.0 + e2) * (1.0 + e2))
    U_lib = sech2 * (L - b * g * sech2) / (1.0 - g * g * sech2 * sech2)
    assert np.array_equal(ode.pcoef(zs), 2.0 * np.tanh(zs))
    assert np.array_equal(ode.qcoef(zs, 0.5), eps - U_lib + 0.5)


def test_axial_spherical_magnetic_coefficients():
    """Z'' - 2 tg z Z' + (eps - U) Z = 0 with U = (b g + L cos^2 z)/(cos^4 z - g^2)."""
    L, b, g, eps = 5.0, 1.0, 0.3, 2.0
    ode = assemble_axial_ode(_spec("spherical", b=b, gamma=g), L, epsilon=eps)
    zs = np.array([-1.0, 0.2, 1.1])
    assert_allclose(ode.pcoef(zs), -2.0 * np.tan(zs), rtol=1e-14)
    c2 = np.cos(zs) ** 2
    U = (b * g + L * c2) / (c2**2 - g**2)
    assert_allclose(ode.qcoef(zs, 0.0), eps - U, rtol=1e-13)
    assert ode.domain == (-math.pi / 2, math.pi / 2)
    # bit for bit, in the library's form
    U_lib = (b * g + L * c2) / (c2 * c2 - g * g)
    assert np.array_equal(ode.pcoef(zs), -2.0 * np.tan(zs))
    assert np.array_equal(ode.qcoef(zs, 0.5), eps - U_lib + 0.5)


@pytest.mark.parametrize("geo", ["lobachevsky", "spherical"])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_schrodinger_form_is_the_axial_equation_in_f_equals_z_sqrt_a(geo, gamma):
    """f = Z sqrt(a) turns Z'' + p Z' + q Z = 0 into f'' + (q - p'/2 - p^2/4) f = 0;
    with p = a'/a and q = eps - U that is f'' + (eps + kappa - U) f = 0, kappa
    the section's curvature and U the effective potential (p' by central
    differences)."""
    h = 1e-5
    kappa = _SECTIONS[geo].curvature
    spec = _spec(geo, b=1.5, gamma=gamma)
    ode = assemble_axial_ode(spec, 2.0, epsilon=0.7)
    for z in (-0.7, 0.1, 0.6):
        p = ode.pcoef(z)
        dp = (ode.pcoef(z + h) - ode.pcoef(z - h)) / (2 * h)
        U = effective_potential(spec, 2.0, z)
        assert_allclose(ode.qcoef(z, 0.4) - dp / 2 - p * p / 4, (0.7 + 0.4) + kappa - U,
                        rtol=1e-8, atol=1e-9)


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
        _spec(geo, b=2.0 * b_flat * rho**2), QuantumNumbers(0, m)
    )
    for s in (0.5, 1.5, 3.0):
        assert abs(curved.pcoef(s / rho) / rho - flat.pcoef(s)) < 1e-6
        qf = flat.qcoef(s, eps)
        qc = curved.qcoef(s / rho, rho**2 * eps) / rho**2
        assert abs(qc - qf) < 1e-6 * max(1.0, abs(qf))
