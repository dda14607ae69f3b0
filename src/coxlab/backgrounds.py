"""Uniform field configurations on flat, Lobachevsky and spherical sections.

Cylindric-type coordinates (r, phi, z) are used on all three spatial
geometries (curvature radius rho scaled to 1 in library units):

    flat:         dS^2 = c^2 dt^2 - dr^2 - r^2 dphi^2 - dz^2
    lobachevsky:  dS^2 = c^2 dt^2 - ch^2 z (dr^2 + sh^2 r dphi^2) - dz^2
    spherical:    dS^2 = c^2 dt^2 - cos^2 z (dr^2 + sin^2 r dphi^2) - dz^2

that is, dS^2 = c^2 dt^2 - a(z)(dr^2 + w(r)^2 dphi^2) - dz^2 with
(a, w) = (1, r), (ch^2 z, sh r), (cos^2 z, sin r).  One private `_Section`
record per geometry holds a, w, the potentials, the chart ends and the
curved magnetic axial problem in y = a(z); the local field data, the
radial equation and `axial` read it instead of branching on the
geometry, so the six radial equations are one formula, and so are the
poles, equilibria and local forms of the two curved axial problems.

A uniform magnetic field along the axis has gauge potential A_phi and
strength parameter b (flat: b = eB/2hbar*c, curved: b = eB rho^2/hbar c);
a uniform axial electric field has potential A_0 and strength nu
(flat: nu = 2MeE/hbar^2, curved: nu = 2MeE rho^3/hbar^2).  The intrinsic
structure enters through eta = Gamma*B (flat) or the profile
gamma(z) = gamma / ch^2 z (Lobachevsky), gamma / cos^2 z (spherical)
with constant gamma = Gamma*B.

This module assembles the separated radial and axial ordinary
differential equations exactly as they arise from the extended
Schroedinger operator; analytic spectra and solvers live in `radial`
and `axial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidEta, ParameterError
from .tensor_algebra import DiagonalMetric, FieldConfig3, field_invariants

__all__ = [
    "BackgroundSpec",
    "QuantumNumbers",
    "SingularPoint",
    "SeparatedODE",
    "gauge_potential",
    "field_components",
    "metric_at",
    "gamma_profile",
    "assemble_radial_ode",
    "assemble_axial_ode",
    "magnetic_strength_parameter",
    "electric_strength_parameter",
    "flat_equivalent_magnetic_b",
]

_GEOMETRIES = ("flat", "lobachevsky", "spherical")
_FIELDS = ("magnetic", "electric")


@dataclass(frozen=True)
class BackgroundSpec:
    """Geometry + uniform field configuration in dimensionless library units.

    b      magnetic strength (flat: eB/2hc; curved: eB rho^2/hc)
    nu     electric strength (flat: 2MeE/h^2; curved: 2MeE rho^3/h^2)
    eta    flat-space structure parameter Gamma*B (|eta| < 1 for bound spectra)
    gamma  structure parameter Gamma*B (curved), or Gamma*E (flat electric)
    rho    curvature radius in physical units; coordinates are scaled by it
    """

    geometry: str
    field: str = "magnetic"
    rho: float = 1.0
    b: float = 0.0
    nu: float = 0.0
    eta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        isfinite = math.isfinite
        if not (isfinite(self.rho) and isfinite(self.b) and isfinite(self.nu)
                and isfinite(self.eta) and isfinite(self.gamma)):
            for name in ("rho", "b", "nu", "eta", "gamma"):
                if not isfinite(getattr(self, name)):
                    raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.geometry not in _GEOMETRIES:
            raise ParameterError(f"unknown geometry {self.geometry!r}")
        if self.field not in _FIELDS:
            raise ParameterError(f"unknown field kind {self.field!r}")
        if self.geometry != "flat" and not self.rho > 0:
            raise ParameterError("curved geometries require rho > 0")
        if self.geometry == "flat" and self.field == "magnetic" and abs(self.eta) >= 1.0:
            raise InvalidEta(
                f"flat magnetic configuration requires |eta| < 1, got {self.eta}"
            )


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial excitation n >= 0, azimuthal m, axial wavenumber k."""

    n: int
    m: int
    k: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("radial quantum number n must be >= 0")


@dataclass(frozen=True)
class SingularPoint:
    """Singular point of a separated equation in the indicated variable."""

    label: str
    location: float
    variable: str = "y"


@dataclass(eq=False)
class SeparatedODE:
    """One separated equation  u'' + p(x) u' + q(x, s) u = 0.

    ``qcoef(x, s)`` is affine in the spectral offset s: q = q0(x) + s.
    For radial equations s *is* the spectral parameter named by
    ``eigen_name`` (eps_prime, Lambda or w_perp); for axial equations
    every parameter is fixed at assembly and s is an additive offset
    from those values (pass 0 to evaluate the assembled equation).

    ``weight`` is the measure making the radial operator self-adjoint
    (r, sh r or sin r); ``schrodinger`` holds the companion normal form
    f'' + (q - U) f = 0 obtained from the curved axial equations by
    f = Z ch z (Lobachevsky) or f = Z cos z (spherical).

    ``pcoef``, ``qcoef`` and ``weight`` must accept arrays of x and return
    arrays of the same shape (or scalars, for constant coefficients):
    integrators evaluate them once over all their nodes.  Radial
    equations also carry ``q0_weighted(x, w)``, the same q0 from the
    weight w already evaluated at x, so a grid evaluates the weight once.
    """

    kind: str
    geometry: str
    field_kind: str
    domain: tuple[float, float]
    pcoef: Callable
    qcoef: Callable
    eigen_name: str
    weight: Callable | None = None
    q0_weighted: Callable | None = None
    singular_points: tuple[SingularPoint, ...] = ()
    params: dict = field(default_factory=dict)
    schrodinger: "SeparatedODE | None" = None
    note: str = ""


@dataclass(frozen=True)
class _Section:
    """One spatial section dS^2 = c^2 dt^2 - a(z)(dr^2 + w(r)^2 dphi^2) - dz^2.

    Radial part: the weight w, p_r = w'/w, the magnetic potential
    A_phi(b, r), B_3 = dA_phi/dr and the chart end r_end (the singular
    point r_end_name).  Axial part: a, p_z = a'/a, t with t' = 1/a (so
    A_0 = -nu t and E_3 = nu/a) and the chart bound |z| < z_end (named
    z_end_name).  ``curvature`` kappa (+1 sphere, -1 Lobachevsky, 0 flat)
    is the constant that f = Z sqrt(a) adds to the axial equation;
    ``eigen`` names the radial spectral parameter per field kind.  The
    callables take floats or arrays.

    The curved magnetic axial problem lives in y = a(z) (y_name), which
    spans y_range on the chart; z_of_y inverts a for z >= 0.  ``u``,
    ``force`` and ``pole`` hold U = (kappa b g + L y)/(y^2 - g^2), F =
    -dU/dz as a function of (L, b), and the test |y^2 - g^2| < tol, in
    closed forms finite on the whole chart (Lobachevsky in s = sech^2 z,
    the sphere in cos^2 z).  The flat section leaves them None.
    """

    w: Callable
    p_r: Callable
    a_phi: Callable
    b3: Callable
    r_end: float
    r_end_name: str
    a: Callable
    p_z: Callable
    t: Callable
    z_end: float
    z_end_name: str
    curvature: float
    eigen: dict[str, str]
    y_name: str | None = None
    y_range: tuple[float, float] | None = None
    z_of_y: Callable | None = None
    u: Callable | None = None
    force: Callable | None = None
    pole: Callable | None = None


def _asfloat(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _sech2(z: np.ndarray) -> np.ndarray:
    """sech^2 z from e = exp(-|z|): 4 e^2 / (1 + e^2)^2, finite for every z
    (cosh z overflows beyond |z| ~ 710, cosh^4 z beyond |z| ~ 178)."""
    e2 = np.exp(-2.0 * np.abs(z))
    return 4.0 * e2 / ((1.0 + e2) * (1.0 + e2))


def _u_lobachevsky(Lambda, b, g, z):
    # U = -(b g - L ch^2 z)/(ch^4 z - g^2) = s (L - b g s)/(1 - g^2 s^2)
    s = _sech2(_asfloat(z))
    return s * (Lambda - b * g * s) / (1.0 - g * g * s * s)


def _force_lobachevsky(g, z):
    # F = 2 t s (L - 2 b g s + g^2 L s^2)/(1 - g^2 s^2)^2,  t = th z
    t, s = np.tanh(z), _sech2(z)
    den = 1.0 - g * g * s * s
    return lambda L, b: 2.0 * t * s * (L - 2.0 * b * g * s + g * g * L * s * s) / (den * den)


def _pole_lobachevsky(g, z, tol):
    # |ch^4 z - g^2| < tol, multiplied through by s^2 so ch^4 z never overflows
    s = _sech2(z)
    return np.abs(1.0 - g * g * s * s) < tol * s * s


def _u_spherical(Lambda, b, g, z):
    c2 = np.cos(_asfloat(z)) ** 2
    return (b * g + Lambda * c2) / (c2 * c2 - g * g)


def _force_spherical(g, z):
    # F = -2 cos z sin z (L cos^4 z + 2 b g cos^2 z + g^2 L)/(cos^4 z - g^2)^2
    c, s = np.cos(z), np.sin(z)
    c2 = c * c
    den = c2 * c2 - g * g
    return lambda L, b: -2.0 * c * s * (L * c2 * c2 + 2.0 * b * g * c2 + g * g * L) / (den * den)


def _pole_spherical(g, z, tol):
    c2 = np.cos(z) ** 2
    return np.abs(c2 * c2 - g * g) < tol


_SECTIONS = {
    "flat": _Section(
        w=_asfloat, p_r=lambda r: 1.0 / _asfloat(r),
        a_phi=lambda b, r: -b * r * r, b3=lambda b, r: -2.0 * b * r,
        r_end=math.inf, r_end_name="infinity",
        a=lambda z: np.ones_like(_asfloat(z)), p_z=lambda z: np.zeros_like(_asfloat(z)),
        t=_asfloat, z_end=math.inf, z_end_name="infinity",
        curvature=0.0, eigen={"magnetic": "eps_prime", "electric": "w_perp"},
    ),
    "lobachevsky": _Section(
        w=lambda r: np.sinh(_asfloat(r)), p_r=lambda r: 1.0 / np.tanh(_asfloat(r)),
        a_phi=lambda b, r: -b * (np.cosh(r) - 1.0), b3=lambda b, r: -b * np.sinh(r),
        r_end=math.inf, r_end_name="infinity",
        a=lambda z: np.cosh(_asfloat(z)) ** 2, p_z=lambda z: 2.0 * np.tanh(_asfloat(z)),
        t=lambda z: np.tanh(_asfloat(z)), z_end=math.inf, z_end_name="infinity",
        curvature=-1.0, eigen={"magnetic": "Lambda", "electric": "Lambda"},
        y_name="ch^2 z", y_range=(1.0, math.inf), z_of_y=lambda y: math.acosh(math.sqrt(y)),
        u=_u_lobachevsky, force=_force_lobachevsky, pole=_pole_lobachevsky,
    ),
    "spherical": _Section(
        w=lambda r: np.sin(_asfloat(r)), p_r=lambda r: 1.0 / np.tan(_asfloat(r)),
        a_phi=lambda b, r: b * (np.cos(r) - 1.0), b3=lambda b, r: -b * np.sin(r),
        r_end=math.pi, r_end_name="antipode",
        a=lambda z: np.cos(_asfloat(z)) ** 2, p_z=lambda z: -2.0 * np.tan(_asfloat(z)),
        t=lambda z: np.tan(_asfloat(z)), z_end=math.pi / 2, z_end_name="pi/2",
        curvature=1.0, eigen={"magnetic": "Lambda", "electric": "Lambda"},
        y_name="cos^2 z", y_range=(0.0, 1.0), z_of_y=lambda y: math.acos(math.sqrt(y)),
        u=_u_spherical, force=_force_spherical, pole=_pole_spherical,
    ),
}


# ---------------------------------------------------------------------------
# gauge potentials and local field data
# ---------------------------------------------------------------------------

def _on_chart(spec: BackgroundSpec, r: float = 0.0, z: float = 0.0) -> _Section:
    """The section of `spec`, after refusing (r, z) off its chart:
    r must be finite in [0, r_end] and |z| < z_end."""
    sec = _SECTIONS[spec.geometry]
    if not (0.0 <= r <= sec.r_end and r < math.inf):
        raise DomainError(f"{spec.geometry} chart needs finite r in [0, {sec.r_end}], got {r}")
    if not abs(z) < sec.z_end:
        raise DomainError(f"{spec.geometry} chart needs finite z with |z| < {sec.z_end}, got {z}")
    return sec


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def gauge_potential(spec: BackgroundSpec, coord: float) -> float:
    """A_phi(r) for magnetic configurations, A_0(z) for electric ones.

        flat magnetic:         A_phi = -B r^2 / 2          (B = 2b)
        lobachevsky magnetic:  A_phi = -b (ch r - 1)
        spherical magnetic:    A_phi = +b (cos r - 1),  0 <= r <= pi
        flat electric:         A_0   = -E z                (E ~ nu)
        lobachevsky electric:  A_0   = -E th z
        spherical electric:    A_0   = -E tg z,        |z| < pi/2

    Coordinates off the chart, NaN or infinite raise DomainError, and
    so does a potential that overflows double.
    """
    c = float(coord)
    if spec.field == "magnetic":
        A = float(_on_chart(spec, r=c).a_phi(spec.b, c))
    else:
        A = float(-spec.nu * _on_chart(spec, z=c).t(c))
    if not math.isfinite(A):
        raise DomainError(f"gauge potential overflows double at {c}")
    return A


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def metric_at(spec: BackgroundSpec, r: float, z: float = 0.0) -> DiagonalMetric:
    """Diagonal metric components at the point (r, z) on the unit-radius chart.

    Points off the chart, points where g_phiphi vanishes (the axis, or
    w(r)^2 below double range next to it) and metrics that overflow double
    raise DomainError.
    """
    sec = _on_chart(spec, r, z)
    a = float(sec.a(z))
    g22 = float(-a * sec.w(r) ** 2)
    if not math.isfinite(g22):  # an infinite a makes g22 infinite or NaN too
        raise DomainError(f"metric overflows double at r = {r}, z = {z}")
    if g22 == 0.0:  # on the axis, or w(r)^2 below the least double
        near = "" if r == 0.0 else "w(r)^2 below double range near "
        raise DomainError(
            f"g_phiphi = 0 at r = {r}, z = {z} ({near}the axis r = 0, "
            f"a coordinate singularity of the {spec.geometry} chart)"
        )
    return DiagonalMetric(1.0, -a, g22, -1.0)


def gamma_profile(spec: BackgroundSpec, z: float):
    """Local structure parameter gamma(z) = gamma / a(z) tracking the field
    magnitude.  Where a = ch^2 z overflows (|z| > 355 on Lobachevsky) it is
    gamma sech^2 z from `_sech2`, which stays finite."""
    z = np.asarray(z, dtype=float)
    g = spec.gamma
    if spec.geometry == "flat" and spec.field == "magnetic" and spec.eta:
        g = spec.eta
    with np.errstate(over="ignore"):
        a = _SECTIONS[spec.geometry].a(z)
    return np.where(np.isfinite(a), g / a, g * _sech2(z))[()]


@np.errstate(over="ignore", invalid="ignore")  # metric_at/field_invariants refuse overflow
def field_components(
    spec: BackgroundSpec, z: float, r: float = 1.0
) -> tuple[FieldConfig3, float]:
    """Covariant field components at (r, z) and the local invariant magnitude.

    Returns (fields, inv) where inv = |I| is the squared field strength
    seen locally: B^2 for flat magnetic (z-independent), b^2/ch^4 z on
    Lobachevsky (vanishing as z -> inf), b^2/cos^4 z on the sphere
    (diverging towards z = +-pi/2), and the electric analogues with
    E_3 = E/ch^2 z on Lobachevsky.  B_3 = dA_phi/dr and E_3 = nu/a(z).
    Points off the chart and fields that overflow double raise DomainError.
    """
    sec = _on_chart(spec, r, z)
    if spec.field == "magnetic":
        fields = FieldConfig3((0.0, 0.0, 0.0), (0.0, 0.0, float(sec.b3(spec.b, r))))
    else:
        fields = FieldConfig3((0.0, 0.0, float(spec.nu / sec.a(z))), (0.0, 0.0, 0.0))
    inv = abs(field_invariants(fields, metric_at(spec, r, z)).I)
    return fields, inv


# ---------------------------------------------------------------------------
# strength-parameter conversions (the only place physical units appear)
# ---------------------------------------------------------------------------

def magnetic_strength_parameter(B: float, rho: float, geometry: str) -> float:
    """Dimensionless b from a physical field B (natural units e = hbar = c = 1).

    flat: b = B/2;  curved: b = B rho^2.
    """
    if geometry == "flat":
        return B / 2.0
    return B * rho * rho


def electric_strength_parameter(E: float, rho: float, M: float, geometry: str) -> float:
    """Dimensionless nu from a physical field E (natural units e = hbar = c = 1).

    flat: nu = 2ME;  curved: nu = 2ME rho^3.
    """
    if geometry == "flat":
        return 2.0 * M * E
    return 2.0 * M * E * rho**3


def flat_equivalent_magnetic_b(spec: BackgroundSpec) -> float:
    """Flat-space b matching a curved configuration's physical field: b/(2 rho^2)."""
    if spec.geometry == "flat":
        return spec.b
    return spec.b / (2.0 * spec.rho**2)


# ---------------------------------------------------------------------------
# separated radial equations
# ---------------------------------------------------------------------------

def assemble_radial_ode(spec: BackgroundSpec, qn: QuantumNumbers) -> SeparatedODE:
    """Radial equation R'' + p(r) R' + [q0(r) + s] R = 0 for the configuration.

    One formula on every section, with the weight w and the magnetic
    potential A_phi of `gauge_potential` (A_phi = 0 for the electric field):

        p = w'/w,   q0 = -(m + A_phi(r))^2 / w^2

    Worked cases:

        flat magnetic:        p = 1/r,    q0 = -(m - b r^2)^2 / r^2,     s = eps'
        lobachevsky magnetic: p = cth r,  q0 = -[m - b(ch r - 1)]^2/sh^2 r,  s = Lambda
        spherical magnetic:   p = ctg r,  q0 = -[m + b(cos r - 1)]^2/sin^2 r, s = Lambda
        flat electric:        p = 1/r,    q0 = -m^2/r^2,                 s = w_perp
        lobachevsky electric: p = cth r,  q0 = -m^2/sh^2 r,              s = Lambda
        spherical electric:   p = ctg r,  q0 = -m^2/sin^2 r,             s = Lambda

    The azimuthal label m enters exactly as printed above; the analytic
    spectra in `radial` use the opposite sign convention for m (see
    radial.spectrum_matched_ode for the documented reconciliation).
    """
    sec = _SECTIONS[spec.geometry]
    m = float(qn.m)
    b = spec.b
    magnetic = spec.field == "magnetic"

    def q0_weighted(r, w):
        u = m + sec.a_phi(b, r) if magnetic else m
        return -(u**2) / w**2

    def qcoef(r, s):
        r = np.asarray(r, dtype=float)
        return q0_weighted(r, sec.w(r)) + s

    return SeparatedODE(
        kind="radial",
        geometry=spec.geometry,
        field_kind=spec.field,
        domain=(0.0, sec.r_end),
        pcoef=sec.p_r,
        qcoef=qcoef,
        eigen_name=sec.eigen[spec.field],
        weight=sec.w,
        q0_weighted=q0_weighted,
        singular_points=(
            SingularPoint("axis", 0.0, "r"),
            SingularPoint(sec.r_end_name, sec.r_end, "r"),
        ),
        params={"m": qn.m, "n": qn.n, "k": qn.k, "b": b, "nu": spec.nu},
    )


# ---------------------------------------------------------------------------
# separated axial equations
# ---------------------------------------------------------------------------

def assemble_axial_ode(
    spec: BackgroundSpec,
    Lambda: float,
    *,
    epsilon: float = 0.0,
    w: float = 0.0,
    mu2: float = 1.0,
    compton: float = 1.0,
) -> SeparatedODE:
    """Axial equation Z'' + p(z) Z' + [q0(z) + s] Z = 0.

    ``Lambda`` is the radial separation constant feeding the axial
    problem (for the flat electric case it plays the role of w_perp).
    Extra parameters: ``epsilon`` (curved magnetic spectral parameter),
    ``w`` (electric separation parameter), ``mu2`` = (M c rho/hbar)^2
    for curved electric, ``compton`` = hbar/Mc for flat electric.

    Curved magnetic equations carry a companion Schroedinger form in
    ``.schrodinger`` (f = Z ch z resp. Z cos z) whose potential is the
    effective U exposed by axial.effective_potential.
    """
    geo = spec.geometry
    sec = _SECTIONS[geo]
    gam = spec.gamma
    b = spec.b
    nu = spec.nu
    pcoef, sing, schro, note = sec.p_z, (), None, ""

    if spec.field == "magnetic":
        if geo == "flat":
            raise ParameterError(
                "flat magnetic axial motion is a free plane wave; no equation to assemble"
            )

        def qcoef(z, s):
            return epsilon - sec.u(Lambda, b, gam, z) + s

        def qs(z, s):
            # f = Z sqrt(a):  f'' + (eps + curvature - U) f = 0
            return (epsilon + s) + sec.curvature - sec.u(Lambda, b, gam, z)

        eigen = "epsilon"
        params = {"Lambda": Lambda, "b": b, "gamma": gam, "epsilon": epsilon}
        sing = (
            SingularPoint("y=0", 0.0),
            SingularPoint("y=1", 1.0),
            SingularPoint("y=+gamma", gam),
            SingularPoint("y=-gamma", -gam),
            SingularPoint("y=infinity", math.inf),
        )
        note = "singular variable y = " + sec.y_name
        schro = SeparatedODE(
            kind="axial",
            geometry=geo,
            field_kind="magnetic",
            domain=(-sec.z_end, sec.z_end),
            pcoef=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            qcoef=qs,
            eigen_name=eigen,
            singular_points=sing,
            params={**params, "shift": sec.curvature},
            note=f"normal form in f = Z * weight; {note}",
        )
    elif compton <= 0:
        raise ParameterError("compton wavelength must be positive")
    elif mu2 < 0:
        raise ParameterError("mu2 must be non-negative")
    elif geo == "flat":
        w_prime = w - Lambda + gam * gam / ((1.0 + gam * gam) * compton * compton)

        def qcoef(z, s):
            return w_prime + s + nu * np.asarray(z, dtype=float)

        eigen = "w"
        params = {"w_perp": Lambda, "w": w, "w_prime": w_prime, "nu": nu,
                  "gamma": gam, "compton": compton}
        note = "linear-potential form; turning point at z0 = -w'/nu"
    else:
        mu = math.sqrt(mu2)
        eigen = "W"
        params = {"Lambda": Lambda, "nu": nu, "gamma": gam, "mu2": mu2, "w": w}
        if geo == "lobachevsky":
            def qcoef(z, s):
                # with D = ch^4 z + g^2 the raw coefficient is
                #   -2 mu g sh ch (g^2 - ch^4)/D^2 - 2 mu g sh ch/D + (w + s)
                #   + nu th z - mu2 g^2/D - Lambda/ch^2 z;
                # the first two terms sum to -4 mu g^3 sh ch/D^2.  Written in
                # t = th z and q = sech^2 z (E = 1 + g^2 q^2 = D q^2) it stays finite.
                z = np.asarray(z, dtype=float)
                t = np.tanh(z)
                q = _sech2(z)
                E = 1.0 + gam * gam * q * q
                return (
                    -4.0 * mu * gam**3 * t * q**3 / (E * E)
                    + (w + s)
                    + nu * t
                    - mu2 * gam * gam * q * q / E
                    - Lambda * q
                )
        else:
            # divide the raw operator by its non-unit Z'' factor
            note = ("raw operator divided by its (cos^4 z + 2 gamma^2)/(cos^4 z + gamma^2)"
                    " second-derivative factor")

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

    return SeparatedODE(
        kind="axial",
        geometry=geo,
        field_kind=spec.field,
        domain=(-sec.z_end, sec.z_end),
        pcoef=pcoef,
        qcoef=qcoef,
        eigen_name=eigen,
        singular_points=sing,
        params=params,
        schrodinger=schro,
        note=note,
    )
