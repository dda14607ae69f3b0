"""Uniform field configurations on flat, Lobachevsky and spherical sections.

Cylindric-type coordinates (r, phi, z) are used on all three spatial
geometries (curvature radius rho scaled to 1 in library units):

    flat:         dS^2 = c^2 dt^2 - dr^2 - r^2 dphi^2 - dz^2
    lobachevsky:  dS^2 = c^2 dt^2 - ch^2 z (dr^2 + sh^2 r dphi^2) - dz^2
    spherical:    dS^2 = c^2 dt^2 - cos^2 z (dr^2 + sin^2 r dphi^2) - dz^2

that is, dS^2 = c^2 dt^2 - a(z)(dr^2 + w(r)^2 dphi^2) - dz^2 with
(a, w) = (1, r), (ch^2 z, sh r), (cos^2 z, sin r).  One private `_Section`
record per geometry holds w, the magnetic potential, a'/a, the chart
ends and the curved magnetic axial problem in y = a(z); the radial
equation and `axial` read it instead of branching on the geometry, so
the six radial equations are one formula, and so are the poles and
equilibria of the two curved axial problems.

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
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidEta, ParameterError, require_finite

__all__ = [
    "BackgroundSpec",
    "QuantumNumbers",
    "SeparatedODE",
    "assemble_radial_ode",
    "assemble_axial_ode",
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

    Each must be finite; the curvature radius is 1 (rho enters through b
    and nu only).
    """

    geometry: str
    field: str = "magnetic"
    b: float = 0.0
    nu: float = 0.0
    eta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        require_finite(b=self.b, nu=self.nu, eta=self.eta, gamma=self.gamma)
        if self.geometry not in _GEOMETRIES:
            raise ParameterError(f"unknown geometry {self.geometry!r}")
        if self.field not in _FIELDS:
            raise ParameterError(f"unknown field kind {self.field!r}")
        if self.geometry == "flat" and self.field == "magnetic" and abs(self.eta) >= 1.0:
            raise InvalidEta(
                f"flat magnetic configuration requires |eta| < 1, got {self.eta}"
            )


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial excitation n >= 0, azimuthal m, axial wavenumber k.

    n and m are integers (an integral float counts) and k is finite;
    anything else raises ParameterError naming the field."""

    n: int
    m: int
    k: float = 0.0

    def __post_init__(self) -> None:
        if not (type(self.n) is int and type(self.m) is int and math.isfinite(self.k)):
            for name, what in (("n", "radial"), ("m", "azimuthal")):
                v = getattr(self, name)
                if not isinstance(v, numbers.Integral) and not float(v).is_integer():
                    raise ParameterError(
                        f"{what} quantum number {name} must be an integer, got {v!r}")
            if not math.isfinite(self.k):
                raise ParameterError(f"axial wavenumber k must be finite, got {self.k}")
        if self.n < 0:
            raise ParameterError("radial quantum number n must be >= 0")


@dataclass(eq=False)
class SeparatedODE:
    """One separated equation  u'' + p(x) u' + q(x, s) u = 0.

    ``qcoef(x, s)`` is affine in the spectral offset s: q = q0(x) + s.
    For radial equations s *is* the spectral parameter named by
    ``eigen_name`` (eps_prime, Lambda or w_perp); for axial equations
    every parameter is fixed at assembly and s is an additive offset
    from those values (pass 0 to evaluate the assembled equation).

    ``weight`` is the measure making the radial operator self-adjoint
    (r, sh r or sin r).  ``params`` holds the flat electric axial
    equation's w_prime, the shifted energy airy_pair takes; it is empty
    for every other equation.

    ``pcoef``, ``qcoef`` and ``weight`` must accept arrays of x and return
    real arrays of the same shape (or scalars, for constant coefficients):
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
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Section:
    """One spatial section dS^2 = c^2 dt^2 - a(z)(dr^2 + w(r)^2 dphi^2) - dz^2.

    Radial part: the weight w, p_r = w'/w, the magnetic potential
    A_phi(b, r) and the chart end r_end.
    Axial part: p_z = a'/a and the chart bound |z| < z_end (named
    z_end_name).  ``curvature`` kappa (+1 sphere, -1 Lobachevsky, 0 flat)
    is the constant that f = Z sqrt(a) adds to the axial equation;
    ``eigen`` names the radial spectral parameter per field kind.  The
    callables take floats or arrays.

    The curved magnetic axial problem lives in y = a(z), which spans
    y_range on the chart; z_of_y inverts a for z >= 0.  ``u``,
    ``force`` and ``pole`` hold U = (kappa b g + L y)/(y^2 - g^2), F =
    -dU/dz as a function of (L, b), and the test |y^2 - g^2| < tol, in
    closed forms finite on the whole chart (Lobachevsky in s = sech^2 z,
    the sphere in cos^2 z).  The flat section leaves them None.
    """

    w: Callable
    p_r: Callable
    a_phi: Callable
    r_end: float
    p_z: Callable
    z_end: float
    z_end_name: str
    curvature: float
    eigen: dict[str, str]
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
        a_phi=lambda b, r: -b * r * r, r_end=math.inf,
        p_z=lambda z: np.zeros_like(_asfloat(z)), z_end=math.inf, z_end_name="infinity",
        curvature=0.0, eigen={"magnetic": "eps_prime", "electric": "w_perp"},
    ),
    "lobachevsky": _Section(
        w=lambda r: np.sinh(_asfloat(r)), p_r=lambda r: 1.0 / np.tanh(_asfloat(r)),
        a_phi=lambda b, r: -b * (np.cosh(r) - 1.0), r_end=math.inf,
        p_z=lambda z: 2.0 * np.tanh(_asfloat(z)), z_end=math.inf, z_end_name="infinity",
        curvature=-1.0, eigen={"magnetic": "Lambda", "electric": "Lambda"},
        y_range=(1.0, math.inf), z_of_y=lambda y: math.acosh(math.sqrt(y)),
        u=_u_lobachevsky, force=_force_lobachevsky, pole=_pole_lobachevsky,
    ),
    "spherical": _Section(
        w=lambda r: np.sin(_asfloat(r)), p_r=lambda r: 1.0 / np.tan(_asfloat(r)),
        a_phi=lambda b, r: b * (np.cos(r) - 1.0), r_end=math.pi,
        p_z=lambda z: -2.0 * np.tan(_asfloat(z)), z_end=math.pi / 2, z_end_name="pi/2",
        curvature=1.0, eigen={"magnetic": "Lambda", "electric": "Lambda"},
        y_range=(0.0, 1.0), z_of_y=lambda y: math.acos(math.sqrt(y)),
        u=_u_spherical, force=_force_spherical, pole=_pole_spherical,
    ),
}


# ---------------------------------------------------------------------------
# separated radial equations
# ---------------------------------------------------------------------------

def assemble_radial_ode(spec: BackgroundSpec, qn: QuantumNumbers) -> SeparatedODE:
    """Radial equation R'' + p(r) R' + [q0(r) + s] R = 0 for the configuration.

    One formula on every section, with the weight w and the magnetic
    potential A_phi (A_phi = 0 for the electric field):

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
    for curved electric, ``compton`` = hbar/Mc for flat electric; each
    must be finite.  The curved magnetic q is eps - U with the effective
    potential U of axial.effective_potential.
    """
    require_finite(Lambda=Lambda, epsilon=epsilon, w=w, mu2=mu2, compton=compton)
    geo = spec.geometry
    sec = _SECTIONS[geo]
    gam = spec.gamma
    b = spec.b
    nu = spec.nu
    pcoef = sec.p_z
    params = {}

    if spec.field == "magnetic":
        if geo == "flat":
            raise ParameterError(
                "flat magnetic axial motion is a free plane wave; no equation to assemble"
            )

        def qcoef(z, s):
            return epsilon - sec.u(Lambda, b, gam, z) + s

        eigen = "epsilon"
    elif compton <= 0:
        raise ParameterError("compton wavelength must be positive")
    elif mu2 < 0:
        raise ParameterError("mu2 must be non-negative")
    elif geo == "flat":
        w_prime = w - Lambda + gam * gam / ((1.0 + gam * gam) * compton * compton)

        def qcoef(z, s):
            return w_prime + s + nu * np.asarray(z, dtype=float)

        eigen = "w"
        params = {"w_prime": w_prime}
    else:
        mu = math.sqrt(mu2)
        eigen = "W"
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
            # (cos^4 z + 2 gamma^2)/(cos^4 z + gamma^2)
            def terms(z):
                # cos z, sin z, u = cos^4 z, D = u + g^2 and the Z'' factor (u + 2g^2)/D
                z = np.asarray(z, dtype=float)
                cz = np.cos(z)
                u = cz**4
                D = u + gam * gam
                return cz, np.sin(z), u, D, (u + 2.0 * gam * gam) / D

            def pcoef(z):
                cz, sz, u, D, factor = terms(z)
                raw = (
                    -2.0 * (sz / cz) * (gam * gam * u + 2.0 * gam**4 + u * u) / (D * D)
                    - mu * gam * cz * cz / D
                )
                return raw / factor

            def qcoef(z, s):
                z = np.asarray(z, dtype=float)
                cz, sz, u, D, factor = terms(z)
                raw = (
                    4.0 * mu * gam**3 * sz * cz / (D * D)
                    + (w + s)
                    + nu * np.tan(z)
                    - mu2 * gam * gam / D
                    - Lambda / (cz * cz)
                )
                return raw / factor

    return SeparatedODE(
        kind="axial",
        geometry=geo,
        field_kind=spec.field,
        domain=(-sec.z_end, sec.z_end),
        pcoef=pcoef,
        qcoef=qcoef,
        eigen_name=eigen,
        params=params,
    )
