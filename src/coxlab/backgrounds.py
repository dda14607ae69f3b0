"""Uniform field configurations on flat, Lobachevsky and spherical sections.

Cylindric-type coordinates (r, phi, z) are used on all three spatial
geometries (curvature radius rho scaled to 1 in library units):

    flat:         dS^2 = c^2 dt^2 - dr^2 - r^2 dphi^2 - dz^2
    lobachevsky:  dS^2 = c^2 dt^2 - ch^2 z (dr^2 + sh^2 r dphi^2) - dz^2
    spherical:    dS^2 = c^2 dt^2 - cos^2 z (dr^2 + sin^2 r dphi^2) - dz^2

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
    integrators evaluate them once over all their nodes.
    """

    kind: str
    geometry: str
    field_kind: str
    domain: tuple[float, float]
    pcoef: Callable
    qcoef: Callable
    eigen_name: str
    weight: Callable | None = None
    singular_points: tuple[SingularPoint, ...] = ()
    params: dict = field(default_factory=dict)
    schrodinger: "SeparatedODE | None" = None
    note: str = ""


# ---------------------------------------------------------------------------
# gauge potentials and local field data
# ---------------------------------------------------------------------------

def gauge_potential(spec: BackgroundSpec, coord: float) -> float:
    """A_phi(r) for magnetic configurations, A_0(z) for electric ones.

        flat magnetic:         A_phi = -B r^2 / 2          (B = 2b)
        lobachevsky magnetic:  A_phi = -b (ch r - 1)
        spherical magnetic:    A_phi = +b (cos r - 1),  0 <= r <= pi
        flat electric:         A_0   = -E z                (E ~ nu)
        lobachevsky electric:  A_0   = -E th z
        spherical electric:    A_0   = -E tg z,        |z| < pi/2

    Coordinates outside the chart raise DomainError.
    """
    c = float(coord)
    if spec.field == "magnetic":
        if spec.geometry == "flat":
            if c < 0:
                raise DomainError("radial coordinate must be >= 0")
            return -spec.b * c * c
        if spec.geometry == "lobachevsky":
            if c < 0:
                raise DomainError("radial coordinate must be >= 0")
            return -spec.b * (math.cosh(c) - 1.0)
        if not 0.0 <= c <= math.pi:
            raise DomainError("spherical radial coordinate must lie in [0, pi]")
        return spec.b * (math.cos(c) - 1.0)
    # electric: axial coordinate
    if spec.geometry == "flat":
        return -spec.nu * c
    if spec.geometry == "lobachevsky":
        return -spec.nu * math.tanh(c)
    if not abs(c) < math.pi / 2:
        raise DomainError("spherical axial coordinate must satisfy |z| < pi/2")
    return -spec.nu * math.tan(c)


def metric_at(spec: BackgroundSpec, r: float, z: float = 0.0) -> DiagonalMetric:
    """Diagonal metric components at the point (r, z) on the unit-radius chart."""
    if spec.geometry == "flat":
        return DiagonalMetric(1.0, -1.0, -(r * r), -1.0)
    if spec.geometry == "lobachevsky":
        ch2 = math.cosh(z) ** 2
        return DiagonalMetric(1.0, -ch2, -ch2 * math.sinh(r) ** 2, -1.0)
    cz2 = math.cos(z) ** 2
    return DiagonalMetric(1.0, -cz2, -cz2 * math.sin(r) ** 2, -1.0)


def gamma_profile(spec: BackgroundSpec, z: float):
    """Local structure parameter gamma(z) tracking the field magnitude."""
    z = np.asarray(z, dtype=float)
    if spec.geometry == "flat":
        g = spec.eta if (spec.field == "magnetic" and spec.eta) else spec.gamma
        return g * np.ones_like(z)
    if spec.geometry == "lobachevsky":
        return spec.gamma / np.cosh(z) ** 2
    return spec.gamma / np.cos(z) ** 2


def field_components(
    spec: BackgroundSpec, z: float, r: float = 1.0
) -> tuple[FieldConfig3, float]:
    """Covariant field components at (r, z) and the local invariant magnitude.

    Returns (fields, inv) where inv = |I| is the squared field strength
    seen locally: B^2 for flat magnetic (z-independent), b^2/ch^4 z on
    Lobachevsky (vanishing as z -> inf), b^2/cos^4 z on the sphere
    (diverging towards z = +-pi/2), and the electric analogues with
    E_3 = E/ch^2 z on Lobachevsky.
    """
    if spec.field == "magnetic":
        if spec.geometry == "flat":
            B3 = -2.0 * spec.b * r  # B_3 = -B r with B = 2b
        elif spec.geometry == "lobachevsky":
            B3 = -spec.b * math.sinh(r)
        else:
            B3 = -spec.b * math.sin(r)
        fields = FieldConfig3((0.0, 0.0, 0.0), (0.0, 0.0, B3))
    else:
        if spec.geometry == "flat":
            E3 = spec.nu
        elif spec.geometry == "lobachevsky":
            E3 = spec.nu / math.cosh(z) ** 2
        else:
            E3 = spec.nu / math.cos(z) ** 2
        fields = FieldConfig3((0.0, 0.0, E3), (0.0, 0.0, 0.0))
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
    m = float(qn.m)
    b = spec.b
    geo = spec.geometry
    magnetic = spec.field == "magnetic"

    if geo == "flat":
        def pcoef(r):
            return 1.0 / np.asarray(r, dtype=float)

        if magnetic:
            def q0(r):
                r = np.asarray(r, dtype=float)
                return -((m - b * r * r) ** 2) / (r * r)
            eigen = "eps_prime"
        else:
            def q0(r):
                r = np.asarray(r, dtype=float)
                return -(m * m) / (r * r)
            eigen = "w_perp"
        domain = (0.0, math.inf)

        def weight(r):
            return np.asarray(r, dtype=float)

        sing = (SingularPoint("axis", 0.0, "r"), SingularPoint("infinity", math.inf, "r"))
    elif geo == "lobachevsky":
        def pcoef(r):
            return 1.0 / np.tanh(np.asarray(r, dtype=float))

        if magnetic:
            def q0(r):
                r = np.asarray(r, dtype=float)
                return -((m - b * (np.cosh(r) - 1.0)) ** 2) / np.sinh(r) ** 2
        else:
            def q0(r):
                r = np.asarray(r, dtype=float)
                return -(m * m) / np.sinh(r) ** 2
        eigen = "Lambda"
        domain = (0.0, math.inf)

        def weight(r):
            return np.sinh(np.asarray(r, dtype=float))

        sing = (SingularPoint("axis", 0.0, "r"), SingularPoint("infinity", math.inf, "r"))
    else:
        def pcoef(r):
            return 1.0 / np.tan(np.asarray(r, dtype=float))

        if magnetic:
            def q0(r):
                r = np.asarray(r, dtype=float)
                return -((m + b * (np.cos(r) - 1.0)) ** 2) / np.sin(r) ** 2
        else:
            def q0(r):
                r = np.asarray(r, dtype=float)
                return -(m * m) / np.sin(r) ** 2
        eigen = "Lambda"
        domain = (0.0, math.pi)

        def weight(r):
            return np.sin(np.asarray(r, dtype=float))

        sing = (SingularPoint("axis", 0.0, "r"), SingularPoint("antipode", math.pi, "r"))

    def qcoef(r, s):
        return q0(r) + s

    return SeparatedODE(
        kind="radial",
        geometry=geo,
        field_kind=spec.field,
        domain=domain,
        pcoef=pcoef,
        qcoef=qcoef,
        eigen_name=eigen,
        weight=weight,
        singular_points=sing,
        params={"m": qn.m, "n": qn.n, "k": qn.k, "b": b, "nu": spec.nu},
    )


# ---------------------------------------------------------------------------
# separated axial equations
# ---------------------------------------------------------------------------

def _u_eff(geometry: str, Lambda: float, b: float, gamma: float, z):
    """Effective potential of the curved magnetic axial problem.

    lobachevsky: U = -(b g - Lambda ch^2 z) / (ch^4 z - g^2)
    spherical:   U = +(b g + Lambda cos^2 z) / (cos^4 z - g^2)
    """
    z = np.asarray(z, dtype=float)
    if geometry == "lobachevsky":
        c2 = np.cosh(z) ** 2
        return -(b * gamma - Lambda * c2) / (c2 * c2 - gamma * gamma)
    c2 = np.cos(z) ** 2
    return (b * gamma + Lambda * c2) / (c2 * c2 - gamma * gamma)


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
    gam = spec.gamma
    b = spec.b
    nu = spec.nu

    if spec.field == "magnetic":
        if geo == "flat":
            raise ParameterError(
                "flat magnetic axial motion is a free plane wave; no equation to assemble"
            )
        if geo == "lobachevsky":
            def pcoef(z):
                return 2.0 * np.tanh(np.asarray(z, dtype=float))

            def q0(z):
                return epsilon - _u_eff("lobachevsky", Lambda, b, gam, z)

            def qs(z, s):
                # f = Z ch z:  f'' + (eps - 1 - U) f = 0
                return (epsilon + s) - 1.0 - _u_eff("lobachevsky", Lambda, b, gam, z)

            domain = (-math.inf, math.inf)
            shift = -1.0
        else:
            def pcoef(z):
                return -2.0 * np.tan(np.asarray(z, dtype=float))

            def q0(z):
                return epsilon - _u_eff("spherical", Lambda, b, gam, z)

            def qs(z, s):
                # f = Z cos z:  f'' + (eps + 1 - U) f = 0
                return (epsilon + s) + 1.0 - _u_eff("spherical", Lambda, b, gam, z)

            domain = (-math.pi / 2, math.pi / 2)
            shift = 1.0

        def qcoef(z, s):
            return q0(z) + s

        sing = (
            SingularPoint("y=0", 0.0),
            SingularPoint("y=1", 1.0),
            SingularPoint("y=+gamma", gam),
            SingularPoint("y=-gamma", -gam),
            SingularPoint("y=infinity", math.inf),
        )
        var = "y = ch^2 z" if geo == "lobachevsky" else "y = cos^2 z"
        schro = SeparatedODE(
            kind="axial",
            geometry=geo,
            field_kind="magnetic",
            domain=domain,
            pcoef=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            qcoef=qs,
            eigen_name="epsilon",
            singular_points=sing,
            params={"Lambda": Lambda, "b": b, "gamma": gam, "epsilon": epsilon,
                    "shift": shift},
            note=f"normal form in f = Z * weight; singular variable {var}",
        )
        return SeparatedODE(
            kind="axial",
            geometry=geo,
            field_kind="magnetic",
            domain=domain,
            pcoef=pcoef,
            qcoef=qcoef,
            eigen_name="epsilon",
            singular_points=sing,
            params={"Lambda": Lambda, "b": b, "gamma": gam, "epsilon": epsilon},
            schrodinger=schro,
            note=f"singular variable {var}",
        )

    # electric configurations
    if compton <= 0:
        raise ParameterError("compton wavelength must be positive")
    if mu2 < 0:
        raise ParameterError("mu2 must be non-negative")
    if geo == "flat":
        w_prime = w - Lambda + gam * gam / ((1.0 + gam * gam) * compton * compton)

        def pcoef(z):
            return np.zeros_like(np.asarray(z, dtype=float))

        def qcoef(z, s):
            return w_prime + s + nu * np.asarray(z, dtype=float)

        return SeparatedODE(
            kind="axial",
            geometry="flat",
            field_kind="electric",
            domain=(-math.inf, math.inf),
            pcoef=pcoef,
            qcoef=qcoef,
            eigen_name="w",
            params={"w_perp": Lambda, "w": w, "w_prime": w_prime, "nu": nu,
                    "gamma": gam, "compton": compton},
            note="linear-potential form; turning point at z0 = -w'/nu",
        )

    mu = math.sqrt(mu2)
    if geo == "lobachevsky":
        def pcoef(z):
            return 2.0 * np.tanh(np.asarray(z, dtype=float))

        def qcoef(z, s):
            z = np.asarray(z, dtype=float)
            ch = np.cosh(z)
            sh = np.sinh(z)
            D = ch**4 + gam * gam
            return (
                -2.0 * mu * gam * sh * ch * (gam * gam - ch**4) / (D * D)
                - 2.0 * mu * gam * sh * ch / D
                + (w + s)
                + nu * np.tanh(z)
                - mu2 * gam * gam / D
                - Lambda / (ch * ch)
            )

        return SeparatedODE(
            kind="axial",
            geometry="lobachevsky",
            field_kind="electric",
            domain=(-math.inf, math.inf),
            pcoef=pcoef,
            qcoef=qcoef,
            eigen_name="W",
            params={"Lambda": Lambda, "nu": nu, "gamma": gam, "mu2": mu2, "w": w},
        )

    # spherical electric: divide the raw operator by its non-unit Z'' factor
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
        geometry="spherical",
        field_kind="electric",
        domain=(-math.pi / 2, math.pi / 2),
        pcoef=pcoef,
        qcoef=qcoef,
        eigen_name="W",
        params={"Lambda": Lambda, "nu": nu, "gamma": gam, "mu2": mu2, "w": w},
        note="raw operator divided by its (cos^4 z + 2 gamma^2)/(cos^4 z + gamma^2) second-derivative factor",
    )
