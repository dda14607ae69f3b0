"""Axial problems: effective potentials, linear-field solutions, integration.

For the curved magnetic configurations the axial equation in normal form
is governed by the effective potential

    lobachevsky: U = -(b g - Lambda ch^2 z)/(ch^4 z - g^2)
    spherical:   U = +(b g + Lambda cos^2 z)/(cos^4 z - g^2),   g = gamma,

whose force field and equilibria are exposed here in closed form.  The
flat electric equation Z'' + (w' + nu z) Z = 0 is solved exactly by a
pair of Airy-type branches built from 0F1 kernels.  A fixed-step
Fehlberg 4(5) integrator provides the independent numerical route for
any assembled axial equation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backgrounds import BackgroundSpec, SeparatedODE, _u_eff
from .errors import DomainError, ParameterError, PoleError, StepFailure
from .special_functions import SeriesControl, gamma_complex, hyp0f1

__all__ = [
    "Equilibrium",
    "ExtremaResult",
    "PotentialProfile",
    "AirySolutionPair",
    "AxialSolution",
    "LocalForm",
    "effective_potential",
    "effective_force",
    "effective_force_extrema",
    "potential_profile",
    "airy_pair",
    "integrate_axial",
    "singular_local_form",
]

_POLE_TOL = 1e-10


@dataclass(frozen=True)
class Equilibrium:
    z: float
    kind: str  # "minimum" | "maximum"


@dataclass(frozen=True)
class ExtremaResult:
    """Stationary points of U: z = 0 plus the admissible quadratic roots.

    `roots` holds the admissible values of ch^2 z (resp. cos^2 z) from
    the stationarity quadratic; `discriminant` is (b^2/Lambda^2 - 1) g^2,
    negative exactly when Lambda^2 > b^2 and z = 0 is the only
    equilibrium.  Endpoint stationarity on the sphere (z = +-pi/2) is a
    boundary feature and not listed.
    """

    equilibria: tuple[Equilibrium, ...]
    discriminant: float
    roots: tuple[float, ...]


@dataclass(frozen=True)
class PotentialProfile:
    z_grid: np.ndarray
    U: np.ndarray
    Fz: np.ndarray
    extrema: ExtremaResult


@dataclass(eq=False)
class AirySolutionPair:
    """Exact branches of Z'' + (w' + nu z) Z = 0 in the Airy variable
    x = -nu^(1/3) z - w'/nu^(2/3) (so the equation reads Z_xx = x Z).

    z1, z2, dz1, dz2 are callables of x; the turning point is the z with
    x = 0.  The Wronskian z1 z2' - z1' z2 is the constant
    -(2/3)^(2/3) 3 sqrt(3) / (2 pi) (times the unit phase of the pair).
    """

    z1: Callable
    z2: Callable
    dz1: Callable
    dz2: Callable
    x_of_z: Callable
    turning_point: float
    wronskian: complex


@dataclass(eq=False)
class AxialSolution:
    z: np.ndarray
    Z: np.ndarray
    dZ: np.ndarray
    residual_estimate: float


@dataclass(frozen=True)
class LocalForm:
    point: str
    kind: str
    params: dict
    description: str


# ---------------------------------------------------------------------------
# effective potential, force, equilibria (curved magnetic)
# ---------------------------------------------------------------------------

def _require_curved_magnetic(spec: BackgroundSpec) -> None:
    if spec.field != "magnetic" or spec.geometry == "flat":
        raise ParameterError(
            "effective axial potentials exist for the curved magnetic configurations"
        )


def effective_potential(spec: BackgroundSpec, Lambda: float, z):
    """U(z) of the curved magnetic axial problem (see module docstring).

    Raises PoleError where ch^4 z (cos^4 z) meets gamma^2 -- on the
    sphere the point cos^2 z = |gamma| is a genuine interior singular
    point for 0 < |gamma| < 1.  The spherical endpoints are regular for
    gamma != 0 with U(+-pi/2) = -b/gamma.
    """
    _require_curved_magnetic(spec)
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g = spec.gamma
    if spec.geometry == "spherical":
        if np.any(np.abs(z) > math.pi / 2 + 1e-12):
            raise DomainError("spherical axial coordinate requires |z| <= pi/2")
        c2 = np.cos(z) ** 2
    else:
        c2 = np.cosh(z) ** 2
    den = c2 * c2 - g * g
    if np.any(np.abs(den) < _POLE_TOL * max(1.0, g * g)):
        raise PoleError(
            f"effective potential pole: ch^4/cos^4 z meets gamma^2 = {g * g}"
        )
    U = _u_eff(spec.geometry, Lambda, spec.b, g, z)
    return float(U[0]) if scalar else U


def effective_force(spec: BackgroundSpec, Lambda: float, z):
    """Axial force F_z = -dU/dz in closed form:

        lobachevsky: F = +2 ch z sh z (L ch^4 z - 2 b g ch^2 z + g^2 L)/(ch^4 z - g^2)^2
        spherical:   F = -2 cos z sin z (L cos^4 z + 2 b g cos^2 z + g^2 L)/(cos^4 z - g^2)^2
    """
    _require_curved_magnetic(spec)
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    g, b = spec.gamma, spec.b
    if spec.geometry == "spherical":
        if np.any(np.abs(z) > math.pi / 2 + 1e-12):
            raise DomainError("spherical axial coordinate requires |z| <= pi/2")
        c, s = np.cos(z), np.sin(z)
        c2 = c * c
        den = c2 * c2 - g * g
        num = Lambda * c2 * c2 + 2.0 * b * g * c2 + g * g * Lambda
        F = -2.0 * c * s * num / (den * den)
    else:
        c, s = np.cosh(z), np.sinh(z)
        c2 = c * c
        den = c2 * c2 - g * g
        num = Lambda * c2 * c2 - 2.0 * b * g * c2 + g * g * Lambda
        F = 2.0 * c * s * num / (den * den)
    if np.any(np.abs(den) < _POLE_TOL * max(1.0, g * g)):
        raise PoleError("effective force pole: ch^4/cos^4 z meets gamma^2")
    return float(F[0]) if scalar else F


def _classify(spec: BackgroundSpec, Lambda: float, z: float) -> str:
    h = 1e-4
    um, u0, up = (effective_potential(spec, Lambda, z + d) for d in (-h, 0.0, h))
    return "minimum" if um + up - 2 * u0 > 0 else "maximum"


def effective_force_extrema(spec: BackgroundSpec, Lambda: float) -> ExtremaResult:
    """All interior equilibria of U.

    Stationarity away from z = 0 requires the quadratic

        lobachevsky: ch^2 z = (b/L) g +- sqrt((b^2/L^2 - 1) g^2),
        spherical:  cos^2 z = -(b/L) g +- sqrt((b^2/L^2 - 1) g^2),

    to have roots in the admissible range (ch^2 z >= 1, 0 < cos^2 z < 1).
    For Lambda^2 > b^2 the discriminant is negative and z = 0 is the
    unique equilibrium.
    """
    _require_curved_magnetic(spec)
    if Lambda == 0.0:
        raise ParameterError("Lambda = 0 degenerates the stationarity quadratic")
    g, b = spec.gamma, spec.b
    disc = (b * b / (Lambda * Lambda) - 1.0) * g * g
    roots: list[float] = []
    zs: list[float] = [0.0]
    if disc >= 0.0:
        rt = math.sqrt(disc)
        base = (b / Lambda) * g
        if spec.geometry == "lobachevsky":
            for cand in (base + rt, base - rt):
                if cand >= 1.0 + 1e-12:
                    roots.append(cand)
                    z0 = math.acosh(math.sqrt(cand))
                    zs.extend([z0, -z0])
        else:
            for cand in (-base + rt, -base - rt):
                if 1e-12 < cand < 1.0 - 1e-12:
                    roots.append(cand)
                    z0 = math.acos(math.sqrt(cand))
                    zs.extend([z0, -z0])
    eq = tuple(
        Equilibrium(z=z, kind=_classify(spec, Lambda, z)) for z in sorted(zs)
    )
    return ExtremaResult(equilibria=eq, discriminant=disc, roots=tuple(roots))


def _pole_locations(spec: BackgroundSpec) -> tuple[float, ...]:
    """z values where the denominator ch^4 z - gamma^2 (cos^4 z - gamma^2)
    vanishes, i.e. where U has an interior pole."""
    g = abs(spec.gamma)
    if spec.geometry == "spherical":
        if 0.0 < g < 1.0:
            zp = math.acos(math.sqrt(g))
            return (-zp, zp)
        if g == 1.0:
            return (0.0,)
        return ()
    if g > 1.0:
        zp = math.acosh(math.sqrt(g))
        return (-zp, zp)
    if g == 1.0:
        return (0.0,)
    return ()


def potential_profile(
    spec: BackgroundSpec, Lambda: float, z_min: float, z_max: float, samples: int
) -> PotentialProfile:
    """Tabulated U and F_z on a uniform grid, plus the closed-form equilibria.

    Raises PoleError when the requested range straddles a pole of U, even if
    no grid node lands on it: such a table would silently mix branches.
    """
    if samples < 2:
        raise ParameterError("need at least 2 samples")
    if not z_min < z_max:
        raise ParameterError("need z_min < z_max")
    for zp in _pole_locations(spec):
        if z_min <= zp <= z_max:
            raise PoleError(
                f"range [{z_min:g}, {z_max:g}] crosses the potential pole at z = {zp:.6g}"
            )
    zg = np.linspace(z_min, z_max, samples)
    return PotentialProfile(
        z_grid=zg,
        U=effective_potential(spec, Lambda, zg),
        Fz=effective_force(spec, Lambda, zg),
        extrema=effective_force_extrema(spec, Lambda),
    )


# ---------------------------------------------------------------------------
# Airy-type pair for the flat electric axial equation
# ---------------------------------------------------------------------------

def airy_pair(w_prime: float, nu: float, ctl: SeriesControl | None = None) -> AirySolutionPair:
    """Exact solution pair of Z'' + (w' + nu z) Z = 0 for nu > 0.

        Z1 = e^(i pi/6) 2^(-1/3) (2/3)^(2/3)/Gamma(4/3) * x 0F1(; 4/3; x^3/9)
        Z2 = 2^(1/3) e^(-i pi/6)/Gamma(2/3)            *   0F1(; 2/3; x^3/9)

    in x = -nu^(1/3) z - w'/nu^(2/3), where both branches solve
    Z_xx = x Z.  Derivatives follow from d/du 0F1(;c;u) = 0F1(;c+1;u)/c.
    """
    if not nu > 0:
        raise ParameterError("the linear-field solutions need nu > 0")
    c1 = (
        complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
        * 2.0 ** (-1.0 / 3.0)
        * (2.0 / 3.0) ** (2.0 / 3.0)
        / gamma_complex(4.0 / 3.0).real
    )
    c2 = (
        2.0 ** (1.0 / 3.0)
        * complex(math.cos(math.pi / 6), -math.sin(math.pi / 6))
        / gamma_complex(2.0 / 3.0).real
    )

    def z1(x: float) -> complex:
        return c1 * x * hyp0f1(4.0 / 3.0, x**3 / 9.0, ctl)

    def dz1(x: float) -> complex:
        u = x**3 / 9.0
        return c1 * (hyp0f1(4.0 / 3.0, u, ctl) + (x**3 / 4.0) * hyp0f1(7.0 / 3.0, u, ctl))

    def z2(x: float) -> complex:
        return c2 * hyp0f1(2.0 / 3.0, x**3 / 9.0, ctl)

    def dz2(x: float) -> complex:
        return c2 * (x * x / 2.0) * hyp0f1(5.0 / 3.0, x**3 / 9.0, ctl)

    nu13 = nu ** (1.0 / 3.0)
    z_turn = -w_prime / nu

    def x_of_z(z):
        # anchored at the turning point so that x(z_turn) is exactly zero
        return -nu13 * (np.asarray(z, dtype=float) - z_turn)

    return AirySolutionPair(
        z1=z1,
        z2=z2,
        dz1=dz1,
        dz2=dz2,
        x_of_z=x_of_z,
        turning_point=z_turn,
        wronskian=-c1 * c2,
    )


# ---------------------------------------------------------------------------
# fixed-step Fehlberg 4(5) integration of an assembled axial equation
# ---------------------------------------------------------------------------

_RKF_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C = (0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_RKF_BERR = (
    1.0 / 360.0,
    0.0,
    -128.0 / 4275.0,
    -2197.0 / 75240.0,
    1.0 / 50.0,
    2.0 / 55.0,
)


def _scalar_rows(a: np.ndarray):
    """Rows of `a` as lists of Python floats, converted 1024 rows at a
    time so long grids never hold every coefficient as a Python object."""
    for j in range(0, len(a), 1024):
        yield from a[j : j + 1024].tolist()


def integrate_axial(
    ode: SeparatedODE,
    ic_left: tuple[complex, complex],
    z_range: tuple[float, float],
    steps: int,
    tol: float = 1e-9,
) -> AxialSolution:
    """Integrate Z'' + p Z' + q Z = 0 across z_range on a fixed grid.

    Fehlberg's 4(5) pair advances the fourth-order solution; the
    embedded fifth-order difference monitors the local error and raises
    StepFailure when a step exceeds `tol` relative to the local solution
    scale max(1, |Z|, |Z'|).  The summed estimates are reported as
    residual_estimate.  Complex initial data is supported.

    The equation is linear with coefficients fixed at assembly, so p and
    q are evaluated once, as arrays over all 6 * steps stage nodes; only
    the step recurrence itself runs sequentially, on Python scalars.
    Non-finite input or tol <= 0 raises ParameterError and a range
    leaving ``ode.domain`` raises DomainError.
    """
    if ode.kind != "axial":
        raise ParameterError("integrate_axial expects an axial equation")
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    z0, z1 = float(z_range[0]), float(z_range[1])
    u, v = complex(ic_left[0]), complex(ic_left[1])
    if not all(map(cmath.isfinite, (z0, z1, u, v))):
        raise ParameterError("z_range and ic_left must be finite")
    if not z0 < z1:
        raise ParameterError("need z_range[0] < z_range[1]")
    lo, hi = ode.domain
    if z0 < lo or z1 > hi:
        raise DomainError(
            f"z_range [{z0:g}, {z1:g}] leaves the {ode.geometry} axial domain "
            f"[{lo:g}, {hi:g}]"
        )

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


# ---------------------------------------------------------------------------
# local solution forms at the singular points of the curved magnetic problem
# ---------------------------------------------------------------------------

def singular_local_form(
    spec: BackgroundSpec, Lambda: float, point: str, epsilon: float = 0.0
) -> LocalForm:
    """Leading local behaviour at a singular point of the axial equation in
    the variable y = cos^2 z (sphere) or y = ch^2 z (Lobachevsky).

        y ~ 1:        Z = exp(+-sqrt(A (y-1)))
        y ~ 0:        Z = y^(-1/2) exp(+-sqrt(C y))
        y ~ inf:      Z = y^D
        y ~ +-gamma:  confluent-type local equation with lower
                      parameter c = 0 and accessory coefficient a

    Spherical coefficients: A = eps - (b g + L)/(1 - g^2), C = -eps - b/g,
    D = (-1 +- sqrt(eps + 1))/2, a(+-g) = (L +- b)/(4(3 -+ 4g)).
    Lobachevsky analogues (derived by the same residue reduction):
    A = -eps + (L - b g)/(1 - g^2), C = eps - b/g,
    D = (-1 +- sqrt(1 - eps))/2, a(+g) = (L - b)/(4(3 - 4g)),
    a(-g) = (L + b)/(4(3 + 4g)).  Requires gamma != 0 (at gamma = 0 the
    points y = +-gamma merge with y = 0 and the classification changes).
    """
    _require_curved_magnetic(spec)
    g, b = spec.gamma, spec.b
    if g == 0.0:
        raise ParameterError("singular local forms need gamma != 0")
    spherical = spec.geometry == "spherical"
    if point == "y=1":
        A = (
            epsilon - (b * g + Lambda) / (1.0 - g * g)
            if spherical
            else -epsilon + (Lambda - b * g) / (1.0 - g * g)
        )
        return LocalForm(
            point=point,
            kind="exponential",
            params={"A": A},
            description="Z = exp(+-sqrt(A (y-1)))",
        )
    if point == "y=0":
        C = -epsilon - b / g if spherical else epsilon - b / g
        return LocalForm(
            point=point,
            kind="inverse-sqrt-exponential",
            params={"C": C},
            description="Z = y^(-1/2) exp(+-sqrt(C y))",
        )
    if point == "y=infinity":
        rad = epsilon + 1.0 if spherical else 1.0 - epsilon
        root = complex(rad) ** 0.5
        d_plus = (-1.0 + root) / 2.0
        d_minus = (-1.0 - root) / 2.0
        if rad >= 0.0:
            d_plus, d_minus = d_plus.real, d_minus.real
        return LocalForm(
            point=point,
            kind="power",
            params={"D_plus": d_plus, "D_minus": d_minus},
            description="Z = y^D",
        )
    if point in ("y=+gamma", "y=-gamma"):
        plus = point == "y=+gamma"
        if spherical:
            a = (Lambda + b) / (4.0 * (3.0 - 4.0 * g)) if plus else (Lambda - b) / (
                4.0 * (3.0 + 4.0 * g)
            )
        else:
            a = (Lambda - b) / (4.0 * (3.0 - 4.0 * g)) if plus else (Lambda + b) / (
                4.0 * (3.0 + 4.0 * g)
            )
        return LocalForm(
            point=point,
            kind="confluent",
            params={"a": a, "c": 0.0},
            description="confluent-type local equation, lower parameter c = 0",
        )
    raise ParameterError(
        f"unknown singular point {point!r}; expected one of "
        "'y=0', 'y=1', 'y=+gamma', 'y=-gamma', 'y=infinity'"
    )
