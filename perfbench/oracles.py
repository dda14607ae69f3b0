"""Reference answers that share no code with coxlab.

Closed forms are rewritten here from the formulas the library documents
(spectra, effective potential and force, the assembled axial
coefficients); special functions come from mpmath's own implementations
and scipy.special; integrations use scipy's DOP853.  Nothing in this
module imports coxlab.  The heavy references (mpmath, scipy) are
imported on first use, so request generation stays out of set-up time.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# closed-form magnetic spectra (flat, Lobachevsky, spherical)
# ---------------------------------------------------------------------------

def flat_eps_prime(b: float, n: int, m: int) -> float:
    return 4.0 * b * (n + (m + abs(m) + 1) / 2.0)


def flat_epsilon(b: float, eta: float, k: float, n: int, m: int) -> float:
    return flat_eps_prime(b, n, m) + (1.0 - eta * eta) * k * k - 2.0 * eta * b


def lobachevsky_level(b: float, n: int, m: int) -> tuple[float, bool, float]:
    """(Lambda, bound, t) with t = s + 1/2 and s = (m + |m|)/2 + n."""
    t = (m + abs(m)) / 2.0 + n + 0.5
    lam = 0.25 + 2.0 * b * t - t * t
    return lam, (m < 2.0 * b and t <= b and b <= lam), t


def spherical_level(b: float, n: int, m: int) -> float:
    if m > 0:
        ell = n + m + 0.5
        return 2.0 * b * ell + ell * ell - 0.25
    if m >= -2.0 * b:
        t = n + 0.5
        return 2.0 * b * t + t * t - 0.25
    ell = n - m + 0.5
    return -2.0 * b * ell + ell * ell - 0.25


def level(geometry: str, b: float, n: int, m: int) -> float:
    if geometry == "flat":
        return flat_eps_prime(b, n, m)
    if geometry == "lobachevsky":
        return lobachevsky_level(b, n, m)[0]
    return spherical_level(b, n, m)


# ---------------------------------------------------------------------------
# curved magnetic effective potential and force
# ---------------------------------------------------------------------------

def effective_potential(geometry: str, b: float, g: float, lam: float, z):
    z = np.asarray(z, dtype=float)
    if geometry == "lobachevsky":
        c2 = np.cosh(z) ** 2
        return -(b * g - lam * c2) / (c2 * c2 - g * g)
    c2 = np.cos(z) ** 2
    return (b * g + lam * c2) / (c2 * c2 - g * g)


def effective_force(geometry: str, b: float, g: float, lam: float, z):
    z = np.asarray(z, dtype=float)
    if geometry == "lobachevsky":
        c, s = np.cosh(z), np.sinh(z)
        c2 = c * c
        den = c2 * c2 - g * g
        return 2.0 * c * s * (lam * c2 * c2 - 2.0 * b * g * c2 + g * g * lam) / (den * den)
    c, s = np.cos(z), np.sin(z)
    c2 = c * c
    den = c2 * c2 - g * g
    return -2.0 * c * s * (lam * c2 * c2 + 2.0 * b * g * c2 + g * g * lam) / (den * den)


# ---------------------------------------------------------------------------
# axial equations Z'' + p Z' + q Z = 0
# ---------------------------------------------------------------------------

def axial_coefficients(eq: str, P: dict):
    """(p(z), q(z)) of the assembled axial equation named by ``eq``."""
    g = P["gamma"]
    if eq == "lobachevsky-magnetic":
        def p(z):
            return 2.0 * math.tanh(z)

        def q(z):
            return P["epsilon"] - float(effective_potential("lobachevsky", P["b"], g, P["Lambda"], z))
        return p, q
    if eq == "spherical-magnetic":
        def p(z):
            return -2.0 * math.tan(z)

        def q(z):
            return P["epsilon"] - float(effective_potential("spherical", P["b"], g, P["Lambda"], z))
        return p, q
    mu2 = P.get("mu2", 1.0)
    mu = math.sqrt(mu2)
    nu, w, lam = P["nu"], P["w"], P["Lambda"]
    if eq == "lobachevsky-electric":
        def p(z):
            return 2.0 * math.tanh(z)

        def q(z):
            ch, sh = math.cosh(z), math.sinh(z)
            d = ch**4 + g * g
            return (
                -2.0 * mu * g * sh * ch * (g * g - ch**4) / (d * d)
                - 2.0 * mu * g * sh * ch / d
                + w
                + nu * math.tanh(z)
                - mu2 * g * g / d
                - lam / (ch * ch)
            )
        return p, q
    if eq == "spherical-electric":
        def factor(z):
            u = math.cos(z) ** 4
            return (u + 2.0 * g * g) / (u + g * g)

        def p(z):
            cz, sz = math.cos(z), math.sin(z)
            u = cz**4
            d = u + g * g
            raw = -2.0 * (sz / cz) * (g * g * u + 2.0 * g**4 + u * u) / (d * d) - mu * g * cz * cz / d
            return raw / factor(z)

        def q(z):
            cz, sz = math.cos(z), math.sin(z)
            u = cz**4
            d = u + g * g
            raw = (
                4.0 * mu * g**3 * sz * cz / (d * d)
                + w
                + nu * math.tan(z)
                - mu2 * g * g / d
                - lam / (cz * cz)
            )
            return raw / factor(z)
        return p, q
    if eq == "flat-electric":
        wp = flat_w_prime(P)

        def p(z):
            return 0.0

        def q(z):
            return wp + nu * z
        return p, q
    raise ValueError(f"unknown axial equation {eq!r}")


def flat_w_prime(P: dict) -> float:
    g = P["gamma"]
    compton = P.get("compton", 1.0)
    return P["w"] - P["Lambda"] + g * g / ((1.0 + g * g) * compton * compton)


def integrate_reference(eq: str, P: dict, ic, z_grid: np.ndarray) -> np.ndarray:
    """Z on ``z_grid`` from scipy's DOP853 at tight tolerances."""
    from scipy.integrate import solve_ivp

    p, q = axial_coefficients(eq, P)

    def rhs(z, y):
        return [y[1], -(p(z) * y[1] + q(z) * y[0])]

    y0 = np.array([complex(ic[0]), complex(ic[1])])
    scale = max(1.0, float(np.max(np.abs(y0))))
    sol = solve_ivp(
        rhs, (float(z_grid[0]), float(z_grid[-1])), y0, method="DOP853",
        t_eval=z_grid, rtol=1e-12, atol=1e-13 * scale,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[0]


# ---------------------------------------------------------------------------
# linear-field (Airy) branch pair from scipy.special.airy
# ---------------------------------------------------------------------------

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_MINUS_AIP0 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
_C1 = complex(math.cos(math.pi / 6), math.sin(math.pi / 6)) * 2.0 ** (-1.0 / 3.0) * (
    2.0 / 3.0
) ** (2.0 / 3.0) / math.gamma(4.0 / 3.0)
_C2 = 2.0 ** (1.0 / 3.0) * complex(math.cos(math.pi / 6), -math.sin(math.pi / 6)) / math.gamma(
    2.0 / 3.0
)


def airy_branches(x):
    """(Z1, Z2) at x: Z1 = C1 * odd solution, Z2 = C2 * even solution of Z'' = x Z."""
    from scipy.special import airy

    ai, _aip, bi, _bip = airy(np.asarray(x, dtype=float))
    even = (ai + bi / math.sqrt(3.0)) / (2.0 * _AI0)
    odd = (bi / math.sqrt(3.0) - ai) / (2.0 * _MINUS_AIP0)
    return _C1 * odd, _C2 * even


def airy_x_of_z(P: dict, z):
    nu = P["nu"]
    z_turn = -flat_w_prime(P) / nu
    return -(nu ** (1.0 / 3.0)) * (np.asarray(z, dtype=float) - z_turn)


# ---------------------------------------------------------------------------
# special functions (mpmath's own implementations)
# ---------------------------------------------------------------------------

def special_value(kind: str, args) -> complex:
    import mpmath

    if kind == "gauss_2f1":
        return complex(mpmath.hyp2f1(*args))
    if kind == "kummer_1f1":
        return complex(mpmath.hyp1f1(*args))
    if kind == "hyp0f1":
        return complex(mpmath.hyp0f1(*args))
    if kind == "bessel_j_fractional":
        return complex(mpmath.besselj(*args))
    raise ValueError(f"unknown kernel {kind!r}")


def radial_solution(m: int, w_perp: float, x: float) -> complex:
    import mpmath

    am = abs(m)
    u = math.sqrt(w_perp - 0.25)
    alpha, beta = complex(am + 0.5, -u), complex(am + 0.5, u)
    F = complex(mpmath.hyp2f1(alpha, beta, am + 1.0, 1.0 - x))
    if x == 1.0:
        return F if am == 0 else 0j
    return x ** (am / 2.0) * complex(1.0 - x) ** (am / 2.0) * F


def radial_amplitudes(m: int, w_perp: float) -> tuple[complex, complex]:
    """Connection coefficients of 2F1(alpha, beta; c; 1 - x) at x -> infinity."""
    import mpmath

    am = abs(m)
    u = math.sqrt(w_perp - 0.25)
    alpha, beta, c = mpmath.mpc(am + 0.5, -u), mpmath.mpc(am + 0.5, u), am + 1.0
    g = mpmath.gamma
    c3 = g(c) * g(beta - alpha) / (g(beta + 1 - c) * g(beta))
    c4 = g(c) * g(alpha - beta) / (g(alpha + 1 - c) * g(alpha))
    return complex(c3), complex(c4)


def close(got, want, rtol: float, atol: float = 0.0) -> bool:
    """Elementwise |got - want| <= atol + rtol * |want| for scalars or arrays."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))
