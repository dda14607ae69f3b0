"""Radial spectra: closed forms, a grid eigensolver, and hypergeometric solutions.

Closed-form spectra (library units, curvature radius rho = 1):

    flat:         eps' = 4b (n + (m+|m|+1)/2),
                  eps  = eps' + (1-eta^2) k^2 - 2 eta b,
                  E    = eps / (2M(1-eta^2))              (hbar = M = 1)
    lobachevsky:  Lambda - 1/4 = 2b(s+1/2) - (s+1/2)^2,   s = (m+|m|)/2 + n,
                  bound iff m < 2b, s+1/2 <= b and b <= Lambda
    spherical:    m > 0:           Lambda = 2b l + l^2 - 1/4,  l = n + m + 1/2
                  -2b <= m <= 0:   Lambda = 2b(n+1/2) + (n+1/2)^2 - 1/4
                  m < -2b:         Lambda = -2b l + l^2 - 1/4,  l = n - m + 1/2

The numerical route discretizes the separated equation in Liouville
(finite-volume) form on the natural weight (r, sh r, sin r) and solves
the symmetric tridiagonal eigenproblem on a grid and its doubling, with
Richardson extrapolation as the error estimate.  Sturm bisection runs on
a small seed grid; Rayleigh-quotient iteration refines its pairs on the
two grids, and a residual-and-Sturm-count certificate proves that they
are the lowest levels, in order, or the two grids are bisected instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .backgrounds import BackgroundSpec, QuantumNumbers, SeparatedODE, assemble_radial_ode
from .errors import (
    CutoffTooSmall,
    DomainError,
    GridTooCoarse,
    InvalidEta,
    NoBoundState,
    ParameterError,
)
from .special_functions import SeriesControl, gamma_complex, gauss_2f1

__all__ = [
    "SpectrumEntry",
    "GridSpec",
    "EigenResult",
    "analytic_spectrum",
    "flat_physical_energy",
    "oscillator_frequency_shift",
    "spectrum_matched_ode",
    "solve_radial_eigen",
    "radial_hypergeometric_solution",
    "asymptotic_amplitudes",
]


@dataclass(frozen=True)
class SpectrumEntry:
    """One closed-form level.

    Lambda is the radial eigenvalue (eps' on the flat section); epsilon
    and energy are filled only on the flat section, where the spectral
    parameter is eps = 2ME(1-eta^2) in units hbar = M = 1.
    """

    qn: QuantumNumbers
    Lambda: float
    epsilon: float | None = None
    epsilon_convention: str = ""
    energy: float | None = None
    valid: bool = True
    reason: str = ""
    branch: str = ""


@dataclass(frozen=True)
class GridSpec:
    """Radial grid: `points` cells at the coarse level, cutoff r_max.

    r_max is required for the non-compact sections (flat, Lobachevsky)
    and ignored on the sphere, whose chart ends at r = pi.  `tol` is the
    acceptable relative eigenvalue error after extrapolation.
    """

    points: int
    r_max: float | None = None
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.points < 16:
            raise ParameterError("grid needs at least 16 cells")
        if self.r_max is not None and not self.r_max > 0:
            raise ParameterError("r_max must be positive")
        if not self.tol > 0:
            raise ParameterError("tol must be positive")


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: np.ndarray
    grid_spec: GridSpec
    error_estimates: np.ndarray


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

_FLAT_EPS_CONVENTION = "eps = 2*M*E*(1 - eta^2), hbar = M = 1"


def analytic_spectrum(
    spec: BackgroundSpec, qn: QuantumNumbers, strict: bool = True
) -> SpectrumEntry:
    """Closed-form level for a magnetic configuration.

    On Lobachevsky space only finitely many bound levels exist; outside
    that range the entry is returned with valid=False (strict=False) or
    NoBoundState is raised (strict=True) naming the violated condition.
    A level that overflows double raises DomainError.
    """
    entry = _closed_form_level(spec, qn, strict)
    for name in ("Lambda", "epsilon", "energy"):
        value = getattr(entry, name)
        if value is not None and not math.isfinite(value):
            raise DomainError(f"closed-form {name} = {value} overflows double (b = {spec.b}, k = {qn.k})")
    return entry


def _closed_form_level(spec: BackgroundSpec, qn: QuantumNumbers, strict: bool) -> SpectrumEntry:
    if spec.field != "magnetic":
        raise ParameterError("closed-form spectra exist for the magnetic configurations")
    n, m, b = qn.n, qn.m, spec.b

    if spec.geometry == "flat":
        eps_prime = 4.0 * b * (n + (m + abs(m) + 1) / 2.0)
        one = 1.0 - spec.eta**2
        eps = eps_prime + one * (qn.k * qn.k) - 2.0 * spec.eta * b
        return SpectrumEntry(
            qn=qn,
            Lambda=eps_prime,
            epsilon=eps,
            epsilon_convention=_FLAT_EPS_CONVENTION,
            energy=eps / (2.0 * one),
        )

    if spec.geometry == "lobachevsky":
        s = (m + abs(m)) / 2.0 + n
        t = s + 0.5
        Lam = 0.25 + 2.0 * b * t - t * t
        reason = ""
        if not m < 2.0 * b:
            reason = f"m = {m} is not below 2b = {2 * b}"
        elif not t <= b:
            reason = f"s + 1/2 = {t} exceeds b = {b}"
        elif not b <= Lam:
            reason = f"Lambda = {Lam} fell below b = {b}"
        if reason and strict:
            raise NoBoundState(reason)
        return SpectrumEntry(qn=qn, Lambda=Lam, valid=not reason, reason=reason)

    # spherical: discrete for every (n, m), in three branches
    if m > 0:
        ell = n + m + 0.5
        Lam = 2.0 * b * ell + ell * ell - 0.25
        branch = "m>0"
    elif m >= -2.0 * b:
        t = n + 0.5
        Lam = 2.0 * b * t + t * t - 0.25
        branch = "-2b<=m<=0"
    else:
        ell = n - m + 0.5
        Lam = -2.0 * b * ell + ell * ell - 0.25
        branch = "m<-2b"
    return SpectrumEntry(qn=qn, Lambda=Lam, branch=branch)


def flat_physical_energy(spec: BackgroundSpec, qn: QuantumNumbers, eps_prime: float) -> float:
    """Energy of a flat-section level from its radial eigenvalue eps'.

    E = k^2/2 + (eps' - 2 eta b) / (2 (1 - eta^2)), hbar = M = 1.
    An energy that overflows double raises DomainError.
    """
    if spec.geometry != "flat" or spec.field != "magnetic":
        raise ParameterError("energy conversion applies to the flat magnetic section")
    one = 1.0 - spec.eta**2
    energy = qn.k * qn.k / 2.0 + (eps_prime - 2.0 * spec.eta * spec.b) / (2.0 * one)
    if not math.isfinite(energy):
        raise DomainError(f"energy = {energy} overflows double (b = {spec.b}, k = {qn.k})")
    return energy


def oscillator_frequency_shift(B: float, Gamma: float, M: float = 1.0) -> float:
    """Renormalized cyclotron frequency (B/M)/(1 - (Gamma B)^2), units e = hbar = c = 1.

    The intrinsic structure rescales the oscillator frequency by
    1/(1 - eta^2) with eta = Gamma B; |eta| >= 1 has no oscillator regime.
    """
    eta = Gamma * B
    if abs(eta) >= 1.0:
        raise InvalidEta(f"|Gamma*B| = {abs(eta)} is not below 1")
    return (B / M) / (1.0 - eta * eta)


def spectrum_matched_ode(spec: BackgroundSpec, qn: QuantumNumbers) -> SeparatedODE:
    """Radial equation whose numerical eigenvalues carry the labels of
    analytic_spectrum(spec, qn).

    The separated equations and the closed-form spectra use opposite
    sign conventions for the azimuthal number (both conventions are in
    circulation, differing by the sign of the charge-field product), so
    the equation for -m is the one whose n-th eigenvalue equals the
    closed-form level (n, m).
    """
    return assemble_radial_ode(spec, replace(qn, m=-qn.m))


# ---------------------------------------------------------------------------
# finite-volume eigensolver
# ---------------------------------------------------------------------------

SEED_CELLS = 128  # the grid whose bisected pairs seed the refinement
_EPS = float(np.finfo(float).eps)
_STOP = 16.0  # residual that ends a refinement, in eps * ||T||_inf
_MARGIN = 1e3  # rounding allowance of the index certificate, in eps * ||T||_inf
_MAX_SOLVES = 8  # per level; a level still short of the stop falls back


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def _tridiags(ode: SeparatedODE, sizes, r_max: float):
    """Symmetric tridiagonal discretizations of -(w R')'/w - q0 on cell centers,
    one (centers, h, w_cent, diag, off) per cell count in `sizes`.

    Cell-centered nodes r_i = (i+1/2)h keep the centrifugal term finite
    and make the axis (weight -> 0) a natural boundary; the outer face
    is Dirichlet for a cutoff, natural on the sphere where sin(pi) = 0.
    Liouville scaling u = R sqrt(w) symmetrizes the matrix.  The weight
    is evaluated once on every face and center, q0 once on every center.
    Raises DomainError when an entry overflows double.
    """
    steps = [r_max / n for n in sizes]
    centers = [(np.arange(n) + 0.5) * h for n, h in zip(sizes, steps)]
    faces = [np.arange(n + 1) * h for n, h in zip(sizes, steps)]
    w_all = np.asarray(ode.weight(np.concatenate(faces + centers)), dtype=float)
    q_all = np.asarray(ode.qcoef(np.concatenate(centers), 0.0), dtype=float)
    w_parts = np.split(w_all, np.cumsum([n + 1 for n in sizes] + list(sizes))[:-1])
    w_faces, w_cents = w_parts[: len(sizes)], w_parts[len(sizes) :]
    q0s = np.split(q_all, np.cumsum(sizes)[:-1])
    out = []
    for n, h, c, w_face, w_cent, q0 in zip(sizes, steps, centers, w_faces, w_cents, q0s):
        diag = (w_face[:-1] + w_face[1:]) / (h * h * w_cent) - q0
        off = -w_face[1:-1] / (h * h * np.sqrt(w_cent[:-1] * w_cent[1:]))
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise DomainError(f"radial matrix overflows double on {n} cells")
        out.append((c, h, w_cent, diag, off))
    return out


def _rqi(d, e, sigma: float, v, stop: float):
    """Rayleigh-quotient iteration from shift sigma and vector v.

    Each step solves (T - sigma) y = v, then moves sigma by
    delta = y.v / y.y (to the Rayleigh quotient of y) and v to y/|y|.
    Then (T - sigma - delta) y/|y| = (v - delta y)/|y|, so the residual
    costs one vector expression.  Returns (sigma, residual, v) once the
    residual is at most `stop`; None when it is not reached in
    _MAX_SOLVES steps or a solve fails.
    """
    for _ in range(_MAX_SOLVES):
        _, _, _, y, info = dgtsv(e, d - sigma, e, v, overwrite_d=1)
        yy = float(y @ y)
        if info != 0 or not 0.0 < yy < math.inf:
            return None
        delta = float(y @ v) / yy
        norm = math.sqrt(yy)
        res = v - delta * y
        residual = math.sqrt(float(res @ res)) / norm
        sigma += delta
        v = y / norm
        if residual <= stop:
            return sigma, residual, v
    return None


def _refine(d, e, shifts, starts):
    """Lowest len(shifts) eigenpairs of the tridiagonal (d, e), refined from
    approximate shifts and starting vectors (columns of `starts`), or None
    unless a certificate proves they are the lowest ones, in order.

    Certificate: every residual interval sigma_k +- r_k holds an
    eigenvalue; the intervals, widened by a rounding margin, are
    disjoint and in order; and one Sturm count (stebz with an infinite
    tolerance counts without bisecting) finds exactly as many
    eigenvalues as intervals up to just above the top one.  Vectors take
    stein's sign: the largest-magnitude component is positive.
    """
    count = len(shifts)
    rows, off = np.abs(d), np.abs(e)
    rows[:-1] += off
    rows[1:] += off
    t_norm = float(rows.max())  # ||T||_inf
    stop, margin = _STOP * _EPS * t_norm, _MARGIN * _EPS * t_norm
    sigmas, radii = np.empty(count), np.empty(count)
    vecs = np.empty((len(d), count))
    for k in range(count):
        pair = _rqi(d, e, float(shifts[k]), starts[:, k], stop)
        if pair is None:
            return None
        sigmas[k], radii[k], vecs[:, k] = pair
    if not np.all(sigmas[1:] - radii[1:] - sigmas[:-1] - radii[:-1] > 2.0 * margin):
        return None
    top = sigmas[-1] + 2.0 * radii[-1] + margin
    if dstebz(d, e, 1, -2.0 * t_norm - 1.0, top, 0, 0, 1e300, b"E")[0] != count:
        return None
    peaks = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.sign(vecs[peaks, np.arange(count)])
    return sigmas, vecs


def _lowest_pairs(grids, count: int):
    """Lowest `count` eigenvalues of the coarse grid and eigenpairs of the
    fine grid.  With a seed grid (third entry of `grids`), its bisected
    pairs are refined on the coarse and then the fine grid; without one,
    or when a certificate fails, both grids are bisected."""
    (c1, _, _, d1, e1), (_, _, _, d2, e2) = grids[:2]
    if len(grids) == 3:
        cs, _, _, ds, es = grids[2]
        seed_vals, seed_vecs = eigh_tridiagonal(ds, es, select="i", select_range=(0, count - 1))
        starts = np.column_stack([np.interp(c1, cs, seed_vecs[:, k]) for k in range(count)])
        coarse = _refine(d1, e1, seed_vals, starts)
        if coarse is not None:
            fine = _refine(d2, e2, coarse[0], np.repeat(coarse[1], 2, axis=0))
            if fine is not None:
                return coarse[0], fine[0], fine[1]
    vals1 = eigh_tridiagonal(d1, e1, select="i", select_range=(0, count - 1), eigvals_only=True)
    vals2, vecs = eigh_tridiagonal(d2, e2, select="i", select_range=(0, count - 1))
    return vals1, vals2, vecs


def solve_radial_eigen(ode: SeparatedODE, count: int, grid: GridSpec) -> EigenResult:
    """Lowest `count` eigenvalues/functions of a separated radial equation.

    Solves on `grid.points` and 2x cells, Richardson-extrapolates the
    h^2 error and reports |difference|/3 as the estimate.  Above
    SEED_CELLS cells, bisection runs only on a SEED_CELLS-cell grid; its
    pairs are refined on both grids by Rayleigh-quotient iteration and
    kept under an index certificate, or else both grids are bisected
    (as they are at or below SEED_CELLS cells, or for more than
    SEED_CELLS - 2 levels).  Raises
    GridTooCoarse when the estimate exceeds grid.tol relative to the
    eigenvalue and CutoffTooSmall when an eigenfunction carries more
    than 1e-8 of its norm in the outermost cells of a truncated domain.
    Eigenfunctions come back on the fine grid, normalized to
    sum(w R^2 h) = 1.
    """
    if ode.kind != "radial" or ode.weight is None:
        raise ParameterError("solve_radial_eigen needs a radial equation with a weight")
    if count < 1:
        raise ParameterError("count must be >= 1")

    compact = math.isfinite(ode.domain[1])
    if compact:
        r_max = ode.domain[1]
    else:
        if grid.r_max is None:
            raise ParameterError("r_max is required on a non-compact section")
        r_max = grid.r_max

    n1 = grid.points
    n2 = 2 * n1
    if count > n1 - 2:
        raise ParameterError("count too large for the grid")

    seeded = n1 > SEED_CELLS and count <= SEED_CELLS - 2
    grids = _tridiags(ode, (n1, n2, SEED_CELLS) if seeded else (n1, n2), r_max)
    centers, h, w_cent = grids[1][:3]
    vals1, vals2, vecs = _lowest_pairs(grids, count)

    extrapolated = vals2 + (vals2 - vals1) / 3.0
    estimates = np.abs(vals2 - vals1) / 3.0

    # back to R, unit norm in the weighted measure
    funcs = (vecs / np.sqrt(w_cent)[:, None]).T
    norms = np.sqrt(np.sum(w_cent * funcs**2, axis=1) * h)
    funcs = funcs / norms[:, None]

    if not compact:
        tail = max(3, n2 // 50)
        tail_mass = np.sum(w_cent[-tail:] * funcs[:, -tail:] ** 2, axis=1) * h
        worst = float(np.max(tail_mass))
        if worst > 1e-8:
            raise CutoffTooSmall(
                f"eigenfunction keeps {worst:.3e} of its norm near r_max = {r_max}; "
                "enlarge the cutoff"
            )

    bad = estimates > grid.tol * np.maximum(1.0, np.abs(extrapolated))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GridTooCoarse(
            f"eigenvalue {i} error estimate {estimates[i]:.3e} exceeds tol "
            f"{grid.tol} (relative); refine the grid"
        )

    return EigenResult(
        eigenvalues=extrapolated,
        eigenfunctions=funcs,
        grid=centers,
        grid_spec=grid,
        error_estimates=estimates,
    )


# ---------------------------------------------------------------------------
# hypergeometric closed form for the Lobachevsky electric radial equation
# ---------------------------------------------------------------------------

def radial_hypergeometric_solution(
    m: int, w_perp: float, x: float, ctl: SeriesControl | None = None
) -> complex:
    """Regular radial solution in the variable x = (1 + ch r)/2 >= 1.

        R(x) = x^a (1-x)^a F(alpha, beta; |m|+1; 1-x),   a = |m|/2,
        alpha = |m| + 1/2 - i u,  beta = conj(alpha),  u = sqrt(w_perp - 1/4),

    normalized to R -> i^|m| (x-1)^a at the axis.  The (1-x)^a factor is
    taken on the principal branch, so the whole solution carries the
    constant phase i^|m|; modulus and oscillation pattern are phase-free.
    Requires w_perp > 1/4 (the oscillatory regime above the continuum edge).
    """
    if not w_perp > 0.25:
        raise ParameterError("oscillatory solutions require w_perp > 1/4")
    if x < 1.0:
        raise DomainError("the variable x = (1 + ch r)/2 satisfies x >= 1")
    am = abs(int(m))
    a = am / 2.0
    u = math.sqrt(w_perp - 0.25)
    alpha = complex(am + 0.5, -u)
    beta = complex(am + 0.5, u)
    F = gauss_2f1(alpha, beta, am + 1.0, 1.0 - x, ctl)
    if x == 1.0:
        pref = 1.0 + 0.0j if am == 0 else 0.0 + 0.0j
    else:
        pref = x**a * complex(1.0 - x) ** a
    return pref * F


def asymptotic_amplitudes(m: int, w_perp: float) -> tuple[complex, complex]:
    """Coefficients (c3, c4) of the x -> infinity form of the radial solution,

        R(x) ~ i^|m| [c3 x^(-1/2 + iu) + c4 x^(-1/2 - iu)],  u = sqrt(w_perp - 1/4),

    so the envelope of |x^(1/2) R| is |c3| + |c4| = 2|c3|.  The pair is
    complex conjugate, |c3| = |c4|.
    """
    if not w_perp > 0.25:
        raise ParameterError("oscillatory asymptotics require w_perp > 1/4")
    am = abs(int(m))
    u = math.sqrt(w_perp - 0.25)
    alpha = complex(am + 0.5, -u)
    beta = complex(am + 0.5, u)
    cpar = am + 1.0
    c3 = (
        gamma_complex(cpar)
        * gamma_complex(beta - alpha)
        / (gamma_complex(beta + 1.0 - cpar) * gamma_complex(beta))
    )
    c4 = (
        gamma_complex(cpar)
        * gamma_complex(alpha - beta)
        / (gamma_complex(alpha + 1.0 - cpar) * gamma_complex(alpha))
    )
    return c3, c4
