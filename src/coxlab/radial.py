"""Radial spectra: closed forms, a grid eigensolver, and hypergeometric solutions.

Closed-form spectra (library units, curvature radius rho = 1):

    flat:         eps' = 4b (n + (m+|m|+1)/2),
                  eps  = eps' + (1-eta^2) k^2 - 2 eta b,
                  E    = eps / (2M(1-eta^2))              (hbar = M = 1)
    lobachevsky:  Lambda - 1/4 = 2b(s+1/2) - (s+1/2)^2,   s = (m+|m|)/2 + n,
                  bound iff m < 2b, s+1/2 <= b and b <= Lambda
    spherical:    Lambda = 2 sigma b l + l^2 - 1/4,  l = n + max(sigma m, 0) + 1/2,
                  sigma = -1 where m <= 0 and m < -2b, else +1
                  (branches labelled m>0, -2b<=m<=0 and m<-2b)

The numerical route discretizes the separated equation in Liouville
(finite-volume) form on the natural weight (r, sh r, sin r) and solves
the symmetric tridiagonal eigenproblem on a grid and its doubling, with
Richardson extrapolation as the error estimate.  One assembly serves the
two grids and a small seed grid: the weight is evaluated once on the
doubled grid's faces and centers, whose faces are the grid's own faces
and centers, and q0 is formed from the weight in hand.  Sturm bisection
runs on the seed grid only, to a loose tolerance, because its pairs only
start Rayleigh-quotient iteration on the grid.  The doubled grid starts
from the Richardson prediction of its values (seed and grid values,
error ~ h^2) and from the grid's vectors interpolated onto its centers.
On both grids a residual-and-Sturm-count certificate proves that the
refined pairs are the lowest levels, in order, or the two grids are
bisected instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .backgrounds import BackgroundSpec, QuantumNumbers, SeparatedODE, assemble_radial_ode
from .errors import (
    CutoffTooSmall,
    DomainError,
    GridTooCoarse,
    NonConvergence,
    ParameterError,
    require_finite,
    require_int,
)
from .special_functions import gamma_complex, gauss_2f1

__all__ = [
    "SpectrumEntry",
    "GridSpec",
    "EigenResult",
    "analytic_spectrum",
    "flat_physical_energy",
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

    Lambda: float
    epsilon: float | None = None
    energy: float | None = None
    valid: bool = True
    reason: str = ""
    branch: str = ""


@dataclass(frozen=True)
class GridSpec:
    """Radial grid: `points` cells at the coarse level, cutoff r_max.

    r_max, positive and finite, is required for the non-compact sections
    (flat, Lobachevsky) and ignored on the sphere, whose chart ends at
    r = pi.  `tol` is the acceptable relative eigenvalue error after
    extrapolation.
    """

    points: int
    r_max: float | None = None
    tol: float = 1e-6

    def __post_init__(self) -> None:
        require_int("grid points", self.points)
        if self.points < 16:
            raise ParameterError("grid needs at least 16 cells")
        if self.r_max is not None:
            if not self.r_max > 0:
                raise ParameterError("r_max must be positive")
            require_finite(r_max=self.r_max)
        if not self.tol > 0:
            raise ParameterError("tol must be positive")


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: np.ndarray
    error_estimates: np.ndarray


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def analytic_spectrum(spec: BackgroundSpec, qn: QuantumNumbers) -> SpectrumEntry:
    """Closed-form level for a magnetic configuration.

    On Lobachevsky space only finitely many bound levels exist; outside
    that range the entry comes back with valid=False and a reason naming
    the violated condition.  A level that overflows double raises
    DomainError.
    """
    if spec.field != "magnetic":
        raise ParameterError("closed-form spectra exist for the magnetic configurations")
    n, m, b = qn.n, qn.m, spec.b

    if spec.geometry == "flat":
        eps_prime = 4.0 * b * (n + (m + abs(m) + 1) / 2.0)
        one = 1.0 - spec.eta**2
        eps = eps_prime + one * (qn.k * qn.k) - 2.0 * spec.eta * b
        entry = SpectrumEntry(Lambda=eps_prime, epsilon=eps, energy=eps / (2.0 * one))
    elif spec.geometry == "lobachevsky":
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
        entry = SpectrumEntry(Lambda=Lam, valid=not reason, reason=reason)
    else:
        # spherical: discrete for every (n, m), one formula signed by the branch.
        # sigma stays an int, so that for integer n and m, n + max(sigma m, 0) is
        # exact and rounds once, at + 1/2 (a float sigma would round m first)
        sigma = 1 if m > 0 or m >= -2.0 * b else -1
        ell = n + max(sigma * m, 0) + 0.5
        Lam = 2.0 * sigma * b * ell + ell * ell - 0.25
        branch = "m>0" if m > 0 else "-2b<=m<=0" if sigma > 0 else "m<-2b"
        entry = SpectrumEntry(Lambda=Lam, branch=branch)

    for name in ("Lambda", "epsilon", "energy"):
        value = getattr(entry, name)
        if value is not None and not math.isfinite(value):
            raise DomainError(f"closed-form {name} = {value} overflows double (b = {spec.b}, k = {qn.k})")
    return entry


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
_SEED_TOL = 1e-9  # seed bisection tolerance in ||T_seed||_inf; loose: the certificate proves the index
_STOP = 16.0  # residual that ends a refinement, in eps * ||T||_inf
_MARGIN = 1e3  # rounding allowance of the index certificate, in eps * ||T||_inf
_MAX_SOLVES = 8  # per level; a level still short of the stop falls back


class _Grid(NamedTuple):
    """One discretization: cell centers, step h, weight w at the centers,
    the symmetric tridiagonal (d, e) and its norm ||T||_inf."""

    centers: np.ndarray
    h: float
    w: np.ndarray
    d: np.ndarray
    e: np.ndarray
    norm: float


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # refused below
def _tridiags(ode: SeparatedODE, sizes, r_max: float):
    """Symmetric tridiagonal discretizations of -(w R')'/w - q0 on cell centers,
    one _Grid per cell count in `sizes`.

    Cell-centered nodes r_i = (i+1/2)h keep the centrifugal term finite
    and make the axis (weight -> 0) a natural boundary; the outer face
    is Dirichlet for a cutoff, natural on the sphere where sin(pi) = 0.
    Liouville scaling u = R sqrt(w) symmetrizes the matrix.  A grid of n
    cells lives on the 2n+1 nodes k h/2: faces at even k, centers at odd
    k.  A count whose double is also in `sizes` evaluates nothing: its
    nodes are the double's faces, the same numbers bit for bit.  So the
    weight runs once on every node, and q0 once on every center from
    the weight in hand (`q0_weighted`).
    Raises DomainError when an entry overflows double.
    """
    nodes, weights = {}, {}
    for n in sorted(sizes, reverse=True):  # a double before its half
        if 2 * n in nodes:
            nodes[n], weights[n] = nodes[2 * n][::2], weights[2 * n][::2]
        else:
            nodes[n] = np.arange(2 * n + 1) * (r_max / (2 * n))
            weights[n] = np.asarray(ode.weight(nodes[n]), dtype=float)
    out = []
    for n in sizes:
        h, centers, w_face, w_cent = r_max / n, nodes[n][1::2], weights[n][::2], weights[n][1::2]
        diag = (w_face[:-1] + w_face[1:]) / (h * h * w_cent) - ode.q0_weighted(centers, w_cent)
        off = -w_face[1:-1] / (h * h * np.sqrt(w_cent[:-1] * w_cent[1:]))
        rows, off_abs = np.abs(diag), np.abs(off)
        rows[:-1] += off_abs
        rows[1:] += off_abs
        norm = float(rows.max())  # inf or nan when an entry is
        if not math.isfinite(norm):
            raise DomainError(f"radial matrix overflows double on {n} cells")
        out.append(_Grid(centers, h, w_cent, diag, off, norm))
    return out


def _lapack_on_first_call(name: str):
    """Stand-in for LAPACK routine `name`: its first call imports scipy's
    LAPACK wrappers (most of a cold start for the commands that never
    solve a radial problem) and rebinds every stand-in still in place to
    its routine, so later calls go straight to LAPACK."""

    def first_call(*args, **kwargs):
        from scipy.linalg import lapack

        module = globals()
        for routine in ("dgtsv", "dstebz", "dstein"):
            if getattr(module[routine], "lapack_stand_in", False):
                module[routine] = getattr(lapack, routine)
        return getattr(lapack, name)(*args, **kwargs)

    first_call.lapack_stand_in = True
    return first_call


dgtsv = _lapack_on_first_call("dgtsv")
dstebz = _lapack_on_first_call("dstebz")
dstein = _lapack_on_first_call("dstein")


def _bisect(d, e, count: int, tol: float = 0.0, vectors: bool = True):
    """Lowest `count` eigenvalues of the tridiagonal (d, e) by Sturm
    bisection to absolute tolerance `tol` (0: LAPACK's default, about
    eps ||T||), with unit eigenvectors (as rows) by inverse iteration
    when `vectors`.  Raises NonConvergence when LAPACK reports a failure
    (entries whose squares overflow make the Sturm sequence fail)."""
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, count, tol, b"B")
    if info == 0 and m == count and vectors:
        z, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0 or m != count:
        raise NonConvergence(f"Sturm bisection failed on {len(d)} cells (LAPACK info {info})")
    order = np.argsort(w[:m])
    return (w[order], z.T[order]) if vectors else w[order]


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


def _refine(grid, shifts, starts):
    """Lowest len(shifts) eigenpairs of a grid from _tridiags, refined from
    approximate shifts and starting vectors (rows of `starts`), or None
    unless a certificate proves they are the lowest ones, in order.

    Certificate: every residual interval sigma_k +- r_k holds an
    eigenvalue; the intervals, widened by a rounding margin, are
    disjoint and in order; and one Sturm count (stebz with an infinite
    tolerance counts without bisecting) finds exactly as many
    eigenvalues as intervals up to just above the top one.
    """
    d, e, t_norm = grid.d, grid.e, grid.norm
    count = len(shifts)
    stop, margin = _STOP * _EPS * t_norm, _MARGIN * _EPS * t_norm
    sigmas, radii = np.empty(count), np.empty(count)
    vecs = np.empty((count, len(d)))
    for k in range(count):
        pair = _rqi(d, e, float(shifts[k]), starts[k], stop)
        if pair is None:
            return None
        sigmas[k], radii[k], vecs[k] = pair
    if not np.all(sigmas[1:] - radii[1:] - sigmas[:-1] - radii[:-1] > 2.0 * margin):
        return None
    top = sigmas[-1] + 2.0 * radii[-1] + margin
    if dstebz(d, e, 1, -2.0 * t_norm - 1.0, top, 0, 0, 1e300, b"E")[0] != count:
        return None
    return sigmas, vecs


def _halved(vecs):
    """Rows of values at cell centers, linearly interpolated onto the
    centers of the grid with half the step (constant beyond the outer
    centers): each cell's two halves sit a quarter step either side."""
    out = np.empty((len(vecs), 2 * vecs.shape[1]))
    out[:, 2::2] = 0.75 * vecs[:, 1:] + 0.25 * vecs[:, :-1]
    out[:, 1:-1:2] = 0.75 * vecs[:, :-1] + 0.25 * vecs[:, 1:]
    out[:, 0], out[:, -1] = vecs[:, 0], vecs[:, -1]
    return out


def _lowest_pairs(grids, count: int):
    """Lowest `count` eigenvalues of the coarse grid and eigenpairs (vectors
    as rows, in stein's sign: the largest-magnitude component is positive)
    of the fine grid.

    With a seed grid (third entry of `grids`), its pairs, bisected to a
    loose tolerance, are refined on the coarse grid.  The fine grid then
    starts from the Richardson prediction of its values from the seed
    and coarse ones, and from the coarse vectors interpolated onto its
    centers.  Without a seed grid, or when a certificate fails, both
    grids are bisected.
    """
    coarse, fine = grids[:2]
    if len(grids) == 3:
        seed = grids[2]
        seed_vals, seed_vecs = _bisect(seed.d, seed.e, count, _SEED_TOL * seed.norm)
        starts = [np.interp(coarse.centers, seed.centers, v) for v in seed_vecs]
        refined = _refine(coarse, seed_vals, starts)
        if refined is not None:
            h1, h2, hs = coarse.h**2, fine.h**2, seed.h**2  # lambda(h) ~ lambda + c h^2
            shifts = refined[0] + (refined[0] - seed_vals) * ((h2 - h1) / (h1 - hs))
            top = _refine(fine, shifts, _halved(refined[1]))
            if top is not None:
                vecs = top[1]
                vecs *= np.sign(vecs[np.arange(count), np.argmax(np.abs(vecs), axis=1)])[:, None]
                return refined[0], top[0], vecs
    vals1 = _bisect(coarse.d, coarse.e, count, vectors=False)
    vals2, vecs = _bisect(fine.d, fine.e, count)
    return vals1, vals2, vecs


def solve_radial_eigen(ode: SeparatedODE, count: int, grid: GridSpec) -> EigenResult:
    """Lowest `count` eigenvalues/functions of a separated radial equation.

    Solves on `grid.points` and 2x cells, Richardson-extrapolates the
    h^2 error and reports |difference|/3 as the estimate.  The two grids
    and, above SEED_CELLS cells, a SEED_CELLS-cell seed grid come from
    one assembly.  Bisection runs only on the seed grid, to a tolerance
    of _SEED_TOL * ||T||; its pairs are refined on the coarse grid by
    Rayleigh-quotient iteration, and the fine grid starts from shifts
    Richardson-predicted from the seed and coarse values.  Refined pairs
    are kept under an index certificate, or else both grids are bisected
    (as they are at or below SEED_CELLS cells, or for more than
    SEED_CELLS - 2 levels).  Raises GridTooCoarse when the estimate
    exceeds grid.tol relative to the eigenvalue, CutoffTooSmall when an
    eigenfunction carries more than 1e-8 of its norm in the outermost
    cells of a truncated domain, DomainError when the matrix overflows
    double and NonConvergence when LAPACK's bisection fails.
    Eigenfunctions come back on the fine grid, normalized to
    sum(w R^2 h) = 1.
    """
    if ode.kind != "radial" or ode.weight is None or ode.q0_weighted is None:
        raise ParameterError("solve_radial_eigen needs a radial equation (weight and q0_weighted)")
    require_int("count", count)
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
    centers, h, w_cent = grids[1].centers, grids[1].h, grids[1].w
    vals1, vals2, vecs = _lowest_pairs(grids, count)

    extrapolated = vals2 + (vals2 - vals1) / 3.0
    estimates = np.abs(vals2 - vals1) / 3.0

    # back to R; unit vectors have unit norm in the weighted measure
    funcs = vecs / np.sqrt(w_cent * h)

    if not compact:
        tail = max(3, n2 // 50)
        tail_mass = np.sum(vecs[:, -tail:] ** 2, axis=1)  # sum(w R^2 h) over the tail
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
        error_estimates=estimates,
    )


# ---------------------------------------------------------------------------
# hypergeometric closed form for the Lobachevsky electric radial equation
# ---------------------------------------------------------------------------

def _oscillatory_parameters(m: int, w_perp: float, what: str) -> tuple[int, complex, complex]:
    """|m|, alpha = |m| + 1/2 - i u and beta = conj(alpha), u = sqrt(w_perp - 1/4);
    ParameterError naming the oscillatory `what` unless w_perp > 1/4, and
    naming m unless m is an integer (an integral float counts)."""
    if not w_perp > 0.25:
        raise ParameterError(f"oscillatory {what} require w_perp > 1/4")
    if not isinstance(m, numbers.Integral) and not float(m).is_integer():
        raise ParameterError(f"oscillatory {what} need an integer m, got {m!r}")
    am = abs(int(m))
    alpha = complex(am + 0.5, -math.sqrt(w_perp - 0.25))
    return am, alpha, alpha.conjugate()


def radial_hypergeometric_solution(m: int, w_perp: float, x: float) -> complex:
    """Regular radial solution in the variable x = (1 + ch r)/2 >= 1.

        R(x) = x^a (1-x)^a F(alpha, beta; |m|+1; 1-x),   a = |m|/2,
        alpha = |m| + 1/2 - i u,  beta = conj(alpha),  u = sqrt(w_perp - 1/4),

    normalized to R -> i^|m| (x-1)^a at the axis.  The (1-x)^a factor is
    taken on the principal branch, so the whole solution carries the
    constant phase i^|m|; modulus and oscillation pattern are phase-free.
    Requires w_perp > 1/4 (the oscillatory regime above the continuum edge).
    """
    am, alpha, beta = _oscillatory_parameters(m, w_perp, "solutions")
    if x < 1.0:
        raise DomainError("the variable x = (1 + ch r)/2 satisfies x >= 1")
    a = am / 2.0
    F = gauss_2f1(alpha, beta, am + 1.0, 1.0 - x)
    if x == 1.0:
        pref = 1.0 + 0.0j if am == 0 else 0.0 + 0.0j
    else:
        pref = x**a * complex(1.0 - x) ** a
    return pref * F


def asymptotic_amplitudes(m: int, w_perp: float) -> tuple[complex, complex]:
    """Coefficients (c3, c4) of the x -> infinity form of the radial solution,

        R(x) ~ i^|m| [c3 x^(-1/2 + iu) + c4 x^(-1/2 - iu)],  u = sqrt(w_perp - 1/4),

    so the envelope of |x^(1/2) R| is |c3| + |c4| = 2|c3|.  The pair is
    complex conjugate: beta = conj(alpha) and c is real, so every factor
    of c4 is the conjugate of c3's, and c4 is returned as conj(c3).
    """
    am, alpha, beta = _oscillatory_parameters(m, w_perp, "asymptotics")
    cpar = am + 1.0
    c3 = (
        gamma_complex(cpar)
        * gamma_complex(beta - alpha)
        / (gamma_complex(beta + 1.0 - cpar) * gamma_complex(beta))
    )
    return c3, c3.conjugate()
