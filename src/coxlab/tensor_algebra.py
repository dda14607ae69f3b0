"""Exact algebra of the field-dressed mass matrix.

A scalar particle with intrinsic structure acquires the matrix mass
``Lambda = mu*I + lam*F`` where ``F`` is the electromagnetic field
tensor in mixed form (one lower, one upper index) over a diagonal
metric of signature (+,-,-,-).  Because ``F`` satisfies a degree-four
minimal polynomial built from the two field invariants, ``Lambda`` can
be inverted in closed form; the general (complex, e.g. curvature
extended) case uses the characteristic coefficients from Newton's
trace recurrences instead.

Conventions: mixed tensors are 4x4 arrays or ``(..., 4, 4)`` stacks of
them, one per trial, row index = lower slot, column index = upper slot;
covariant field components are ``F_{0i} = E_i``, ``F_{ij} = eps_{ijk} B_k``.
Metric and particle fields may be arrays over the trials, field components
``(..., 3)`` arrays; each function returns per trial what its 4x4 call
returns (Python scalars for a 4x4 input), or raises the first failing
trial's error.  The coupling ``lam`` is the real number that multiplies
``F`` after the imaginary-unit substitution; the raw coupling is ``i*lam``
and never appears downstream.  Everything is dimensionless; unit
conversions live at the CLI boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import DomainError, ParameterError, SingularLambda

__all__ = [
    "DiagonalMetric",
    "FieldConfig3",
    "MixedTensor",
    "Invariants",
    "CharCoeffs",
    "ParticleConstants",
    "FLAT_METRIC",
    "build_mixed_field_tensor",
    "dual_tensor",
    "field_invariants",
    "minimal_poly_residuals",
    "lambda_inverse",
    "newton_char_coeffs",
    "general_lambda_inverse",
    "ricci_extended_matrix",
]


def _out(x):
    """A batch-shape () result as a Python scalar, a stack as an array."""
    return x if x.shape else x.item()


def _per_trial(formula, *args) -> list[np.ndarray]:
    """Columns of ``formula`` run trial by trial on Python scalars, whose ``**``
    (libm pow) and complex products numpy's array loops do not match bit for bit."""
    args = [np.asarray(a) for a in args]
    shape = np.broadcast(*args).shape
    cols = [(a if a.shape == shape else np.broadcast_to(a, shape)).ravel().tolist() for a in args]
    return [np.array(x).reshape(shape) for x in zip(*map(formula, *cols))]


def _require_finite(values, names: str) -> None:
    """ParameterError unless every entry of `values`, a (..., n) array of the
    n components in `names`, is finite; it names the first component that
    is not, and its first such entry."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite.reshape(-1, finite.shape[-1]).all(axis=0)))
        bad = np.asarray(values)[..., k][~finite[..., k]].flat[0]
        raise ParameterError(f"{names.split()[k]} must be finite, got {bad}")


@dataclass(frozen=True)
class DiagonalMetric:
    """Diagonal metric g = diag(g00, g11, g22, g33), finite, signature (+,-,-,-)."""

    g00: float
    g11: float
    g22: float
    g33: float

    def __post_init__(self) -> None:
        _require_finite(self.diag, "g00 g11 g22 g33")
        if not (self.diag[..., 0] > 0).all():
            raise ParameterError("metric signature requires g00 > 0")
        if not (self.diag[..., 1:] < 0).all():
            raise ParameterError("metric signature requires spatial g_ii < 0")

    @cached_property
    def diag(self) -> np.ndarray:
        """(..., 4) array of g00, g11, g22, g33 (read-only, built once)."""
        gs = np.broadcast_arrays(self.g00, self.g11, self.g22, self.g33)
        diag = np.stack(gs, -1, dtype=float)
        diag.flags.writeable = False
        return diag

    @property
    def inv_diag(self) -> np.ndarray:
        """Contravariant components g^{aa} = 1/g_{aa}."""
        return 1.0 / self.diag

    @property
    def sqrt_minus_det(self) -> float:
        return _out(np.sqrt(-(np.multiply(self.g00, self.g11) * self.g22 * self.g33)))


FLAT_METRIC = DiagonalMetric(1.0, -1.0, -1.0, -1.0)


# flat slots 4a + b of E_1..E_3, B_1..B_3 in F_{ab}, then in F_{ba}
_SLOTS = np.array([1, 2, 3, 11, 13, 6]), np.array([4, 8, 12, 14, 7, 9])


@dataclass(frozen=True)
class FieldConfig3:
    """Covariant electric and magnetic components (E_1,E_2,E_3), (B_1,B_2,B_3), finite."""

    E: tuple[float, float, float]
    B: tuple[float, float, float]

    def __post_init__(self) -> None:
        E, B = self.E_arr, self.B_arr
        if E.shape[-1:] != (3,) or E.shape != B.shape:
            raise ParameterError("E and B must be 3-vectors or (..., 3) stacks of one shape")
        _require_finite(E, "E_1 E_2 E_3")
        _require_finite(B, "B_1 B_2 B_3")

    @property
    def E_arr(self) -> np.ndarray:
        return np.asarray(self.E, dtype=float)

    @property
    def B_arr(self) -> np.ndarray:
        return np.asarray(self.B, dtype=float)

    @cached_property
    def _covariant(self) -> np.ndarray:
        """Covariant F_{ab}, one per trial (built once)."""
        EB = np.concatenate((self.E_arr, self.B_arr), axis=-1)
        F = np.zeros(EB.shape[:-1] + (16,))
        F[..., _SLOTS[0]] = EB
        F[..., _SLOTS[1]] = -EB
        return F.reshape(EB.shape[:-1] + (4, 4))


@dataclass(eq=False)
class MixedTensor:
    """Mixed tensor T_alpha^beta, 4x4 or a (..., 4, 4) stack; rows lower index, columns upper.

    Its kind follows its entries: complex entries stay complex (zero
    imaginary parts included), anything else is stored as float.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(
            self.entries, dtype=complex if np.iscomplexobj(self.entries) else float
        )
        if self.entries.shape[-2:] != (4, 4):
            raise ParameterError("mixed tensor must be 4x4 or a (..., 4, 4) stack")


@dataclass(frozen=True)
class Invariants:
    """Field invariants I, J plus trace-identity consistency residuals."""

    I: float
    J: float
    residual_I: float = 0.0
    residual_J: float = 0.0


@dataclass(frozen=True)
class CharCoeffs:
    """Characteristic data of G: G^4 = p1 G^3 + p2 G^2 + p3 G + p4 I."""

    p1: complex
    p2: complex
    p3: complex
    p4: complex
    cayley_residual: float = 0.0


@dataclass(frozen=True)
class ParticleConstants:
    """Finite mass parameter mu = M*c > 0 and real intrinsic-structure coupling lam.

    ``lam`` already contains the imaginary-unit substitution of the raw
    coupling (raw = i*lam); Gamma = lam/mu is the structure constant
    entering eta = Gamma*B and gamma = Gamma*B(z).
    """

    mu: float
    lam: float

    def __post_init__(self) -> None:
        _require_finite(np.stack(np.broadcast_arrays(self.mu, self.lam), -1), "mu lam")
        if not (np.asarray(self.mu) > 0).all():
            raise ParameterError("mass parameter mu must be positive")


# ---------------------------------------------------------------------------
# Field tensor, dual, invariants
# ---------------------------------------------------------------------------


def build_mixed_field_tensor(fields: FieldConfig3, metric: DiagonalMetric) -> MixedTensor:
    """Mixed field tensor F_alpha^beta = F_{alpha rho} g^{rho beta}, one per trial."""
    return MixedTensor(fields._covariant * metric.inv_diag[..., None, :])


_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _EPS4[_perm] = round(np.linalg.det(np.eye(4)[list(_perm)]))  # the permutation's sign


def dual_tensor(fields: FieldConfig3, metric: DiagonalMetric) -> MixedTensor:
    """Mixed dual tensor (F*)_alpha^beta from the Levi-Civita contraction, one per trial.

    (F*)^{ab} = (1/2) eps^{abrs} F_{rs} with eps^{0123} = 1/sqrt(-det g),
    then the first index is lowered with the metric.  Built directly
    from the definition so it can serve as an independent route in the
    invariant identity J = (1/4) tr(F* F).
    """
    # the two nonzero terms of each sum are equal, so contracting the unit
    # symbol and then scaling by 1/sqrt(-det g) rounds like scaling it first
    half_sum = 0.5 * np.einsum("abrs,...rs->...ab", _EPS4, fields._covariant)
    dual_up = half_sum * (1.0 / np.asarray(metric.sqrt_minus_det))[..., None, None]
    return MixedTensor(metric.diag[..., :, None] * dual_up)


def _dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v per trial, as a (1, 3) @ (3, 1) product: rounds like the 1-D dot."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def field_invariants(fields: FieldConfig3, metric: DiagonalMetric) -> Invariants:
    """Invariants I = -(g^{00} E_i E^i + B_i B^i), J = -E_i B_i / sqrt(-det g).

    In the flat metric these reduce to I = E^2 - B^2 and J = -(E.B).
    The returned residuals compare against the independent trace routes
    I = (1/2) tr(F^2) and J = (1/4) tr(F* F).  Raises DomainError when
    I^2 or J^2, the scale of the degree-4 identity, overflows double.
    """
    E, B = fields.E_arr, fields.B_arr
    g = metric.diag
    ginv = metric.inv_diag
    E_up = E * ginv[..., 1:]
    B_up = B / (g[..., [2, 3, 1]] * g[..., [3, 1, 2]])
    I_val = -(ginv[..., 0] * _dot3(E, E_up) + _dot3(B, B_up))
    J_val = -_dot3(E, B) / metric.sqrt_minus_det

    F = build_mixed_field_tensor(fields, metric).entries
    Fx = dual_tensor(fields, metric).entries
    res_I = abs(I_val - 0.5 * (F @ F).trace(axis1=-2, axis2=-1))
    res_J = abs(J_val - 0.25 * (Fx @ F).trace(axis1=-2, axis2=-1))
    overflow = ~np.isfinite([I_val * I_val, J_val * J_val, res_I, res_J]).all(axis=0)
    if overflow.any():
        k = overflow.argmax()  # the first trial that overflows
        raise DomainError("field invariants overflow double: "
                          f"I = {I_val.flat[k]:.3g}, J = {J_val.flat[k]:.3g}")
    return Invariants(*map(_out, (I_val, J_val, res_I, res_J)))


# ---------------------------------------------------------------------------
# Minimal polynomial and closed-form inverse (pure field case)
# ---------------------------------------------------------------------------

def minimal_poly_residuals(
    F: MixedTensor, F_dual: MixedTensor, inv: Invariants
) -> tuple[float, float]:
    """Max-abs residuals of the degree-3 and degree-4 field identities, per trial.

    r3 = || F^3 - I F - J F* ||_max
    r4 = || F^4 - I F^2 - J^2 Id ||_max
    """
    A = F.entries
    I, J = (np.asarray(v)[..., None, None] for v in (inv.I, inv.J))
    (J2,) = _per_trial(lambda j: (j**2,), J)
    A2 = A @ A
    A3 = A2 @ A
    A4 = A2 @ A2
    r3 = np.abs(A3 - I * A - J * F_dual.entries).max(axis=(-2, -1))
    r4 = np.abs(A4 - I * A2 - J2 * np.eye(4)).max(axis=(-2, -1))
    return _out(r3), _out(r4)


def _nonsingular(D, mu):
    """D of one trial, or SingularLambda when |D| < 1e-12 * mu^4."""
    if abs(D) < 1e-12 * mu**4:
        raise SingularLambda(f"dressed mass matrix is numerically singular: D = {D:.3e}")
    return D


def _closed_form(mu, lam, I, J):
    core = mu * mu - lam * lam * I
    D = _nonsingular(mu * mu * core - lam**4 * J**2, mu)
    return mu * core, lam * mu * mu, mu * lam * lam, lam**3 * J, D


def lambda_inverse(
    consts: ParticleConstants,
    F: MixedTensor,
    F_dual: MixedTensor,
    inv: Invariants,
) -> MixedTensor:
    """Closed-form inverse of Lambda = mu*I + lam*F for a pure field tensor, per trial.

    Lambda^{-1} = [ mu (mu^2 - lam^2 I) Id - lam mu^2 F
                    + mu lam^2 F^2 - lam^3 J F* ] / D,
    D = mu^2 (mu^2 - lam^2 I) - lam^4 J^2.

    Raises SingularLambda when |D| < 1e-12 * mu^4.
    """
    A = F.entries
    s0, s1, s2, s3, Dm = (c[..., None, None] for c in _per_trial(
        _closed_form, consts.mu, consts.lam, inv.I, inv.J))
    return MixedTensor((s0 * np.eye(4) - s1 * A + s2 * (A @ A) - s3 * F_dual.entries) / Dm)


# ---------------------------------------------------------------------------
# General (complex) case: Newton trace recurrences
# ---------------------------------------------------------------------------

def _newton_form(s1, s2, s3, s4):
    p2 = (s2 - s1 * s1) / 2.0
    p3 = (s3 - s1 * s2 - p2 * s1) / 3.0
    return s1, p2, p3, (s4 - s1 * s3 - p2 * s2 - p3 * s1) / 4.0


def newton_char_coeffs(G: MixedTensor) -> CharCoeffs:
    """Characteristic coefficients of a 4x4 matrix from its power traces, per trial.

    With s_k = tr(G^k), Newton's identities give
        p1 = s1,
        p2 = (s2 - p1 s1) / 2,
        p3 = (s3 - p1 s2 - p2 s1) / 3,
        p4 = (s4 - p1 s3 - p2 s2 - p3 s1) / 4,
    so that G^4 = p1 G^3 + p2 G^2 + p3 G + p4 Id (Cayley-Hamilton).
    For an antisymmetric-in-flat-indices field tensor this reduces to
    p1 = p3 = 0, p2 = s2/2, p4 = s4/4 - s2^2/8.
    """
    A = G.entries
    A2 = A @ A
    A3 = A2 @ A
    A4 = A2 @ A2
    s1, s2, s3, s4 = (P.trace(axis1=-2, axis2=-1) for P in (A, A2, A3, A4))
    p1, p2, p3, p4 = (_newton_form(s1, s2, s3, s4) if not np.iscomplexobj(A)  # floats round alike
                      else _per_trial(_newton_form, s1, s2, s3, s4))
    q1, q2, q3, q4 = (p[..., None, None] for p in (p1, p2, p3, p4))
    residual = np.abs(A4 - q1 * A3 - q2 * A2 - q3 * A - q4 * np.eye(4)).max(axis=(-2, -1))
    return CharCoeffs(*map(_out, (p1, p2, p3, p4, residual)))


def _general_form(mu, lam, p1, p2, p3, p4):
    D = mu**4 + mu**3 * lam * p1 - mu**2 * lam**2 * p2 + mu * lam**3 * p3 - lam**4 * p4
    l0 = mu**3 + mu**2 * lam * p1 - mu * lam**2 * p2 + lam**3 * p3
    l1 = -(mu**2 * lam + mu * lam**2 * p1 - lam**3 * p2)
    return l0, l1, mu * lam**2 + lam**3 * p1, -(lam**3), _nonsingular(D, mu)


def general_lambda_inverse(
    consts: ParticleConstants, G: MixedTensor
) -> MixedTensor:
    """Inverse of Lambda = mu*I + lam*G for an arbitrary 4x4 generator G, per trial.

    Cayley-Hamilton turns the inverse into a cubic polynomial in G:
        Lambda^{-1} = (l0 Id + l1 G + l2 G^2 + l3 G^3) / D,
        l0 = mu^3 + mu^2 lam p1 - mu lam^2 p2 + lam^3 p3,
        l1 = -(mu^2 lam + mu lam^2 p1 - lam^3 p2),
        l2 = mu lam^2 + lam^3 p1,
        l3 = -lam^3,
        D  = mu^4 + mu^3 lam p1 - mu^2 lam^2 p2 + mu lam^3 p3 - lam^4 p4.

    Raises SingularLambda when |D| < 1e-12 * mu^4.
    """
    A = G.entries
    ch = newton_char_coeffs(G)
    c0, c1, c2, c3, Dm = (c[..., None, None] for c in _per_trial(
        _general_form, consts.mu, consts.lam, ch.p1, ch.p2, ch.p3, ch.p4))
    A2 = A @ A
    return MixedTensor((c0 * np.eye(4) + c1 * A + c2 * A2 + c3 * (A2 @ A)) / Dm)


def ricci_extended_matrix(F: MixedTensor, ricci, scale: float) -> MixedTensor:
    """Curvature-extended generator G = F + i * scale * R.

    ``ricci`` is the mixed Ricci tensor as a 4x4 array, or a scalar r
    standing for the Einstein-space form r * Id (e.g. r = R/4 on a
    constant-curvature background); it and ``scale`` must be finite.
    """
    R = np.asarray(ricci, dtype=float)
    _require_finite(np.stack(np.broadcast_arrays(R, scale), -1), "ricci scale")
    if R.ndim == 0:
        R = float(R) * np.eye(4)
    if R.shape != (4, 4):
        raise ParameterError("ricci must be scalar or a 4x4 array")
    return MixedTensor(F.entries.astype(complex) + 1j * scale * R)
