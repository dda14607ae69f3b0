"""Exact algebra of the field-dressed mass matrix.

A scalar particle with intrinsic structure acquires the matrix mass
``Lambda = mu*I + lam*F`` where ``F`` is the electromagnetic field
tensor in mixed form (one lower, one upper index) over a diagonal
metric of signature (+,-,-,-).  Because ``F`` satisfies a degree-four
minimal polynomial built from the two field invariants, ``Lambda`` can
be inverted in closed form; the general (complex, e.g. curvature
extended) case uses the characteristic coefficients from Newton's
trace recurrences instead.

Conventions: mixed tensors are stored as 4x4 arrays, row index = lower
slot, column index = upper slot; covariant field components are
``F_{0i} = E_i`` and ``F_{ij} = eps_{ijk} B_k``.  The coupling ``lam``
is the real number that multiplies ``F`` after the imaginary-unit
substitution; the raw coupling is ``i*lam`` and never appears
downstream.  Everything is dimensionless; unit conversions live at the
CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import DomainError, ParameterError, SingularLambda

__all__ = [
    "DiagonalMetric",
    "FieldConfig3",
    "MixedTensor",
    "Invariants",
    "InverseCoefficients",
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


@dataclass(frozen=True)
class DiagonalMetric:
    """Diagonal metric g = diag(g00, g11, g22, g33), signature (+,-,-,-)."""

    g00: float
    g11: float
    g22: float
    g33: float

    def __post_init__(self) -> None:
        if not self.g00 > 0:
            raise ParameterError("metric signature requires g00 > 0")
        if not (self.g11 < 0 and self.g22 < 0 and self.g33 < 0):
            raise ParameterError("metric signature requires spatial g_ii < 0")

    @property
    def diag(self) -> np.ndarray:
        return np.array([self.g00, self.g11, self.g22, self.g33], dtype=float)

    @property
    def det_g(self) -> float:
        return float(self.g00 * self.g11 * self.g22 * self.g33)

    @property
    def inv_diag(self) -> np.ndarray:
        """Contravariant components g^{aa} = 1/g_{aa}."""
        return 1.0 / self.diag

    @property
    def sqrt_minus_det(self) -> float:
        return float(np.sqrt(-self.det_g))


FLAT_METRIC = DiagonalMetric(1.0, -1.0, -1.0, -1.0)


@dataclass(frozen=True)
class FieldConfig3:
    """Covariant electric and magnetic components (E_1,E_2,E_3), (B_1,B_2,B_3)."""

    E: tuple[float, float, float]
    B: tuple[float, float, float]

    @property
    def E_arr(self) -> np.ndarray:
        return np.asarray(self.E, dtype=float)

    @property
    def B_arr(self) -> np.ndarray:
        return np.asarray(self.B, dtype=float)


@dataclass(eq=False)
class MixedTensor:
    """4x4 mixed tensor T_alpha^beta; rows lower index, columns upper."""

    entries: np.ndarray
    scalar_kind: str = "real"

    def __post_init__(self) -> None:
        self.entries = np.asarray(
            self.entries, dtype=complex if self.scalar_kind == "complex" else float
        )
        if self.entries.shape != (4, 4):
            raise ParameterError("mixed tensor must be 4x4")
        if self.scalar_kind not in ("real", "complex"):
            raise ParameterError("scalar_kind must be 'real' or 'complex'")


@dataclass(frozen=True)
class Invariants:
    """Field invariants I, J plus trace-identity consistency residuals."""

    I: float
    J: float
    residual_I: float = 0.0
    residual_J: float = 0.0


@dataclass(frozen=True)
class InverseCoefficients:
    """Coefficients of Lambda^{-1} = c0*I + c1*G + c2*G^2 + c3*G^3 and det factor."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex
    det: complex


@dataclass(frozen=True)
class CharCoeffs:
    """Characteristic data of G: G^4 = p1 G^3 + p2 G^2 + p3 G + p4 I."""

    p1: complex
    p2: complex
    p3: complex
    p4: complex
    s1: complex
    s2: complex
    s3: complex
    s4: complex
    cayley_residual: float = 0.0


@dataclass(frozen=True)
class ParticleConstants:
    """Mass parameter mu = M*c and the real intrinsic-structure coupling lam.

    ``lam`` already contains the imaginary-unit substitution of the raw
    coupling (raw = i*lam); Gamma = lam/mu is the structure constant
    entering eta = Gamma*B and gamma = Gamma*B(z).
    """

    mu: float
    lam: float

    def __post_init__(self) -> None:
        if not self.mu > 0:
            raise ParameterError("mass parameter mu must be positive")

    @property
    def gamma(self) -> float:
        return self.lam / self.mu


# ---------------------------------------------------------------------------
# Field tensor, dual, invariants
# ---------------------------------------------------------------------------

def _covariant_field(fields: FieldConfig3) -> np.ndarray:
    """Covariant F_{ab}: F_{0i} = E_i, F_{ij} = eps_{ijk} B_k."""
    E, B = fields.E_arr, fields.B_arr
    F = np.zeros((4, 4))
    F[0, 1:] = E
    F[1:, 0] = -E
    F[1, 2], F[2, 1] = B[2], -B[2]
    F[1, 3], F[3, 1] = -B[1], B[1]
    F[2, 3], F[3, 2] = B[0], -B[0]
    return F


def build_mixed_field_tensor(fields: FieldConfig3, metric: DiagonalMetric) -> MixedTensor:
    """Mixed field tensor F_alpha^beta = F_{alpha rho} g^{rho beta}."""
    F_cov = _covariant_field(fields)
    mixed = F_cov * metric.inv_diag[np.newaxis, :]
    return MixedTensor(mixed, "real")


_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _sign = 1.0
    _p = list(_perm)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _sign = -_sign
    _EPS4[_perm] = _sign


def dual_tensor(fields: FieldConfig3, metric: DiagonalMetric) -> MixedTensor:
    """Mixed dual tensor (F*)_alpha^beta from the Levi-Civita contraction.

    (F*)^{ab} = (1/2) eps^{abrs} F_{rs} with eps^{0123} = 1/sqrt(-det g),
    then the first index is lowered with the metric.  Built directly
    from the definition so it can serve as an independent route in the
    invariant identity J = (1/4) tr(F* F).
    """
    F_cov = _covariant_field(fields)
    eps_up = _EPS4 / metric.sqrt_minus_det
    dual_up = 0.5 * np.einsum("abrs,rs->ab", eps_up, F_cov)
    mixed = metric.diag[:, np.newaxis] * dual_up
    return MixedTensor(mixed, "real")


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
    E_up = E * ginv[1:]
    B_up = np.array(
        [
            B[0] / (g[2] * g[3]),
            B[1] / (g[3] * g[1]),
            B[2] / (g[1] * g[2]),
        ]
    )
    I_val = -(ginv[0] * float(E @ E_up) + float(B @ B_up))
    J_val = -float(E @ B) / metric.sqrt_minus_det

    F = build_mixed_field_tensor(fields, metric).entries
    Fx = dual_tensor(fields, metric).entries
    res_I = abs(I_val - 0.5 * np.trace(F @ F))
    res_J = abs(J_val - 0.25 * np.trace(Fx @ F))
    if not all(map(math.isfinite, (I_val * I_val, J_val * J_val, res_I, res_J))):
        raise DomainError(f"field invariants overflow double: I = {I_val:.3g}, J = {J_val:.3g}")
    return Invariants(I_val, J_val, float(res_I), float(res_J))


# ---------------------------------------------------------------------------
# Minimal polynomial and closed-form inverse (pure field case)
# ---------------------------------------------------------------------------

def minimal_poly_residuals(
    F: MixedTensor, F_dual: MixedTensor, inv: Invariants
) -> tuple[float, float]:
    """Max-abs residuals of the degree-3 and degree-4 field identities.

    r3 = || F^3 - I F - J F* ||_max
    r4 = || F^4 - I F^2 - J^2 Id ||_max
    """
    A = F.entries
    Ax = F_dual.entries
    A2 = A @ A
    A3 = A2 @ A
    A4 = A2 @ A2
    r3 = np.max(np.abs(A3 - inv.I * A - inv.J * Ax))
    r4 = np.max(np.abs(A4 - inv.I * A2 - inv.J**2 * np.eye(4)))
    return float(r3), float(r4)


def lambda_inverse(
    consts: ParticleConstants,
    F: MixedTensor,
    F_dual: MixedTensor,
    inv: Invariants,
) -> tuple[MixedTensor, InverseCoefficients]:
    """Closed-form inverse of Lambda = mu*I + lam*F for a pure field tensor.

    Lambda^{-1} = [ mu (mu^2 - lam^2 I) Id - lam mu^2 F
                    + mu lam^2 F^2 - lam^3 J F* ] / D,
    D = mu^2 (mu^2 - lam^2 I) - lam^4 J^2.

    The reported coefficients are for the power basis (Id, F, F^2, F^3);
    they reproduce the matrix through the degree-3 identity
    F^3 = I F + J F*.  Raises SingularLambda when |D| < 1e-12 * mu^4.
    """
    mu, lam = consts.mu, consts.lam
    A = F.entries
    Ax = F_dual.entries
    Ival, Jval = inv.I, inv.J
    core = mu * mu - lam * lam * Ival
    D = mu * mu * core - lam**4 * Jval**2
    if abs(D) < 1e-12 * mu**4:
        raise SingularLambda(
            f"dressed mass matrix is numerically singular: D = {D:.3e}"
        )
    mat = (
        mu * core * np.eye(4)
        - lam * mu * mu * A
        + mu * lam * lam * (A @ A)
        - lam**3 * Jval * Ax
    ) / D
    coeffs = InverseCoefficients(
        c0=mu * core / D,
        c1=-lam * core / D,
        c2=mu * lam * lam / D,
        c3=-(lam**3) / D,
        det=D,
    )
    return MixedTensor(mat, F.scalar_kind), coeffs


# ---------------------------------------------------------------------------
# General (complex) case: Newton trace recurrences
# ---------------------------------------------------------------------------

def newton_char_coeffs(G: MixedTensor) -> CharCoeffs:
    """Characteristic coefficients of a 4x4 matrix from its power traces.

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
    s1 = np.trace(A)
    s2 = np.trace(A2)
    s3 = np.trace(A3)
    s4 = np.trace(A4)
    p1 = s1
    p2 = (s2 - p1 * s1) / 2.0
    p3 = (s3 - p1 * s2 - p2 * s1) / 3.0
    p4 = (s4 - p1 * s3 - p2 * s2 - p3 * s1) / 4.0
    residual = float(
        np.max(np.abs(A4 - p1 * A3 - p2 * A2 - p3 * A - p4 * np.eye(4)))
    )
    if G.scalar_kind == "real":
        p1, p2, p3, p4 = (complex(v).real for v in (p1, p2, p3, p4))
        s1, s2, s3, s4 = (complex(v).real for v in (s1, s2, s3, s4))
    return CharCoeffs(p1, p2, p3, p4, s1, s2, s3, s4, residual)


def general_lambda_inverse(
    consts: ParticleConstants, G: MixedTensor
) -> tuple[MixedTensor, InverseCoefficients]:
    """Inverse of Lambda = mu*I + lam*G for an arbitrary 4x4 generator G.

    Cayley-Hamilton turns the inverse into a cubic polynomial in G:
        Lambda^{-1} = (l0 Id + l1 G + l2 G^2 + l3 G^3) / D,
        l0 = mu^3 + mu^2 lam p1 - mu lam^2 p2 + lam^3 p3,
        l1 = -(mu^2 lam + mu lam^2 p1 - lam^3 p2),
        l2 = mu lam^2 + lam^3 p1,
        l3 = -lam^3,
        D  = mu^4 + mu^3 lam p1 - mu^2 lam^2 p2 + mu lam^3 p3 - lam^4 p4.

    Raises SingularLambda when |D| < 1e-12 * mu^4.
    """
    mu, lam = consts.mu, consts.lam
    A = G.entries
    ch = newton_char_coeffs(G)
    p1, p2, p3, p4 = ch.p1, ch.p2, ch.p3, ch.p4
    D = mu**4 + mu**3 * lam * p1 - mu**2 * lam**2 * p2 + mu * lam**3 * p3 - lam**4 * p4
    if abs(D) < 1e-12 * mu**4:
        raise SingularLambda(
            f"dressed mass matrix is numerically singular: D = {D:.3e}"
        )
    l0 = mu**3 + mu**2 * lam * p1 - mu * lam**2 * p2 + lam**3 * p3
    l1 = -(mu**2 * lam + mu * lam**2 * p1 - lam**3 * p2)
    l2 = mu * lam**2 + lam**3 * p1
    l3 = -(lam**3)
    A2 = A @ A
    mat = (l0 * np.eye(4) + l1 * A + l2 * A2 + l3 * (A2 @ A)) / D
    kind = G.scalar_kind
    coeffs = InverseCoefficients(l0 / D, l1 / D, l2 / D, l3 / D, D)
    return MixedTensor(mat, kind), coeffs


def ricci_extended_matrix(F: MixedTensor, ricci, scale: float) -> MixedTensor:
    """Curvature-extended generator G = F + i * scale * R.

    ``ricci`` is the mixed Ricci tensor as a 4x4 array, or a scalar r
    standing for the Einstein-space form r * Id (e.g. r = R/4 on a
    constant-curvature background).
    """
    R = np.asarray(ricci, dtype=float)
    if R.ndim == 0:
        R = float(R) * np.eye(4)
    if R.shape != (4, 4):
        raise ParameterError("ricci must be scalar or a 4x4 array")
    return MixedTensor(F.entries.astype(complex) + 1j * scale * R, "complex")
