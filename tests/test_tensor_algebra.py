"""Field-tensor algebra: construction, invariants, minimal polynomial, inverses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxlab.errors import DomainError, ParameterError, SingularLambda
from coxlab.tensor_algebra import (
    FLAT_METRIC,
    CharCoeffs,
    DiagonalMetric,
    FieldConfig3,
    MixedTensor,
    ParticleConstants,
    build_mixed_field_tensor,
    dual_tensor,
    field_invariants,
    general_lambda_inverse,
    lambda_inverse,
    minimal_poly_residuals,
    newton_char_coeffs,
    ricci_extended_matrix,
)

from _oracles import (
    char_coeffs_bruteforce,
    flat_mixed_dual,
    flat_mixed_field,
    random_fields,
    random_metric,
)

ID4 = np.eye(4)


def _draw(rng):
    E, B = random_fields(rng)
    metric = DiagonalMetric(*random_metric(rng))
    return FieldConfig3(E, B), metric


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_flat_electric_row():
    F = build_mixed_field_tensor(FieldConfig3((2.0, 0.0, 0.0), (0.0, 0.0, 0.0)), FLAT_METRIC)
    assert np.allclose(F.entries[0], [0.0, -2.0, 0.0, 0.0])
    assert np.allclose(F.entries[:, 0], [0.0, -2.0, 0.0, 0.0])


def test_zero_fields_zero_tensor():
    F = build_mixed_field_tensor(FieldConfig3((0.0,) * 3, (0.0,) * 3), FLAT_METRIC)
    assert np.all(F.entries == 0.0)


def test_flat_matches_handwritten_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        E, B = random_fields(rng)
        fields = FieldConfig3(E, B)
        F = build_mixed_field_tensor(fields, FLAT_METRIC)
        Fx = dual_tensor(fields, FLAT_METRIC)
        assert np.allclose(F.entries, flat_mixed_field(E, B), atol=1e-15)
        assert np.allclose(Fx.entries, flat_mixed_dual(E, B), atol=1e-15)


def test_crossed_fields_square_row():
    fields = FieldConfig3((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    F = build_mixed_field_tensor(fields, FLAT_METRIC).entries
    assert np.allclose((F @ F)[0], [1.0, 0.0, 1.0, 0.0])


def test_metric_signature_validation():
    with pytest.raises(ParameterError):
        DiagonalMetric(-1.0, -1.0, -1.0, -1.0)
    with pytest.raises(ParameterError):
        DiagonalMetric(1.0, 1.0, -1.0, -1.0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_crossed_null_field_invariants():
    inv = field_invariants(FieldConfig3((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), FLAT_METRIC)
    assert inv.I == pytest.approx(0.0, abs=1e-15)
    assert inv.J == pytest.approx(0.0, abs=1e-15)


def test_pure_magnetic_invariants():
    B = 1.7
    inv = field_invariants(FieldConfig3((0.0,) * 3, (0.0, 0.0, B)), FLAT_METRIC)
    assert inv.I == pytest.approx(-B * B, rel=1e-15)
    assert inv.J == pytest.approx(0.0, abs=1e-15)


def test_invariants_refuse_overflow():
    # I = -B^2 stays finite at B = 1e100, but the degree-4 identity needs I^2
    for B in (1e100, 1e300):
        with pytest.raises(DomainError, match="overflow"):
            field_invariants(FieldConfig3((0.0, 0.0, 1.0), (0.0, 0.0, B)), FLAT_METRIC)
    inv = field_invariants(FieldConfig3((0.0, 0.0, 1.0), (0.0, 0.0, 1e70)), FLAT_METRIC)
    assert inv.I == pytest.approx(-1e140, rel=1e-15)


def test_flat_cartesian_invariants():
    rng = np.random.default_rng(5)
    for _ in range(25):
        E, B = random_fields(rng)
        inv = field_invariants(FieldConfig3(E, B), FLAT_METRIC)
        E2 = sum(v * v for v in E)
        B2 = sum(v * v for v in B)
        EB = sum(e * b for e, b in zip(E, B))
        assert inv.I == pytest.approx(E2 - B2, abs=1e-13)
        assert inv.J == pytest.approx(-EB, abs=1e-13)


def test_invariant_trace_residuals_random_metrics():
    rng = np.random.default_rng(42)
    for _ in range(100):
        fields, metric = _draw(rng)
        inv = field_invariants(fields, metric)
        assert inv.residual_I <= 1e-10
        assert inv.residual_J <= 1e-10


def test_dual_trace_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        fields, metric = _draw(rng)
        F = build_mixed_field_tensor(fields, metric).entries
        Fx = dual_tensor(fields, metric).entries
        inv = field_invariants(fields, metric)
        assert abs(0.25 * np.trace(Fx @ F) - inv.J) <= 1e-12 * max(1.0, abs(inv.J))


def test_dual_pure_magnetic_is_electric_type():
    Fx = dual_tensor(FieldConfig3((0.0,) * 3, (0.0, 0.0, 1.0)), FLAT_METRIC).entries
    # only the first row/column (electric-type slots) populated
    assert np.allclose(Fx[1:, 1:], 0.0, atol=1e-15)
    assert Fx[0, 3] == pytest.approx(1.0)
    assert Fx[3, 0] == pytest.approx(1.0)


def test_lobachevsky_magnetic_invariant_profile():
    # metric diag(1, -ch^2 z, -ch^2 z sh^2 r, -1) with B_3 = -b sh r
    b, r = 1.3, 0.8
    for z in (0.0, 0.5, 1.5):
        ch, sh = np.cosh(z), np.sinh(r)
        metric = DiagonalMetric(1.0, -(ch * ch), -(ch * ch * sh * sh), -1.0)
        fields = FieldConfig3((0.0, 0.0, 0.0), (0.0, 0.0, -b * sh))
        inv = field_invariants(fields, metric)
        assert inv.I == pytest.approx(-b * b / ch**4, rel=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([2.0, 0.5, 4.0, 0.25]),
)
def test_invariants_quadratic_scaling_exact(seed, t):
    # power-of-two scalings are exact in binary floating point
    rng = np.random.default_rng(seed)
    fields, metric = _draw(rng)
    scaled = FieldConfig3(
        tuple(t * v for v in fields.E), tuple(t * v for v in fields.B)
    )
    base = field_invariants(fields, metric)
    up = field_invariants(scaled, metric)
    assert up.I == t * t * base.I
    assert up.J == t * t * base.J


# ---------------------------------------------------------------------------
# minimal polynomial
# ---------------------------------------------------------------------------

def test_minimal_poly_residuals_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        fields, metric = _draw(rng)
        F = build_mixed_field_tensor(fields, metric)
        Fx = dual_tensor(fields, metric)
        inv = field_invariants(fields, metric)
        r3, r4 = minimal_poly_residuals(F, Fx, inv)
        assert r3 <= 1e-10
        assert r4 <= 1e-10


# ---------------------------------------------------------------------------
# closed-form inverse (pure field)
# ---------------------------------------------------------------------------

def test_lambda_inverse_product_random():
    rng = np.random.default_rng(303)
    for _ in range(100):
        fields, metric = _draw(rng)
        consts = ParticleConstants(
            mu=float(rng.uniform(0.5, 3.0)), lam=float(rng.uniform(-0.4, 0.4))
        )
        F = build_mixed_field_tensor(fields, metric)
        Fx = dual_tensor(fields, metric)
        inv = field_invariants(fields, metric)
        try:
            Linv, _ = lambda_inverse(consts, F, Fx, inv)
        except SingularLambda:
            continue
        Lam = consts.mu * ID4 + consts.lam * F.entries
        assert np.max(np.abs(Linv.entries @ Lam - ID4)) <= 1e-12
        # independent route: LU solve
        assert np.allclose(Linv.entries, np.linalg.inv(Lam), atol=1e-11)


def test_lambda_inverse_zero_coupling():
    fields = FieldConfig3((1.0, -0.5, 0.3), (0.2, 0.7, -1.1))
    consts = ParticleConstants(mu=2.0, lam=0.0)
    F = build_mixed_field_tensor(fields, FLAT_METRIC)
    Fx = dual_tensor(fields, FLAT_METRIC)
    inv = field_invariants(fields, FLAT_METRIC)
    Linv, coeffs = lambda_inverse(consts, F, Fx, inv)
    assert np.allclose(Linv.entries, ID4 / 2.0, atol=1e-15)
    assert (coeffs.c0, coeffs.c1, coeffs.c2, coeffs.c3) == (0.5, 0.0, 0.0, 0.0)


def test_lambda_inverse_pure_magnetic_denominator():
    mu, lam, B = 1.0, 0.3, 1.4
    b = lam * B
    fields = FieldConfig3((0.0,) * 3, (0.0, 0.0, B))
    F = build_mixed_field_tensor(fields, FLAT_METRIC)
    Fx = dual_tensor(fields, FLAT_METRIC)
    inv = field_invariants(fields, FLAT_METRIC)
    _, coeffs = lambda_inverse(ParticleConstants(mu, lam), F, Fx, inv)
    assert coeffs.det == pytest.approx(mu**4 + mu**2 * b**2, rel=1e-14)


def test_lambda_inverse_pure_electric_entry():
    mu, lam, E = 1.0, 0.25, 1.2
    e = lam * E
    fields = FieldConfig3((E, 0.0, 0.0), (0.0,) * 3)
    F = build_mixed_field_tensor(fields, FLAT_METRIC)
    Fx = dual_tensor(fields, FLAT_METRIC)
    inv = field_invariants(fields, FLAT_METRIC)
    Linv, coeffs = lambda_inverse(ParticleConstants(mu, lam), F, Fx, inv)
    D = mu**4 - mu**2 * e**2
    assert coeffs.det == pytest.approx(D, rel=1e-14)
    assert Linv.entries[0, 0] == pytest.approx(mu**3 / D, rel=1e-13)


def test_singular_lambda_raised():
    # electric field tuned to mu/lam makes D = mu^2(mu^2 - lam^2 E^2) = 0
    mu, lam = 1.0, 0.5
    E = mu / lam
    fields = FieldConfig3((E, 0.0, 0.0), (0.0,) * 3)
    F = build_mixed_field_tensor(fields, FLAT_METRIC)
    Fx = dual_tensor(fields, FLAT_METRIC)
    inv = field_invariants(fields, FLAT_METRIC)
    with pytest.raises(SingularLambda):
        lambda_inverse(ParticleConstants(mu, lam), F, Fx, inv)


# ---------------------------------------------------------------------------
# Newton trace recurrences / characteristic coefficients
# ---------------------------------------------------------------------------

def test_newton_identity_matrix():
    ch = newton_char_coeffs(MixedTensor(ID4.copy()))
    assert (ch.p1, ch.p2, ch.p3, ch.p4) == pytest.approx((4.0, -6.0, 4.0, -1.0))
    assert ch.cayley_residual <= 1e-14


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_newton_constant_curvature(R):
    ch = newton_char_coeffs(MixedTensor((R / 4.0) * ID4))
    want = (R, -3.0 * R**2 / 8.0, R**3 / 16.0, -(R**4) / 256.0)
    got = (ch.p1, ch.p2, ch.p3, ch.p4)
    assert got == pytest.approx(want, rel=1e-14)


def test_newton_vs_bruteforce_random():
    rng = np.random.default_rng(77)
    for _ in range(50):
        G = rng.uniform(-2.0, 2.0, size=(4, 4))
        ch = newton_char_coeffs(MixedTensor(G))
        want = char_coeffs_bruteforce(G)
        scale = max(1.0, float(np.max(np.abs(G))) ** 4)
        for got_p, want_p in zip((ch.p1, ch.p2, ch.p3, ch.p4), want):
            assert abs(got_p - want_p) <= 1e-10 * scale
        assert ch.cayley_residual <= 1e-10 * scale


def test_newton_vs_bruteforce_complex():
    rng = np.random.default_rng(78)
    for _ in range(30):
        G = rng.uniform(-1.5, 1.5, size=(4, 4)) + 1j * rng.uniform(-1.5, 1.5, size=(4, 4))
        ch = newton_char_coeffs(MixedTensor(G))
        want = char_coeffs_bruteforce(G)
        for got_p, want_p in zip((ch.p1, ch.p2, ch.p3, ch.p4), want):
            assert abs(got_p - want_p) <= 1e-10


def test_antisymmetric_reduction_and_quartic_trace_sign():
    """For flat field tensors: p1 = p3 = 0, p2 = E^2 - B^2, p4 = (E.B)^2 = -det F.

    Pins the sign of the s2^2 term in p4 = s4/4 - s2^2/8 against the
    determinant oracle (the plausible '+' variant fails this test).
    """
    rng = np.random.default_rng(79)
    for _ in range(40):
        E, B = random_fields(rng)
        F = build_mixed_field_tensor(FieldConfig3(E, B), FLAT_METRIC)
        ch = newton_char_coeffs(F)
        E2 = sum(v * v for v in E)
        B2 = sum(v * v for v in B)
        EB = sum(e * b for e, b in zip(E, B))
        assert abs(ch.p1) <= 1e-12
        assert abs(ch.p3) <= 1e-12
        assert ch.p2 == pytest.approx(E2 - B2, abs=1e-12)
        assert ch.p4 == pytest.approx(EB * EB, abs=1e-11)
        assert ch.p4 == pytest.approx(-np.linalg.det(F.entries), abs=1e-11)
        A2 = F.entries @ F.entries
        s2, s4 = np.trace(A2), np.trace(A2 @ A2)
        assert ch.p4 == pytest.approx(s4 / 4.0 - s2**2 / 8.0, abs=1e-12)


# ---------------------------------------------------------------------------
# general inverse
# ---------------------------------------------------------------------------

def test_general_inverse_zero_generator():
    consts = ParticleConstants(mu=1.5, lam=0.7)
    Linv, coeffs = general_lambda_inverse(consts, MixedTensor(np.zeros((4, 4))))
    assert np.allclose(Linv.entries, ID4 / 1.5, atol=1e-15)
    assert coeffs.c0 == pytest.approx(1.0 / 1.5, rel=1e-15)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_general_inverse_constant_curvature(R):
    consts = ParticleConstants(mu=1.0, lam=0.3)
    G = MixedTensor((R / 4.0) * ID4)
    Linv, _ = general_lambda_inverse(consts, G)
    assert np.allclose(Linv.entries, ID4 / (1.0 + 0.3 * R / 4.0), atol=1e-13)
    nil = G.entries - (R / 4.0) * ID4
    assert np.max(np.abs(np.linalg.matrix_power(nil, 4))) <= 1e-12


def test_general_inverse_random_complex():
    rng = np.random.default_rng(404)
    for _ in range(60):
        G = rng.uniform(-1.0, 1.0, size=(4, 4)) + 1j * rng.uniform(-1.0, 1.0, size=(4, 4))
        consts = ParticleConstants(
            mu=float(rng.uniform(0.8, 2.0)), lam=float(rng.uniform(-0.3, 0.3))
        )
        try:
            Linv, _ = general_lambda_inverse(consts, MixedTensor(G))
        except SingularLambda:
            continue
        Lam = consts.mu * ID4 + consts.lam * G
        oracle = np.linalg.solve(Lam, ID4)
        assert np.max(np.abs(Linv.entries - oracle)) <= 1e-10


def test_general_matches_closed_form_on_field_tensors():
    rng = np.random.default_rng(505)
    for _ in range(60):
        E, B = random_fields(rng)
        metric = DiagonalMetric(*random_metric(rng))
        fields = FieldConfig3(E, B)
        consts = ParticleConstants(mu=1.0, lam=float(rng.uniform(-0.3, 0.3)))
        F = build_mixed_field_tensor(fields, metric)
        Fx = dual_tensor(fields, metric)
        inv = field_invariants(fields, metric)
        try:
            L1, c1 = lambda_inverse(consts, F, Fx, inv)
            L2, c2 = general_lambda_inverse(consts, F)
        except SingularLambda:
            continue
        assert np.max(np.abs(L1.entries - L2.entries)) <= 1e-12
        assert c1.det == pytest.approx(c2.det, rel=1e-11)


def test_ricci_extension():
    F = build_mixed_field_tensor(
        FieldConfig3((0.3, 0.0, 0.0), (0.0, 0.0, 0.8)), FLAT_METRIC
    )
    G = ricci_extended_matrix(F, 2.0, 0.25)
    assert G.scalar_kind == "complex"
    assert np.allclose(G.entries, F.entries + 0.5j * ID4, atol=1e-15)
    R = np.diag([1.0, 2.0, 3.0, 4.0])
    G2 = ricci_extended_matrix(F, R, 0.5)
    assert np.allclose(G2.entries, F.entries + 0.5j * R, atol=1e-15)


def test_mixed_tensor_kind_follows_entries():
    ints = MixedTensor(np.eye(4, dtype=int))
    assert ints.entries.dtype == float and ints.scalar_kind == "real"
    assert MixedTensor(ID4.tolist()).entries.dtype == float
    zero_imag = MixedTensor(ID4 + 0j)  # complex entries stay complex
    assert zero_imag.entries.dtype == complex and zero_imag.scalar_kind == "complex"
    assert MixedTensor(np.zeros((3, 4, 4), dtype=np.complex64)).entries.dtype == complex
    F = build_mixed_field_tensor(FieldConfig3((0.3, 0.0, 0.0), (0.0, 0.0, 0.8)), FLAT_METRIC)
    assert F.scalar_kind == "real"
    G = ricci_extended_matrix(F, 0.0, 0.0)  # zero curvature: still the complex generator
    assert G.entries.dtype == complex and G.scalar_kind == "complex"
    consts = ParticleConstants(1.0, 0.2)
    assert general_lambda_inverse(consts, G)[0].scalar_kind == "complex"
    assert general_lambda_inverse(consts, F)[0].scalar_kind == "real"
    with pytest.raises(AttributeError):  # read from the entries, never set
        F.scalar_kind = "complex"
    with pytest.raises(TypeError):
        MixedTensor(ID4, "complex")


# ---------------------------------------------------------------------------
# stacks: (..., 4, 4) inputs equal their per-trial calls
# ---------------------------------------------------------------------------

def _stack(seed, batch):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.5, 2.0, batch + (4,))
    metric = DiagonalMetric(g[..., 0], -g[..., 1], -g[..., 2], -g[..., 3])
    fields = FieldConfig3(rng.uniform(-1, 1, batch + (3,)), rng.uniform(-1, 1, batch + (3,)))
    consts = ParticleConstants(rng.uniform(0.8, 1.6, batch), rng.uniform(-0.5, 0.5, batch))
    G = rng.uniform(-1.5, 1.5, batch + (4, 4)) + 1j * rng.uniform(-1.5, 1.5, batch + (4, 4))
    return fields, metric, consts, MixedTensor(G)


def _trial(stack, k):
    fields, metric, consts, G = stack
    return (
        FieldConfig3(tuple(fields.E_arr[k].tolist()), tuple(fields.B_arr[k].tolist())),
        DiagonalMetric(*(float(np.broadcast_to(getattr(metric, f), fields.E_arr.shape[:-1])[k])
                         for f in ("g00", "g11", "g22", "g33"))),
        ParticleConstants(float(consts.mu[k]), float(consts.lam[k])),
        MixedTensor(G.entries[k]),
    )


def _values(result, k):
    """Entries of trial k of a stacked result, in the layout of a per-trial result."""
    if isinstance(result, MixedTensor):
        return result.entries[k].tolist(), result.scalar_kind
    if isinstance(result, tuple):
        return tuple(_values(part, k) for part in result)
    if isinstance(result, np.ndarray):
        return result[k].item()
    return tuple(_values(v, k) for v in vars(result).values())


def _plain(result):
    """A per-trial result in the layout of _values."""
    if isinstance(result, MixedTensor):
        return result.entries.tolist(), result.scalar_kind
    if isinstance(result, tuple):
        return tuple(_plain(part) for part in result)
    if isinstance(result, (float, complex)):
        return result
    return tuple(vars(result).values())


def _identities(fields, metric, consts, G):
    F = build_mixed_field_tensor(fields, metric)
    Fx = dual_tensor(fields, metric)
    inv = field_invariants(fields, metric)
    return {
        "build_mixed_field_tensor": F,
        "dual_tensor": Fx,
        "field_invariants": inv,
        "minimal_poly_residuals": minimal_poly_residuals(F, Fx, inv),
        "lambda_inverse": lambda_inverse(consts, F, Fx, inv),
        "newton_char_coeffs": newton_char_coeffs(F),
        "general_lambda_inverse": general_lambda_inverse(consts, F),
        "newton_char_coeffs complex": newton_char_coeffs(G),
        "general_lambda_inverse complex": general_lambda_inverse(consts, G),
        "ricci_extended_matrix": ricci_extended_matrix(F, 0.3, 0.5),
    }


@pytest.mark.parametrize("batch, flat", [((9,), False), ((9,), True), ((3, 4), False)])
def test_stacked_calls_equal_per_trial_calls(batch, flat):
    stack = _stack(2024 + len(batch), batch)
    if flat:  # one metric broadcast over every trial
        stack = (stack[0], FLAT_METRIC, *stack[2:])
    stacked = _identities(*stack)
    for k in np.ndindex(batch):
        single = _identities(*_trial(stack, k))
        for name, result in stacked.items():
            assert _values(result, k) == _plain(single[name]), (name, k)


def test_single_matrix_keeps_scalar_types():
    fields = FieldConfig3((0.3, -0.2, 0.5), (0.1, 0.7, -0.4))
    G = MixedTensor(np.arange(16.0).reshape(4, 4) * (0.1 + 0.05j))
    results = _identities(fields, FLAT_METRIC, ParticleConstants(1.2, 0.3), G)
    for name, result in results.items():
        parts = result if isinstance(result, tuple) else (result,)
        for part in parts:
            if isinstance(part, MixedTensor):
                assert part.entries.shape == (4, 4), name
                continue
            values = (part,) if isinstance(part, float) else tuple(vars(part).values())
            kinds = {type(v) for v in values}
            assert kinds <= ({float, complex} if "complex" in name else {float}), (name, kinds)
    assert type(FLAT_METRIC.det_g) is float and type(FLAT_METRIC.sqrt_minus_det) is float


@pytest.mark.parametrize(
    "make",
    [
        lambda: MixedTensor(np.zeros((3, 4))),
        lambda: MixedTensor(np.zeros((2, 4, 3))),
        lambda: MixedTensor(np.zeros(4)),
        lambda: FieldConfig3((1.0, 2.0), (0.0, 0.0, 1.0)),
        lambda: FieldConfig3(np.zeros((5, 3)), np.zeros((4, 3))),
        lambda: FieldConfig3(np.zeros((5, 4)), np.zeros((5, 4))),
    ],
)
def test_wrong_trailing_shape_refused(make):
    with pytest.raises(ParameterError):
        make()


def test_stacked_invariants_refuse_first_overflowing_trial():
    B3 = np.array([0.5, 1.0, 1e100, 2.0, 1e160])
    stack = FieldConfig3(np.tile([0.0, 0.0, 1.0], (5, 1)), np.stack([0 * B3, 0 * B3, B3], -1))
    with pytest.raises(DomainError) as first:
        field_invariants(FieldConfig3((0.0, 0.0, 1.0), (0.0, 0.0, 1e100)), FLAT_METRIC)
    with pytest.raises(DomainError) as later:
        field_invariants(FieldConfig3((0.0, 0.0, 1.0), (0.0, 0.0, 1e160)), FLAT_METRIC)
    assert str(first.value) != str(later.value)
    with pytest.raises(DomainError) as got:
        field_invariants(stack, FLAT_METRIC)
    assert str(got.value) == str(first.value)


def test_stacked_inverses_refuse_first_singular_trial():
    # E = mu/lam makes D vanish; a nudge off it leaves D tiny but different
    mu, lam = 1.0, 0.5
    E1 = np.array([0.3, 2.0 * (1 + 4e-16), 0.7, 2.0, 1.1])
    fields = FieldConfig3(np.stack([E1, 0 * E1, 0 * E1], -1), np.zeros((5, 3)))
    consts = ParticleConstants(np.full(5, mu), np.full(5, lam))
    per_trial = []
    for k in (1, 3):
        one = FieldConfig3((float(E1[k]), 0.0, 0.0), (0.0,) * 3)
        F1 = build_mixed_field_tensor(one, FLAT_METRIC)
        inv1 = field_invariants(one, FLAT_METRIC)
        with pytest.raises(SingularLambda) as closed:
            lambda_inverse(ParticleConstants(mu, lam), F1, dual_tensor(one, FLAT_METRIC), inv1)
        with pytest.raises(SingularLambda) as general:
            general_lambda_inverse(ParticleConstants(mu, lam), F1)
        per_trial.append((str(closed.value), str(general.value)))
    assert per_trial[0] != per_trial[1]
    F = build_mixed_field_tensor(fields, FLAT_METRIC)
    inv = field_invariants(fields, FLAT_METRIC)
    with pytest.raises(SingularLambda) as closed:
        lambda_inverse(consts, F, dual_tensor(fields, FLAT_METRIC), inv)
    with pytest.raises(SingularLambda) as general:
        general_lambda_inverse(consts, F)
    assert (str(closed.value), str(general.value)) == per_trial[0]
