"""The public API surface, pinned: each module's ``__all__`` and the
parameter names and defaults of every public function and dataclass.

A new option, a renamed parameter or a changed default fails here until
the snapshot below is edited, so the change shows in the diff for review.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

from coxlab import cli

SURFACE = {
    "tensor_algebra": {
        "DiagonalMetric": ("g00", "g11", "g22", "g33"),
        "FieldConfig3": ("E", "B"),
        "MixedTensor": ("entries",),
        "Invariants": ("I", "J", "residual_I=0.0", "residual_J=0.0"),
        "InverseCoefficients": ("c0", "c1", "c2", "c3", "det"),
        "CharCoeffs": ("p1", "p2", "p3", "p4", "cayley_residual=0.0"),
        "ParticleConstants": ("mu", "lam"),
        "FLAT_METRIC": None,
        "build_mixed_field_tensor": ("fields", "metric"),
        "dual_tensor": ("fields", "metric"),
        "field_invariants": ("fields", "metric"),
        "minimal_poly_residuals": ("F", "F_dual", "inv"),
        "lambda_inverse": ("consts", "F", "F_dual", "inv"),
        "newton_char_coeffs": ("G",),
        "general_lambda_inverse": ("consts", "G"),
        "ricci_extended_matrix": ("F", "ricci", "scale"),
    },
    "backgrounds": {
        "BackgroundSpec": (
            "geometry", "field='magnetic'", "b=0.0", "nu=0.0", "eta=0.0", "gamma=0.0",
        ),
        "QuantumNumbers": ("n", "m", "k=0.0"),
        "SeparatedODE": (
            "kind", "geometry", "field_kind", "domain", "pcoef", "qcoef", "eigen_name",
            "weight=None", "q0_weighted=None", "params=dict()",
        ),
        "assemble_radial_ode": ("spec", "qn"),
        "assemble_axial_ode": (
            "spec", "Lambda", "*", "epsilon=0.0", "w=0.0", "mu2=1.0", "compton=1.0",
        ),
    },
    "radial": {
        "SpectrumEntry": (
            "Lambda", "epsilon=None", "energy=None", "valid=True", "reason=''", "branch=''",
        ),
        "GridSpec": ("points", "r_max=None", "tol=1e-06"),
        "EigenResult": ("eigenvalues", "eigenfunctions", "grid", "error_estimates"),
        "analytic_spectrum": ("spec", "qn"),
        "flat_physical_energy": ("spec", "qn", "eps_prime"),
        "spectrum_matched_ode": ("spec", "qn"),
        "solve_radial_eigen": ("ode", "count", "grid"),
        "radial_hypergeometric_solution": ("m", "w_perp", "x"),
        "asymptotic_amplitudes": ("m", "w_perp"),
    },
    "axial": {
        "Equilibrium": ("z", "kind"),
        "ExtremaResult": ("equilibria", "discriminant", "roots"),
        "PotentialProfile": ("z_grid", "U", "Fz", "extrema"),
        "AirySolutionPair": ("z1", "z2", "dz1", "dz2", "x_of_z", "turning_point", "wronskian"),
        "AxialSolution": ("z", "Z", "dZ", "residual_estimate"),
        "effective_potential": ("spec", "Lambda", "z"),
        "effective_force": ("spec", "Lambda", "z"),
        "effective_force_extrema": ("spec", "Lambda"),
        "potential_profile": ("spec", "Lambda", "z_min", "z_max", "samples"),
        "airy_pair": ("w_prime", "nu"),
        "integrate_axial": ("ode", "ic_left", "z_range", "steps", "tol=1e-09"),
    },
    "special_functions": {
        "gamma_complex": ("z",),
        "reciprocal_gamma": ("z",),
        "gauss_2f1": ("a", "b", "c", "x"),
        "kummer_1f1": ("a", "c", "x"),
        "hyp0f1": ("c", "x"),
        "bessel_j_fractional": ("nu_order", "y"),
    },
}


def _surface(obj):
    """Parameters of a function or fields of a dataclass as "name" or
    "name=default" ("*" before keyword-only ones); None for a value."""
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        out = []
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                out.append(f"{f.name}={f.default!r}")
            elif f.default_factory is not dataclasses.MISSING:
                out.append(f"{f.name}={f.default_factory.__name__}()")
            else:
                out.append(f.name)
        return tuple(out)
    if inspect.isfunction(obj):
        out = []
        for p in inspect.signature(obj).parameters.values():
            if p.kind is p.KEYWORD_ONLY and "*" not in out:
                out.append("*")
            out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
        return tuple(out)
    return None


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_surface_matches_snapshot(module):
    mod = importlib.import_module(f"coxlab.{module}")
    assert list(mod.__all__) == list(SURFACE[module])
    for name, want in SURFACE[module].items():
        assert _surface(getattr(mod, name)) == want, f"{module}.{name}"


def test_cli_entry_point_surface():
    assert _surface(cli.main) == ("argv=None",)
