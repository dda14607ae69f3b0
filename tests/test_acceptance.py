"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the ACCEPTANCE
lines; each criterion is a single test whose name identifies it.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coxlab.axial import (
    airy_pair,
    effective_force,
    effective_force_extrema,
    effective_potential,
    integrate_axial,
)
from coxlab.backgrounds import (
    BackgroundSpec,
    QuantumNumbers,
    assemble_axial_ode,
)
from coxlab.radial import (
    GridSpec,
    analytic_spectrum,
    asymptotic_amplitudes,
    flat_physical_energy,
    solve_radial_eigen,
    spectrum_matched_ode,
)
from coxlab.tensor_algebra import (
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
)


def _report(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL  {label}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS  {label}")


# ---------------------------------------------------------------------------

def test_criterion_01_tensor_identity_suite():
    def body():
        rng = np.random.default_rng(7)
        eye = np.eye(4)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            metric = DiagonalMetric(
                rng.uniform(0.5, 2.0),
                -rng.uniform(0.5, 2.0),
                -rng.uniform(0.5, 2.0),
                -rng.uniform(0.5, 2.0),
            )
            fields = FieldConfig3(
                tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3))
            )
            consts = ParticleConstants(rng.uniform(0.8, 1.6), rng.uniform(-0.5, 0.5))
            F = build_mixed_field_tensor(fields, metric)
            Fd = dual_tensor(fields, metric)
            inv = field_invariants(fields, metric)
            r3, r4 = minimal_poly_residuals(F, Fd, inv)
            Lam = consts.mu * eye + consts.lam * F.entries
            closed = lambda_inverse(consts, F, Fd, inv)
            general = general_lambda_inverse(consts, F)
            worst = max(
                worst,
                r3,
                r4,
                float(np.max(np.abs(Lam @ closed.entries - eye))),
                float(np.max(np.abs(Lam @ general.entries - eye))),
            )
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"worst residual {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    _report(1, "tensor identity suite: 100 random draws <= 1e-10, < 1 s", body)


def test_criterion_02_de_sitter_coefficients():
    def body():
        eye = np.eye(4)
        for R in (0.5, 1.0, 2.0):
            G = MixedTensor((R / 4.0) * eye)
            ch = newton_char_coeffs(G)
            exact = (R, -3.0 * R**2 / 8.0, R**3 / 16.0, -(R**4) / 256.0)
            for got, want in zip((ch.p1, ch.p2, ch.p3, ch.p4), exact):
                assert abs(got - want) <= 1e-12 * abs(want)
            nil = np.linalg.matrix_power(G.entries - (R / 4.0) * eye, 4)
            assert float(np.max(np.abs(nil))) <= 1e-12

    _report(2, "de Sitter characteristic coefficients and nilpotency", body)


def test_criterion_03_flat_landau_ladder():
    def body():
        spec = BackgroundSpec(geometry="flat", b=1.0)
        start = time.perf_counter()
        for m in (-2, -1, 0, 1, 2):
            ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
            res = solve_radial_eigen(ode, 4, GridSpec(points=4000, r_max=8.5))
            exact = [
                analytic_spectrum(spec, QuantumNumbers(n, m)).Lambda for n in range(4)
            ]
            worst = float(np.max(np.abs(res.eigenvalues - np.asarray(exact))))
            assert worst <= 1e-6, f"m={m}: worst {worst:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    _report(3, "flat Landau ladder: b=1, m in -2..2, 4 levels <= 1e-6, < 10 s", body)


def test_criterion_04_frequency_modification():
    def body():
        spec0 = BackgroundSpec(geometry="flat", b=1.0, eta=0.0)
        spec5 = BackgroundSpec(geometry="flat", b=1.0, eta=0.5)
        ode = spectrum_matched_ode(spec0, QuantumNumbers(0, 0))
        res = solve_radial_eigen(ode, 2, GridSpec(points=3000, r_max=8.5))
        qn = QuantumNumbers(0, 0)
        d0 = flat_physical_energy(spec0, qn, res.eigenvalues[1]) - flat_physical_energy(
            spec0, qn, res.eigenvalues[0]
        )
        d5 = flat_physical_energy(spec5, qn, res.eigenvalues[1]) - flat_physical_energy(
            spec5, qn, res.eigenvalues[0]
        )
        assert abs(d5 / d0 - 4.0 / 3.0) <= 1e-6

    _report(4, "eta = 0.5 rescales level spacing by 4/3 to 1e-6", body)


def test_criterion_05_lobachevsky_ladder():
    def body():
        spec = BackgroundSpec(geometry="lobachevsky", b=5.0)
        entries = [analytic_spectrum(spec, QuantumNumbers(n, 0)) for n in range(10)]
        valid = [e for e in entries if e.valid]
        assert len(valid) == 5, f"valid count {len(valid)}"
        ode = spectrum_matched_ode(spec, QuantumNumbers(0, 0))
        res = solve_radial_eigen(ode, 5, GridSpec(points=12000, r_max=30.0))
        exact = np.asarray([e.Lambda for e in valid])
        worst = float(np.max(np.abs(res.eigenvalues - exact)))
        assert worst <= 1e-6, f"worst {worst:.3e}"

    _report(5, "Lobachevsky b=5 ladder matches solver to 1e-6; count is 5", body)


def test_criterion_06_spherical_branches_and_flat_limit():
    def body():
        spec = BackgroundSpec(geometry="spherical", b=1.0)
        # three branches by direct substitution against the eigensolver
        for m, count in ((1, 3), (0, 3), (-3, 3)):
            ode = spectrum_matched_ode(spec, QuantumNumbers(0, m))
            res = solve_radial_eigen(ode, count, GridSpec(points=2000))
            exact = [
                analytic_spectrum(spec, QuantumNumbers(n, m)).Lambda
                for n in range(count)
            ]
            worst = float(np.max(np.abs(res.eigenvalues - np.asarray(exact))))
            assert worst <= 1e-6, f"m={m}: worst {worst:.3e}"
        branches = {
            analytic_spectrum(spec, QuantumNumbers(0, m)).branch
            for m in (1, 0, -3)
        }
        assert branches == {"m>0", "-2b<=m<=0", "m<-2b"}
        # fixed physical field: second-order approach to the flat spectrum
        flat_eps = 0.15  # 4 (B/2) (0 + (1+1+1)/2) for B = 0.05, n = 0, m = 1
        errs = []
        for rho in (10.0, 20.0, 40.0):
            sp = BackgroundSpec(geometry="spherical", b=0.05 * rho**2)
            ode = spectrum_matched_ode(sp, QuantumNumbers(0, 1))
            res = solve_radial_eigen(ode, 1, GridSpec(points=3000))
            errs.append(res.eigenvalues[0] / rho**2 - flat_eps)
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            assert abs(ratio - 4.0) <= 0.2 * 4.0, f"ratio {ratio:.3f}"

    _report(6, "spherical three-branch spectrum + order-2 flat limit", body)


def test_criterion_07_airy_construction():
    def body():
        nu = 2.0
        pair = airy_pair(1.5, nu)
        assert float(pair.x_of_z(pair.turning_point)) == 0.0

        def rhs(x, y):
            return [y[1], x * y[0]]

        for f, df in ((pair.z1, pair.dz1), (pair.z2, pair.dz2)):
            sol = solve_ivp(
                rhs, (-10.0, 10.0), [f(-10.0), df(-10.0)], method="DOP853",
                rtol=1e-12, atol=1e-14, dense_output=True,
            )
            xs = np.linspace(-10.0, 10.0, 81)
            dev = max(abs(sol.sol(x)[0] - f(x)) / max(1.0, abs(f(x))) for x in xs)
            assert dev <= 1e-8, f"branch deviation {dev:.3e}"

        spec = BackgroundSpec(geometry="flat", field="electric", nu=nu, gamma=0.3)
        ode = assemble_axial_ode(spec, 2.0, w=5.0, compton=0.5)
        pair2 = airy_pair(ode.params["w_prime"], nu)
        zl, zr = -3.0, 3.0
        dxdz = -nu ** (1.0 / 3.0)
        x_of = lambda z: float(pair2.x_of_z(z))
        ic = (pair2.z1(x_of(zl)), dxdz * pair2.dz1(x_of(zl)))
        sol = integrate_axial(ode, ic, (zl, zr), steps=3000)
        dev = max(
            abs(sol.Z[i] - pair2.z1(x_of(sol.z[i])))
            for i in range(0, len(sol.z), 25)
        )
        assert dev <= 1e-7, f"integration deviation {dev:.3e}"

    _report(7, "Airy pair solves Z''=xZ; integrator reproduces a branch", body)


def test_criterion_08_effective_potential_structure():
    def body():
        rng = np.random.default_rng(19)
        for _ in range(50):
            geo = "lobachevsky" if rng.random() < 0.5 else "spherical"
            b = rng.uniform(-2.0, 2.0)
            L = (abs(b) + 0.1 + rng.uniform(0.0, 3.0)) * (
                1.0 if rng.random() < 0.5 else -1.0
            )
            g = rng.uniform(-0.9, 0.9)
            spec = BackgroundSpec(geometry=geo, b=b, gamma=g)
            if geo == "spherical" and g != 0.0:
                half = math.acos(math.sqrt(abs(g))) - 0.05
            elif geo == "spherical":
                half = 1.45
            else:
                half = 2.5
            grid = np.linspace(-half, half, 400)  # even count: no exact z=0
            F = effective_force(spec, L, grid)
            signs = np.sign(F)
            crossings = int(np.sum(signs[1:] != signs[:-1]))
            assert crossings == 1, f"{geo} L={L:.3f} b={b:.3f} g={g:.3f}"
            idx = int(np.nonzero(signs[1:] != signs[:-1])[0][0])
            assert grid[idx] < 0.0 < grid[idx + 1]
            ext = effective_force_extrema(spec, L)
            assert len(ext.equilibria) == 1 and ext.equilibria[0].z == 0.0
        spec = BackgroundSpec(geometry="spherical", b=1.0, gamma=0.25)
        edge = math.pi / 2 - 1e-3
        for z in (-edge, edge):
            val = effective_potential(spec, 2.0, z)
            assert abs(val - (-4.0)) <= 0.01 * 4.0

    _report(8, "unique z=0 equilibrium for 50 draws; endpoint -b/gamma to 1%", body)


def test_criterion_09_standing_wave_property():
    def body():
        for m, w_perp in ((0, 1.0), (0, 2.0), (1, 2.0), (2, 3.0), (3, 5.0)):
            c3, c4 = asymptotic_amplitudes(m, w_perp)
            assert abs(abs(c3) - abs(c4)) <= 1e-10

        L = 2.0

        def rhs(r, y):
            R, dR = y
            return [dR, -(np.cosh(r) / np.sinh(r)) * dR - L * R]

        r0 = 1e-3
        sol = solve_ivp(
            rhs, (r0, 30.0), [1 - L * r0 * r0 / 4, -L * r0 / 2], method="DOP853",
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        rs = np.linspace(20.0, 30.0, 3000)
        xs = (1 + np.cosh(rs)) / 2
        vals = np.abs(np.sqrt(xs) * np.array([sol.sol(r)[0] for r in rs]))
        c3, _ = asymptotic_amplitudes(0, L)
        ratio = vals.max() / (2 * abs(c3))
        assert abs(ratio - 1.0) <= 0.02, f"envelope ratio {ratio:.4f}"

    _report(9, "standing waves: |c3| = |c4|; envelope within 2%", body)


def test_criterion_10_special_function_kernel():
    def body():
        suite = Path(__file__).with_name("test_special_functions.py")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(suite)],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    _report(10, "special-function kernel suite green in < 5 s", body)
