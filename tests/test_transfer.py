import numpy as np
import pytest
import scipy.linalg

from eitqfc import transfer
from eitqfc.errors import IllPosedBoundary, ShootingFailure
from eitqfc.params import SystemParams, symmetric_params
from eitqfc.spectral import solve_susceptibilities, solve_susceptibility_stack
from eitqfc.transfer import (
    boundary_resolve,
    conversion_efficiency,
    coupling_matrix,
    expm2,
    noise_kernel_block,
    noise_kernels,
    propagation_matrix,
    reassemble_raw,
    resolved_coefficients,
    semiclassical_solve,
    transmittance,
)


def symmetric_m(alpha: float) -> np.ndarray:
    """Line-center coupling matrix: nilpotent, (alpha/4) [[1,-1],[1,-1]]."""
    return (alpha / 4.0) * np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)


class TestExpm2:
    def test_zero_matrix(self):
        assert np.allclose(expm2(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        m = np.diag([0.3 + 1.2j, -2.0 + 0.1j])
        expected = np.diag(np.exp([-0.3 - 1.2j, 2.0 - 0.1j]))
        assert np.allclose(expm2(m), expected, rtol=1e-13)

    def test_nilpotent_line_center(self):
        # M^2 = 0, so e^{-M} = I - M exactly
        for alpha in (4.0, 200.0, 123.456):
            m = symmetric_m(alpha)
            assert np.array_equal(expm2(m), np.eye(2) - m)

    def test_against_scipy_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m *= rng.uniform(0.1, 5.0)
            ours = expm2(m)
            ref = scipy.linalg.expm(-m)
            assert np.max(np.abs(ours - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_near_degenerate_eigenvalues(self):
        # tiny eigenvalue splittings must not lose accuracy
        for eps in (1e-6, 1e-9, 1e-12, 0.0):
            m = np.array([[1.0, 1.0], [eps, 1.0]], dtype=complex)
            ref = scipy.linalg.expm(-m)
            assert np.max(np.abs(expm2(m) - ref)) < 1e-13

    def test_halving_and_squaring(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m *= rng.uniform(0.0, 50.0)  # norm up to ~100
            whole = expm2(m)
            half = expm2(m / 2)
            scale = np.max(np.abs(whole))
            assert np.max(np.abs(whole - half @ half)) < 1e-12 * max(1.0, scale)


def _with_q(mu: complex, q: complex) -> np.ndarray:
    """mu I + [[0, 1], [q, 0]]: its (d/2)^2 = (tr^2 - 4 det)/4 is q."""
    return np.array([[mu, 1.0], [q, mu]], dtype=complex)


def _test_stack() -> np.ndarray:
    rng = np.random.default_rng(17)
    members = list(
        (rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2)))
        * rng.uniform(0.05, 5.0, size=(40, 1, 1))
    )
    members += [
        symmetric_m(alpha) * np.exp(1j * phase) for alpha, phase in ((4.0, 0.0), (200.0, 1.1), (0.0, 0.0))
    ]
    members += [np.array([[1.0, 1.0], [eps, 1.0]], dtype=complex) for eps in (1e-6, 1e-9, 1e-12)]
    for side in (1 - 1e-3, 1 + 1e-3):  # either side of the |q| = 0.25 series/hyperbolic switch
        for phase in (0.0, 0.7, np.pi, -2.0):
            for mu in (0.0, 0.3 - 1.2j):
                members.append(_with_q(mu, 0.25 * side * np.exp(1j * phase)))
    return np.array(members)


class TestStackedExpm2:
    def test_branch_members_sit_where_intended(self):
        below = _with_q(0.3 - 1.2j, 0.25 * (1 - 1e-3) * np.exp(0.7j))
        above = _with_q(0.3 - 1.2j, 0.25 * (1 + 1e-3) * np.exp(0.7j))
        assert abs(transfer._mu_q(below)[1]) < 0.25 < abs(transfer._mu_q(above)[1])

    def test_stack_against_scipy(self):
        stack = _test_stack()
        ours = expm2(stack)
        assert ours.shape == stack.shape
        for m, got in zip(stack, ours):
            ref = scipy.linalg.expm(-m)
            assert np.max(np.abs(got - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_stack_member_equals_single_matrix_bit_for_bit(self):
        stack = _test_stack()
        whole = expm2(stack)
        for i, m in enumerate(stack):
            single = expm2(m)
            assert np.array_equal(expm2(stack[i : i + 1])[0], single)
            assert np.array_equal(whole[i], single)

    def test_leading_axes(self):
        stack = _test_stack()[:12]
        assert np.array_equal(expm2(stack.reshape(3, 4, 2, 2)), expm2(stack).reshape(3, 4, 2, 2))

    def test_overflow_is_silent_and_non_finite(self):
        # the omega_d = 2, alpha = 5000 generator overflows e^{-ML}; callers turn that into IllPosedBoundary
        m = coupling_matrix(solve_susceptibilities(SystemParams(alpha=5000.0, omega_d=2.0), 0.0))
        with np.errstate(over="raise", invalid="raise"):
            raw = expm2(m)
        assert not np.isfinite(raw).all()
        with pytest.raises(IllPosedBoundary):
            propagation_matrix(SystemParams(alpha=5000.0, omega_d=2.0))


class TestBoundaryResolve:
    def test_identity(self):
        assert np.allclose(boundary_resolve(np.eye(2)), np.eye(2), atol=1e-15)

    def test_line_center_closed_form(self):
        for alpha in (4.0, 200.0, 0.0):
            raw = np.eye(2) - symmetric_m(alpha)
            resolved = boundary_resolve(raw)
            expected = np.array(
                [
                    [4 / (4 + alpha), alpha / (4 + alpha)],
                    [alpha / (4 + alpha), 4 / (4 + alpha)],
                ]
            )
            assert np.allclose(resolved, expected, atol=1e-13)

    def test_ill_posed_boundary(self):
        raw = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(IllPosedBoundary):
            boundary_resolve(raw)

    def test_reassembly_recovers_raw(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raw = expm2(m)
            back = reassemble_raw(boundary_resolve(raw))
            assert np.max(np.abs(back - raw)) < 1e-12 * max(1.0, np.max(np.abs(raw)))

    def test_reassembly_on_physical_sweep(self):
        for alpha in (0.0, 1.0, 40.0, 400.0):
            pm = propagation_matrix(symmetric_params(alpha), 0.0)
            back = reassemble_raw(pm.resolved)
            assert np.max(np.abs(back - pm.raw)) < 1e-12 * max(1.0, np.max(np.abs(pm.raw)))


class TestNoiseKernels:
    def test_empty_medium_kernels_vanish(self):
        coeffs = solve_susceptibilities(symmetric_params(0.0), 0.4)
        raw = expm2(coupling_matrix(coeffs))
        kernels = noise_kernels(coeffs, raw)
        assert np.all(kernels.p == 0.0)
        assert np.all(kernels.q == 0.0)

    def test_exit_face_value(self):
        # at z = L the propagator is the identity
        coeffs = solve_susceptibilities(symmetric_params(8.0), 1.2)
        raw = expm2(coupling_matrix(coeffs))
        kernels = noise_kernels(coeffs, raw, np.array([0.0, 1.0]))
        zp, zs = coeffs.zeta_p_vector, coeffs.zeta_s_vector
        expected_p = zp - raw[0, 1] / raw[1, 1] * zs
        expected_q = -zs / raw[1, 1]
        assert np.allclose(kernels.p[:, 1], expected_p, atol=1e-14)
        assert np.allclose(kernels.q[:, 1], expected_q, atol=1e-14)

    @pytest.mark.parametrize(
        "params", [symmetric_params(8.0), SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8, gamma21=0.02)]
    )
    def test_matches_per_omega_expm_route(self, params):
        # the route the kernels replaced: a full e^{-M(L-z)} per z node, then the boundary mixing
        z = np.array([0.0, 0.13, 0.5, 0.87, 1.0])
        for omega in (0.0, 0.4, -0.4, 3.0, -3.0):
            coeffs = solve_susceptibilities(params, omega)
            m = coupling_matrix(coeffs)
            raw = expm2(m)
            kernels = noise_kernels(coeffs, raw, z)
            zeta = np.stack([coeffs.zeta_p_vector, coeffs.zeta_s_vector])
            boundary = np.array([[1.0, -raw[0, 1] / raw[1, 1]], [0.0, -1.0 / raw[1, 1]]])
            for i, zi in enumerate(z):
                expected = boundary @ scipy.linalg.expm(-m * (1.0 - zi)) @ zeta
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(kernels.p[:, i] - expected[0])) < 1e-13 * scale
                assert np.max(np.abs(kernels.q[:, i] - expected[1])) < 1e-13 * scale

    def test_block_matches_one_frequency_view(self):
        params = SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8, gamma21=0.02)
        omegas = np.array([-3.0, -0.4, 0.0, 0.4, 3.0])
        z = np.linspace(0.0, 1.0, 7)
        stack = solve_susceptibility_stack(params, omegas)
        block = noise_kernel_block(stack, expm2(stack.generator), z)
        assert block.shape == (5, 7, 2, 3)
        for row in (0, 1):
            one_row = noise_kernel_block(stack, expm2(stack.generator), z, row)
            assert np.max(np.abs(one_row - block[:, :, row])) < 1e-15 * np.max(np.abs(block))
        for n, omega in enumerate(omegas):
            coeffs = solve_susceptibilities(params, omega)
            view = noise_kernels(coeffs, expm2(coupling_matrix(coeffs)), z)
            scale = np.max(np.abs(block[n]))
            assert np.max(np.abs(block[n, :, 0, :].T - view.p)) < 1e-14 * scale
            assert np.max(np.abs(block[n, :, 1, :].T - view.q)) < 1e-14 * scale

    def test_block_rejects_ill_posed_raw(self):
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 1.0]))
        raw = expm2(stack.generator)
        singular = raw.copy()
        singular[1, 1, 1] = 0.0
        with pytest.raises(IllPosedBoundary, match="omega=1.0"):
            noise_kernel_block(stack, singular, np.array([0.5]))
        overflowed = raw.copy()
        overflowed[0, 0, 0] = np.inf
        with pytest.raises(IllPosedBoundary, match="non-finite"):
            noise_kernel_block(stack, overflowed, np.array([0.5]))

    def test_nilpotent_closed_form(self):
        # at line center e^{M(z-L)} = I + M(z-L) exactly
        coeffs = solve_susceptibilities(symmetric_params(4.0), 0.0)
        m = coupling_matrix(coeffs)
        raw = expm2(m)
        z = np.linspace(0.0, 1.0, 9)
        kernels = noise_kernels(coeffs, raw, z)
        zeta = np.stack([coeffs.zeta_p_vector, coeffs.zeta_s_vector])
        boundary = np.array([[1.0, -raw[0, 1] / raw[1, 1]], [0.0, -1.0 / raw[1, 1]]])
        for i, zi in enumerate(z):
            prop = np.eye(2) + m * (zi - 1.0)
            expected = boundary @ prop @ zeta
            assert np.max(np.abs(kernels.p[:, i] - expected[0])) < 1e-12
            assert np.max(np.abs(kernels.q[:, i] - expected[1])) < 1e-12


class TestSingleModeCoefficients:
    def test_transmittance_examples(self):
        assert transmittance(symmetric_params(0.0)) == pytest.approx(1.0, abs=1e-14)
        assert transmittance(symmetric_params(4.0)) == pytest.approx(0.25, abs=1e-14)
        assert transmittance(symmetric_params(200.0)) == pytest.approx((4 / 204) ** 2, rel=1e-13)

    def test_conversion_efficiency_examples(self):
        assert conversion_efficiency(symmetric_params(200.0)) == pytest.approx(
            (200 / 204) ** 2, rel=1e-13
        )
        assert conversion_efficiency(symmetric_params(0.0)) == 0.0
        assert conversion_efficiency(symmetric_params(12.0)) == pytest.approx(0.5625, abs=1e-13)

    def test_closed_forms_across_od_grid(self):
        for alpha in np.linspace(0.0, 400.0, 81):
            p = symmetric_params(float(alpha))
            assert abs(transmittance(p) - (4 / (4 + alpha)) ** 2) < 1e-12
            assert abs(conversion_efficiency(p) - (alpha / (4 + alpha)) ** 2) < 1e-12

    def test_reciprocity_at_line_center(self):
        for alpha in (0.5, 30.0, 250.0):
            a0, b0, c0, d0 = resolved_coefficients(symmetric_params(alpha), 0.0)
            assert abs(a0 - d0) < 1e-13
            assert abs(b0 - c0) < 1e-13

    def test_passivity(self):
        for alpha in np.linspace(0.0, 400.0, 41):
            a0, b0, c0, d0 = resolved_coefficients(symmetric_params(float(alpha)), 0.0)
            target = (16 + alpha**2) / (4 + alpha) ** 2
            assert abs(abs(a0) ** 2 + abs(b0) ** 2 - target) < 1e-12
            assert abs(abs(c0) ** 2 + abs(d0) ** 2 - target) < 1e-12
            assert abs(a0) ** 2 + abs(b0) ** 2 <= 1.0 + 1e-12
            if alpha == 0.0:
                assert abs(a0) ** 2 + abs(b0) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_loss_deficit_monotone_beyond_crossover(self):
        alphas = np.linspace(4.0, 400.0, 100)
        deficit = [
            1.0 - transmittance(symmetric_params(a)) - conversion_efficiency(symmetric_params(a))
            for a in alphas
        ]
        assert np.allclose(deficit, 8 * alphas / (4 + alphas) ** 2, atol=1e-12)
        assert np.all(np.diff(deficit) < 0)


class TestSemiclassical:
    def test_matches_quantum_at_crossover(self):
        tp, ce = semiclassical_solve(symmetric_params(4.0))
        assert tp == pytest.approx(0.25, abs=1e-9)
        assert ce == pytest.approx(0.25, abs=1e-9)

    def test_empty_medium(self):
        tp, ce = semiclassical_solve(symmetric_params(0.0))
        assert tp == pytest.approx(1.0, abs=1e-12)
        assert ce == pytest.approx(0.0, abs=1e-12)

    def test_high_od(self):
        tp, ce = semiclassical_solve(symmetric_params(200.0))
        assert tp == pytest.approx((4 / 204) ** 2, abs=1e-6)
        assert ce == pytest.approx((200 / 204) ** 2, abs=1e-6)

    def test_agrees_with_quantum_on_sample_grid(self):
        for alpha in (0.0, 1.0, 7.0, 63.0, 311.0):
            p = symmetric_params(alpha)
            tp_s, ce_s = semiclassical_solve(p)
            assert abs(tp_s - transmittance(p)) < 1e-6
            assert abs(ce_s - conversion_efficiency(p)) < 1e-6

    def test_shooting_failure_guard(self, monkeypatch):
        # a quarter-turn rotation makes the shooting solve singular
        rotation = np.array([[0.0, np.pi / 2], [-np.pi / 2, 0.0]], dtype=complex)
        monkeypatch.setattr(
            transfer, "_fundamental_matrix_ode", lambda m, rtol, atol: expm2(rotation)
        )
        with pytest.raises(ShootingFailure):
            semiclassical_solve(symmetric_params(4.0))

    def test_asymmetric_parameters_still_consistent(self):
        # no closed form here; quantum matrix route and the BVP must agree
        p = SystemParams(alpha=30.0, omega_c=1.5, omega_d=0.9, gamma31=1.2, gamma41=0.8, gamma21=0.01)
        tp_s, ce_s = semiclassical_solve(p)
        assert abs(tp_s - transmittance(p)) < 1e-8
        assert abs(ce_s - conversion_efficiency(p)) < 1e-8
