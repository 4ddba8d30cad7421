import re
import warnings

import numpy as np
import pytest

from eitqfc import noise, spectral
from eitqfc.errors import NonFiniteParameter, NotSymmetricCase, SingularG, SingularSystem
from eitqfc.params import SystemParams, symmetric_params
from eitqfc.spectral import (
    COND_LIMIT,
    NOISE_INDICES,
    build_first_order_system,
    closed_form_coefficients,
    eit_denominator,
    solve_susceptibilities,
    solve_susceptibility_stack,
)
from eitqfc.transfer import propagation_sweep


def _all_coefficients(stack):
    """The eight coefficients of a stack of one: M row by row, then zeta_p and zeta_s."""
    return np.concatenate([stack.generator[0].ravel(), stack.zeta[0].ravel()])


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def test_first_order_system_diagonal_at_resonance():
    drift = build_first_order_system(symmetric_params(10.0))
    diag = np.diag(drift)
    assert np.allclose(diag, [0.0, -0.5, -0.5])
    # couplings sit where the Rabi frequencies drive the coherences
    assert drift[0, 1] == -0.5j
    assert drift[0, 2] == -0.5j
    assert drift[1, 0] == -0.5j
    assert drift[2, 0] == -0.5j
    assert drift[1, 2] == 0.0
    assert drift[2, 1] == 0.0


def test_first_order_system_decouples_without_rabi_fields():
    drift = build_first_order_system(SystemParams(alpha=5.0, omega_c=0.0, omega_d=0.0, gamma21=0.3))
    off = drift.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)


def test_system_determinant_matches_eit_denominator():
    # det(i w I - drift) = G(w)/4 in the symmetric case
    p = symmetric_params(7.0)
    for omega in (1.0, -2.5, 0.0, 13.7):
        det = np.linalg.det(1j * omega * np.eye(3) - build_first_order_system(p))
        assert abs(det - eit_denominator(p, omega) / 4) < 1e-12 * max(1.0, abs(det))


def test_solve_at_line_center():
    stack = solve_susceptibilities(symmetric_params(200.0), 0.0)
    (lambda_p, kappa_p), _ = stack.generator[0]
    assert abs(lambda_p - 50.0) < 1e-12
    assert abs(kappa_p + 50.0) < 1e-12
    assert abs(stack.zeta[0, 0, NOISE_INDICES.index(41)] - 1j * np.sqrt(50.0)) < 1e-12


def test_solve_empty_medium_is_all_zero():
    coeffs = solve_susceptibilities(symmetric_params(0.0), 1.3)
    assert np.all(_all_coefficients(coeffs) == 0.0)


def test_closed_form_at_line_center():
    stack = closed_form_coefficients(symmetric_params(200.0), 0.0)
    assert stack.generator.shape == (1, 2, 2)
    assert stack.zeta.shape == (1, 2, 3)
    assert list(stack.omega) == [0.0]
    (lambda_p, kappa_p), (_, lambda_s) = stack.generator[0]
    assert abs(lambda_p - 200.0 / 4) < 1e-12
    assert abs(kappa_p + 200.0 / 4) < 1e-12
    assert lambda_s == -lambda_p


def test_closed_form_rejects_asymmetric_params():
    with pytest.raises(NotSymmetricCase):
        closed_form_coefficients(SystemParams(alpha=5.0, omega_c=1.0, omega_d=2.0), 0.0)


def test_closed_form_singular_denominator():
    with pytest.raises(SingularG):
        closed_form_coefficients(SystemParams(alpha=5.0, omega_c=0.0, omega_d=0.0), 0.0)


def test_solver_detects_singular_system():
    with pytest.raises(SingularSystem):
        solve_susceptibilities(SystemParams(alpha=5.0, omega_c=0.0, omega_d=0.0), 0.0)


def test_numeric_solve_matches_closed_forms():
    # oracle equivalence on random symmetric-case draws (common Rabi phase)
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        mag = rng.uniform(0.1, 10.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        alpha = rng.uniform(0.0, 400.0)
        omega = rng.uniform(-20.0, 20.0)
        p = symmetric_params(alpha, omega=mag * np.exp(1j * phase))
        numeric = _all_coefficients(solve_susceptibilities(p, omega))
        closed = _all_coefficients(closed_form_coefficients(p, omega))
        assert np.all(np.abs(numeric - closed) <= 1e-10 * np.maximum(np.abs(closed), 1e-12))


def test_symmetric_antisymmetry_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = symmetric_params(
            rng.uniform(0.1, 300.0), omega=rng.uniform(0.2, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        )
        omega = rng.uniform(-10, 10)
        (lambda_p, kappa_p), (kappa_s, lambda_s) = solve_susceptibilities(p, omega).generator[0]
        scale = max(abs(lambda_p), abs(kappa_p))
        assert abs(lambda_p + lambda_s) < 1e-12 * scale
        assert abs(kappa_p + kappa_s) < 1e-12 * scale


def test_conjugation_symmetry_under_real_rabi():
    p = symmetric_params(37.0, omega=1.7)
    for omega in (0.3, 1.9, 7.5):
        plus = solve_susceptibilities(p, omega)
        minus = solve_susceptibilities(p, -omega)
        for got, want in zip(minus.generator[0, 0], plus.generator[0, 0]):  # Lambda_p, kappa_p
            assert abs(got - np.conj(want)) < 1e-12 * abs(want)
        for got, want in zip(minus.zeta[0, 0], plus.zeta[0, 0]):  # zeta_p, every noise slot
            assert abs(abs(got) - abs(want)) < 1e-12


def test_coefficients_scale_with_optical_depth():
    base = solve_susceptibilities(symmetric_params(10.0), 2.0)
    scaled = solve_susceptibilities(symmetric_params(90.0), 2.0)
    for got, want in zip(scaled.generator[0, 0], base.generator[0, 0]):  # Lambda_p, kappa_p
        assert abs(got - 9 * want) < 1e-12 * abs(got)
    for got, want in zip(scaled.zeta[0].ravel(), base.zeta[0].ravel()):  # zeta_p and zeta_s
        assert abs(got - 3 * want) < 1e-12 * abs(got)


def test_general_parameters_supported():
    # dephasing and unequal decays go through the numeric route
    p = SystemParams(
        alpha=25.0, omega_c=1.3, omega_d=0.8 * np.exp(0.4j), gamma31=1.1, gamma41=0.9, gamma21=0.02
    )
    coeffs = solve_susceptibilities(p, 0.7)
    assert np.all(np.isfinite(_all_coefficients(coeffs)))
    with pytest.raises(NotSymmetricCase):
        closed_form_coefficients(p, 0.7)


def test_system_invertible_whenever_guaranteed():
    # positive optical decays plus (dephasing or a Rabi field) keep the
    # response matrix invertible at every real frequency
    rng = np.random.default_rng(404)
    for _ in range(200):
        if rng.random() < 0.5:
            gamma21, mags = rng.uniform(0.01, 1.0), rng.uniform(0.0, 3.0, size=2)
        else:
            gamma21, mags = 0.0, rng.uniform(0.05, 3.0, size=2)
        p = SystemParams(
            alpha=rng.uniform(0.0, 100.0),
            omega_c=mags[0] * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            omega_d=mags[1] * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            gamma31=rng.uniform(0.1, 3.0),
            gamma41=rng.uniform(0.1, 3.0),
            gamma21=gamma21,
        )
        coeffs = solve_susceptibilities(p, rng.uniform(-15.0, 15.0))
        assert np.all(np.isfinite(_all_coefficients(coeffs)))


def test_stack_matches_one_frequency_solves():
    p = SystemParams(
        alpha=25.0, omega_c=1.3, omega_d=0.8 * np.exp(0.4j), gamma31=1.1, gamma41=0.9, gamma21=0.02
    )
    omegas = np.linspace(-12.0, 12.0, 37)
    stack = solve_susceptibility_stack(p, omegas)
    assert stack.generator.shape == (37, 2, 2)
    assert stack.zeta.shape == (37, 2, 3)
    for n, omega in enumerate(omegas):
        one = solve_susceptibilities(p, omega)
        generator, zeta = one.generator[0], one.zeta[0]
        assert np.max(np.abs(stack.generator[n] - generator)) <= 1e-15 * np.max(np.abs(generator))
        assert np.max(np.abs(stack.zeta[n] - zeta)) <= 1e-15 * np.max(np.abs(zeta))


def test_stack_names_first_singular_frequency():
    p = SystemParams(alpha=5.0, omega_c=0.0, omega_d=0.0)
    with pytest.raises(SingularSystem, match=r"omega=0\.0 has condition number inf"):
        solve_susceptibility_stack(p, np.array([-1.0, 0.0, 2.0, 0.0]))
    assert solve_susceptibility_stack(p, np.array([-1.0, 2.0])).generator.shape == (2, 2, 2)


def test_zero_response_matrix_is_singular():
    # every drift entry rounds to 0, so the omega = 0 matrix is exactly zero and so are all its singular values
    p = SystemParams(alpha=5.0, omega_c=5e-324, omega_d=5e-324, gamma31=5e-324, gamma41=5e-324)
    assert not build_first_order_system(p).any()
    with pytest.raises(SingularSystem, match=r"omega=0\.0 has condition number inf"):
        solve_susceptibility_stack(p, np.array([-1.0, 0.0, 2.0]))


@pytest.mark.parametrize("omegas", [0.3, [[0.3, 0.4]]], ids=["scalar", "2-D"])
def test_stack_rejects_a_grid_that_is_not_1d(omegas):
    with pytest.raises(ValueError, match=r"frequencies must form a 1-D grid, got shape \("):
        solve_susceptibility_stack(symmetric_params(2.0), omegas)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_frequency_is_rejected(bad):
    # named before any arithmetic: no RuntimeWarning from the matrix, no LinAlgError from the SVD test
    p = symmetric_params(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteParameter, match=rf"^frequency must be finite, got {bad}$"):
            solve_susceptibility_stack(p, [0.0, 1.5, bad, np.nan, 2.0])
        with pytest.raises(NonFiniteParameter, match=rf"^frequency must be finite, got {bad}$"):
            propagation_sweep(p, [0.0, 4.0], omega=bad)


def test_one_frequency_is_a_stack_of_one_bit_for_bit():
    rng = np.random.default_rng(93)
    for _ in range(50):
        p = SystemParams(
            alpha=rng.uniform(0.0, 400.0),
            omega_c=rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            omega_d=rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            gamma31=rng.uniform(0.5, 2.0),
            gamma41=rng.uniform(0.5, 2.0),
            gamma21=rng.uniform(0.0, 0.1),
        )
        omega = rng.uniform(-15.0, 15.0)
        one = solve_susceptibilities(p, omega)
        stack = solve_susceptibility_stack(p, [omega])
        assert one.generator.shape == (1, 2, 2) and one.zeta.shape == (1, 2, 3)
        assert np.array_equal(_bits(one.generator), _bits(stack.generator))
        assert np.array_equal(_bits(one.zeta), _bits(stack.zeta))
        assert np.array_equal(one.omega, stack.omega)


class TestConditionScreen:
    """The Frobenius screen in front of the SVD condition test decides exactly as the SVD test alone."""

    @staticmethod
    def _recording_svd(monkeypatch):
        sizes, svd = [], np.linalg.svd

        def recording(matrix, *args, **kwargs):
            sizes.append(len(matrix))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return sizes

    def test_decides_as_the_svd_criterion(self, monkeypatch):
        # tiny Rabi frequencies, tiny dephasing and frequencies down to 1e-16: condition numbers around COND_LIMIT
        rng = np.random.default_rng(2026)
        sizes = self._recording_svd(monkeypatch)
        outcomes = {"raised": 0, "flagged and passed": 0}
        for _ in range(2000):
            rabi = 10.0 ** rng.uniform(-9, -4, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            p = SystemParams(
                alpha=1.0,
                omega_c=rabi[0],
                omega_d=rabi[1],
                gamma31=rng.uniform(0.5, 2.0),
                gamma41=rng.uniform(0.5, 2.0),
                gamma21=rng.choice([0.0, 10.0 ** rng.uniform(-16, -9)]),
            )
            omegas = rng.permutation(np.append(rng.choice([-1, 1], 6) * 10.0 ** rng.uniform(-16, -9, 6), 0.0))
            matrix = np.multiply.outer(1j * omegas, np.eye(3)) - build_first_order_system(p)
            singular_values = np.linalg.svd(matrix, compute_uv=False)
            failing = np.flatnonzero(~(singular_values[:, 0] <= COND_LIMIT * singular_values[:, -1]))
            sizes.clear()
            if failing.size:
                with pytest.raises(SingularSystem, match=re.escape(f"omega={omegas[failing[0]]} has condition")):
                    solve_susceptibility_stack(p, omegas)
                outcomes["raised"] += 1
            else:
                solve_susceptibility_stack(p, omegas)
                outcomes["flagged and passed"] += bool(sizes)
        assert min(outcomes.values()) >= 50, outcomes

    def test_flagged_frequency_that_passes(self, monkeypatch):
        # condition number 5e11 at omega = 0: over the screen, under COND_LIMIT
        sizes = self._recording_svd(monkeypatch)
        p = SystemParams(alpha=1.0, omega_c=1e-6, omega_d=1e-6)
        stack = solve_susceptibility_stack(p, np.array([-1.0, 0.0, 0.5]))
        assert np.all(np.isfinite(stack.generator))
        assert sizes == [1]

    def test_flagged_frequency_that_fails(self, monkeypatch):
        # condition number 5e13 at omega = 0, yet np.linalg.inv succeeds there
        sizes = self._recording_svd(monkeypatch)
        p = SystemParams(alpha=1.0, omega_c=1e-7, omega_d=1e-7)
        matrix = np.multiply.outer(1j * np.array([-1.0, 0.0, 0.5]), np.eye(3)) - build_first_order_system(p)
        assert np.all(np.isfinite(np.linalg.inv(matrix)))
        with pytest.raises(SingularSystem, match=r"omega=0\.0 has condition number 5\.0\d\de\+13"):
            solve_susceptibility_stack(p, np.array([-1.0, 0.0, 0.5]))
        assert sizes == [1]

    def test_inverse_is_bit_for_bit_inv_on_a_noise_grid(self):
        p = SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8 * np.exp(0.3j), gamma21=0.02)
        edges = noise._seed_edges(p)  # the noise integrals' seed pass: 7 panels x 21 Kronrod nodes, then the edges
        omegas = np.concatenate([noise._kronrod_nodes(edges[:-1], edges[1:])[0].ravel(), edges])
        assert omegas.shape == (155,)
        matrix = np.multiply.outer(1j * omegas, np.eye(3)) - build_first_order_system(p)
        assert np.array_equal(_bits(spectral._inverse_response(p, omegas)), _bits(np.linalg.inv(matrix)))
