import numpy as np
import pytest

from eitqfc.errors import NotSymmetricCase, SingularG, SingularSystem
from eitqfc.params import SystemParams, symmetric_params
from eitqfc.spectral import (
    NOISE_INDICES,
    build_first_order_system,
    closed_form_coefficients,
    eit_denominator,
    solve_susceptibilities,
    solve_susceptibility_stack,
)


def _all_coefficients(coeffs):
    values = [coeffs.lambda_p, coeffs.lambda_s, coeffs.kappa_p, coeffs.kappa_s]
    values += [coeffs.zeta_p[jk] for jk in NOISE_INDICES]
    values += [coeffs.zeta_s[jk] for jk in NOISE_INDICES]
    return np.array(values)


def test_first_order_system_diagonal_at_resonance():
    system = build_first_order_system(symmetric_params(10.0), 0.0)
    diag = np.diag(system.drift)
    assert np.allclose(diag, [0.0, -0.5, -0.5])
    # couplings sit where the Rabi frequencies drive the coherences
    assert system.drift[0, 1] == -0.5j
    assert system.drift[0, 2] == -0.5j
    assert system.drift[1, 0] == -0.5j
    assert system.drift[2, 0] == -0.5j
    assert system.drift[1, 2] == 0.0
    assert system.drift[2, 1] == 0.0
    assert np.allclose(system.drive_p, [0.0, -1j, 0.0])
    assert np.allclose(system.drive_s, [0.0, 0.0, -1j])


def test_first_order_system_decouples_without_rabi_fields():
    system = build_first_order_system(
        SystemParams(alpha=5.0, omega_c=0.0, omega_d=0.0, gamma21=0.3), 0.5
    )
    off = system.drift.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)


def test_system_determinant_matches_eit_denominator():
    # det(i w I - drift) = G(w)/4 in the symmetric case
    p = symmetric_params(7.0)
    for omega in (1.0, -2.5, 0.0, 13.7):
        det = np.linalg.det(build_first_order_system(p, omega).system_matrix)
        assert abs(det - eit_denominator(p, omega) / 4) < 1e-12 * max(1.0, abs(det))


def test_solve_at_line_center():
    coeffs = solve_susceptibilities(symmetric_params(200.0), 0.0)
    assert abs(coeffs.lambda_p - 50.0) < 1e-12
    assert abs(coeffs.kappa_p + 50.0) < 1e-12
    assert abs(coeffs.zeta_p[41] - 1j * np.sqrt(50.0)) < 1e-12


def test_solve_empty_medium_is_all_zero():
    coeffs = solve_susceptibilities(symmetric_params(0.0), 1.3)
    assert np.all(_all_coefficients(coeffs) == 0.0)


def test_closed_form_at_line_center():
    coeffs = closed_form_coefficients(symmetric_params(200.0), 0.0)
    assert abs(coeffs.lambda_p - 200.0 / 4) < 1e-12
    assert abs(coeffs.kappa_p + 200.0 / 4) < 1e-12


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
        c = solve_susceptibilities(p, omega)
        scale = max(abs(c.lambda_p), abs(c.kappa_p))
        assert abs(c.lambda_p + c.lambda_s) < 1e-12 * scale
        assert abs(c.kappa_p + c.kappa_s) < 1e-12 * scale


def test_conjugation_symmetry_under_real_rabi():
    p = symmetric_params(37.0, omega=1.7)
    for omega in (0.3, 1.9, 7.5):
        plus = solve_susceptibilities(p, omega)
        minus = solve_susceptibilities(p, -omega)
        assert abs(minus.lambda_p - np.conj(plus.lambda_p)) < 1e-12 * abs(plus.lambda_p)
        assert abs(minus.kappa_p - np.conj(plus.kappa_p)) < 1e-12 * abs(plus.kappa_p)
        for jk in NOISE_INDICES:
            assert abs(abs(minus.zeta_p[jk]) - abs(plus.zeta_p[jk])) < 1e-12


def test_coefficients_scale_with_optical_depth():
    base = solve_susceptibilities(symmetric_params(10.0), 2.0)
    scaled = solve_susceptibilities(symmetric_params(90.0), 2.0)
    assert abs(scaled.lambda_p - 9 * base.lambda_p) < 1e-12 * abs(scaled.lambda_p)
    assert abs(scaled.kappa_p - 9 * base.kappa_p) < 1e-12 * abs(scaled.kappa_p)
    for jk in NOISE_INDICES:
        assert abs(scaled.zeta_p[jk] - 3 * base.zeta_p[jk]) < 1e-12 * abs(scaled.zeta_p[jk])
        assert abs(scaled.zeta_s[jk] - 3 * base.zeta_s[jk]) < 1e-12 * abs(scaled.zeta_s[jk])


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
        generator = [[one.lambda_p, one.kappa_p], [one.kappa_s, one.lambda_s]]
        zeta = [one.zeta_p_vector, one.zeta_s_vector]
        assert np.max(np.abs(stack.generator[n] - generator)) <= 1e-15 * np.max(np.abs(generator))
        assert np.max(np.abs(stack.zeta[n] - zeta)) <= 1e-15 * np.max(np.abs(zeta))


def test_stack_names_first_singular_frequency():
    p = SystemParams(alpha=5.0, omega_c=0.0, omega_d=0.0)
    with pytest.raises(SingularSystem, match=r"omega=0\.0 has condition number inf"):
        solve_susceptibility_stack(p, np.array([-1.0, 0.0, 2.0, 0.0]))
    assert solve_susceptibility_stack(p, np.array([-1.0, 2.0])).generator.shape == (2, 2, 2)
