import hashlib
import math
import operator
import warnings
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eitqfc import transfer
from eitqfc.errors import IllPosedBoundary, NegativeOD, NonFiniteParameter, SingularSystem, first_failure
from eitqfc.params import LENGTH, SystemParams, symmetric_params
from eitqfc.spectral import solve_susceptibilities, solve_susceptibility_stack
from eitqfc.transfer import (
    PropagationSweep,
    coupling_matrix,
    expm2,
    noise_kernel_block,
    noise_kernel_gram,
    noise_kernels,
    propagation_sweep,
    semiclassical_sweep,
)


def generator_grid(params: SystemParams, alphas, omega: float = 0.0) -> np.ndarray:
    """M on an optical-depth grid, (n, 2, 2): the unit-depth generator scaled as the sweeps scale it."""
    unit = solve_susceptibility_stack(replace(params, alpha=1.0), [omega]).generator[0]
    return np.asarray(alphas, dtype=float)[:, None, None] * unit


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
    for side in (1 - 1e-3, 1 + 1e-3):  # |q| just either side of 0.25, at four phases and two traces
        for phase in (0.0, 0.7, np.pi, -2.0):
            for mu in (0.0, 0.3 - 1.2j):
                members.append(_with_q(mu, 0.25 * side * np.exp(1j * phase)))
    return np.array(members)


class TestCoshSinch:
    def test_exact_at_zero_and_accurate_below_a_quarter(self):
        c, s = transfer._cosh_sinch(np.sqrt(np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])))
        assert np.array_equal(c, np.ones(3)) and np.array_equal(s, np.ones(3))
        # |q| from 1e-30 up to 0.25 at all phases, the real axis of either sign included
        mpmath = pytest.importorskip("mpmath")
        mags = np.geomspace(1e-30, 0.25, 60, endpoint=False)
        q = np.multiply.outer(mags, np.exp(1j * np.linspace(-np.pi, np.pi, 37))).ravel()
        q = np.concatenate([q, mags + 0j, -mags + 0j])
        w = np.sqrt(q)
        worst = 0.0
        with mpmath.workdps(50):
            for qi, *got in zip(q, *transfer._cosh_sinch(w), w):
                root = mpmath.sqrt(mpmath.mpc(qi))
                scale = mpmath.exp(-root)
                refs = (scale * mpmath.cosh(root), scale * mpmath.sinh(root) / root, root)
                worst = max(worst, *(float(abs(mpmath.mpc(g) - r) / abs(r)) for g, r in zip(got, refs)))
        assert worst <= 1e-15


class TestStackedExpm2:
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
        # at this optical depth e^{-ML} itself overflows; the resolved route never forms it
        params = SystemParams(alpha=5000.0, omega_c=1.5, omega_d=0.8)
        with np.errstate(over="raise", invalid="raise"):
            raw = expm2(coupling_matrix(solve_susceptibilities(params, 0.0)))
        assert not np.isfinite(raw).all()
        a, b, c, d = propagation_sweep(params, [params.alpha]).resolved[0].ravel()
        assert np.isfinite([a, b, c, d]).all()
        assert abs(a) ** 2 + abs(c) ** 2 <= 1.0 + 1e-12
        assert abs(b) ** 2 + abs(d) ** 2 <= 1.0 + 1e-12


def checked_scattering(m: np.ndarray) -> np.ndarray:
    """The resolved form of one generator through the scattering core and the shared solvability check."""
    resolved = transfer._scattering(np.asarray(m, dtype=complex)[None])
    _, failure = first_failure(np.zeros(1), transfer._solvable(resolved))
    if failure is not None:
        raise failure
    return resolved[0]


def reassemble_raw(resolved: np.ndarray) -> np.ndarray:
    """Invert the boundary re-solve, recovering (A',B';C',D') from (A,B;C,D)."""
    a, b, c, d = np.asarray(resolved, dtype=complex).ravel()
    return np.array([[a - b * c / d, b / d], [-c / d, 1.0 / d]], dtype=complex)


class TestBoundaryResolve:
    def test_identity(self):
        assert np.allclose(checked_scattering(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_line_center_closed_form(self):
        for alpha in (4.0, 200.0, 0.0, 1e6):
            resolved = checked_scattering(symmetric_m(alpha))
            expected = np.array(
                [
                    [4 / (4 + alpha), alpha / (4 + alpha)],
                    [alpha / (4 + alpha), 4 / (4 + alpha)],
                ]
            )
            assert np.allclose(resolved, expected, atol=1e-13)

    def test_ill_posed_boundary(self):
        # a quarter turn: D' = cos(pi/2) of e^{-M} vanishes up to rounding
        rotation = np.array([[0.0, np.pi / 2], [-np.pi / 2, 0.0]], dtype=complex)
        with pytest.raises(IllPosedBoundary, match=r"\|1/D\| = \d\.\d{3}e-1[6-7] below 1e-12"):
            checked_scattering(rotation)

    def test_shared_check_finds_the_first_unsolvable_row(self):
        stack = np.array([np.eye(2), np.eye(2), np.eye(2), np.eye(2)], dtype=complex)
        stack[1, 1, 1] = 1e13
        stack[2, 0, 0] = np.nan
        checks = transfer._solvable(stack)
        non_finite, small_pivot = (list(mask) for mask, _ in checks)
        assert non_finite == [False, False, True, False]
        assert small_pivot == [False, True, False, False]
        n, failure = first_failure(np.array([0.0, 0.5, 1.0, 2.0]), checks, "omega")
        assert n == 1
        assert str(failure) == "at omega=0.5: |1/D| = 1.000e-13 below 1e-12"
        n, failure = first_failure(np.array([0.0, 0.5, 1.0, 2.0]), checks[:1])
        assert (n, str(failure)) == (2, "at alpha=1.0: the resolved matrix is not finite")
        assert first_failure(np.zeros(4), checks[:0]) == (4, None)

    def test_reassembly_recovers_raw(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raw = expm2(m)
            back = reassemble_raw(checked_scattering(m))
            assert np.max(np.abs(back - raw)) < 1e-12 * max(1.0, np.max(np.abs(raw)))

    def test_reassembly_on_physical_sweep(self):
        params = symmetric_params(0.0)
        alphas = np.array([0.0, 1.0, 40.0, 400.0])
        sweep = propagation_sweep(params, alphas)
        assert sweep.failure is None
        for raw, resolved in zip(expm2(generator_grid(params, alphas)), sweep.resolved):
            back = reassemble_raw(resolved)
            assert np.max(np.abs(back - raw)) < 1e-12 * max(1.0, np.max(np.abs(raw)))

    def test_stack_member_equals_single_generator_bit_for_bit(self):
        stack = _test_stack()
        whole = transfer._scattering(stack)
        for i in range(len(stack)):
            assert np.array_equal(transfer._scattering(stack[i : i + 1])[0], whole[i])


def _inject_into_core(patch: pytest.MonkeyPatch, index: tuple, value: complex) -> None:
    """Make the scattering core return ``value`` at ``index`` of every resolved stack."""
    core = transfer._resolve

    def patched(m: np.ndarray, *parts) -> np.ndarray:
        resolved = core(m, *parts)
        resolved[index] = value
        return resolved

    patch.setattr(transfer, "_resolve", patched)


def _mpmath_kernels(m: np.ndarray, zeta: np.ndarray, z_grid: np.ndarray) -> np.ndarray:
    """[[1, -B'/D'], [0, -1/D']] e^{M (z - L)} zeta of (A', B'; C', D') = e^{-ML} at 80 digits, (nz, 2, k)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        generator = mpmath.matrix(m.tolist())
        raw = mpmath.expm(-generator)
        boundary = mpmath.matrix([[1, -raw[0, 1] / raw[1, 1]], [0, -1 / raw[1, 1]]])
        zeta = mpmath.matrix(zeta.tolist())
        kernels = [boundary * mpmath.expm(generator * (mpmath.mpf(z) - 1)) * zeta for z in z_grid]
        return np.array([[[complex(k[i, j]) for j in range(k.cols)] for i in range(2)] for k in kernels])


_KERNEL_CASES = [
    symmetric_params(3.392),
    SystemParams(alpha=7.0, omega_c=1.5, omega_d=0.8, gamma21=0.02),
    symmetric_params(200.0),
    SystemParams(alpha=200.0, omega_c=1.5, omega_d=0.8),
    symmetric_params(400.0),
]
_KERNEL_IDS = ["symmetric-3.392", "asymmetric-dephased-7", "symmetric-200", "asymmetric-200", "symmetric-400"]


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
        zp, zs = coeffs.zeta[0]
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
            zeta = coeffs.zeta[0]
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
        block = noise_kernel_block(stack, z)
        assert block.shape == (5, 7, 2, 3)
        for n, omega in enumerate(omegas):
            coeffs = solve_susceptibilities(params, omega)
            view = noise_kernels(coeffs, expm2(coupling_matrix(coeffs)), z)
            scale = np.max(np.abs(block[n]))
            assert np.max(np.abs(block[n, :, 0, :].T - view.p)) < 1e-14 * scale
            assert np.max(np.abs(block[n, :, 1, :].T - view.q)) < 1e-14 * scale

    def test_block_without_noise_slots_is_empty_but_checked(self):
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 1.0]))
        empty = replace(stack, zeta=stack.zeta[..., :0])
        z = np.linspace(0.0, 1.0, 5)
        assert noise_kernel_block(empty, z).shape == (2, 5, 2, 0)
        with pytest.MonkeyPatch.context() as patch:
            _inject_into_core(patch, (1, 1, 1), 1e13)
            with pytest.raises(IllPosedBoundary, match=r"omega=1\.0: \|1/D\| = 1\.000e-13"):
                noise_kernel_block(empty, z)

    def test_block_rejects_ill_posed_raw(self):
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 1.0]))
        with pytest.MonkeyPatch.context() as patch:
            _inject_into_core(patch, (1, 1, 1), 1e13)
            with pytest.raises(IllPosedBoundary, match=r"omega=1\.0: \|1/D\| = 1\.000e-13"):
                noise_kernel_block(stack, np.array([0.5]))
        with pytest.MonkeyPatch.context() as patch:
            _inject_into_core(patch, (0, 0, 1), np.inf)
            with pytest.raises(IllPosedBoundary, match="omega=0.0: the resolved matrix is not finite"):
                noise_kernel_block(stack, np.array([0.5]))
        singular_raw = expm2(stack.generator[1])
        singular_raw[1, 1] = 0.0
        coeffs = solve_susceptibilities(symmetric_params(8.0), 1.0)
        view = noise_kernels(coeffs, singular_raw, np.array([0.5]))
        block = noise_kernel_block(coeffs, np.array([0.5]))[0]
        assert np.array_equal(_bits(view.p), _bits(block[:, 0].T))
        assert np.array_equal(_bits(view.q), _bits(block[:, 1].T))

    @pytest.mark.parametrize(
        "params",
        [symmetric_params(1e4), SystemParams(alpha=1e4, omega_c=1.5, omega_d=0.8, gamma21=0.02)],
        ids=["symmetric", "asymmetric-dephased"],
    )
    def test_view_is_the_block_where_e_minus_ml_overflows(self, params):
        # off line centre e^{-ML} overflows from alpha near 2,500; the view never reads it
        coeffs = solve_susceptibilities(params, 0.3)
        z = np.linspace(0.0, 1.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = expm2(coupling_matrix(coeffs))
            view = noise_kernels(coeffs, raw, z)
            block = noise_kernel_block(coeffs, z)[0]
        assert not np.isfinite(raw).all()
        assert np.array_equal(_bits(view.p), _bits(block[:, 0].T))
        assert np.array_equal(_bits(view.q), _bits(block[:, 1].T))

    @pytest.mark.parametrize("params", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_both_rows_match_80_digit_mpmath(self, params):
        # e^{-ML} grows like e^{|w|} (|w| = 152 at alpha = 400): the reference has the digits to cancel it
        z = np.array([0.0, 0.5, 1.0])
        stack = solve_susceptibility_stack(params, np.array([0.0, -0.59, 0.3]))
        for row in (0, 1):
            kernels = noise_kernel_block(stack, z)[:, :, row]
            for got, m, zeta in zip(kernels, stack.generator, stack.zeta):
                expected = _mpmath_kernels(m, zeta, z)[:, row]
                assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_nilpotent_closed_form(self):
        # at line center e^{M(z-L)} = I + M(z-L) exactly
        coeffs = solve_susceptibilities(symmetric_params(4.0), 0.0)
        m = coupling_matrix(coeffs)
        raw = expm2(m)
        z = np.linspace(0.0, 1.0, 9)
        kernels = noise_kernels(coeffs, raw, z)
        zeta = coeffs.zeta[0]
        boundary = np.array([[1.0, -raw[0, 1] / raw[1, 1]], [0.0, -1.0 / raw[1, 1]]])
        for i, zi in enumerate(z):
            prop = np.eye(2) + m * (zi - 1.0)
            expected = boundary @ prop @ zeta
            assert np.max(np.abs(kernels.p[:, i] - expected[0])) < 1e-12
            assert np.max(np.abs(kernels.q[:, i] - expected[1])) < 1e-12


def _z_quadrature_gram(stack, row: int, panels: int = 64, nodes: int = 32) -> np.ndarray:
    """sum of K_a K_b* from noise_kernel_block over a composite Gauss-Legendre rule in z, (n, k, k).

    Equal panels of a few nodes each: one rule of many nodes (numpy's
    leggauss at 2048) carries node errors of its own near 1e-11.
    """
    x, weights = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges)[:, None] / 2
    z = (edges[:-1, None] + half * (x + 1)).ravel()
    k = noise_kernel_block(stack, z)[:, :, row]
    return np.einsum("z,nza,nzb->nab", (half * weights).ravel(), k, k.conj())


def _mpmath_pair_integrals(mu: complex, w: complex, pa: complex, pb: complex) -> tuple:
    """int_0^1 u u*, u v* and v v* dt of transfer._pair_integrals, good to 50 digits.

    For w != 0 the closed forms in phi(X) = (1 - e^{-X})/X of the four
    exponentials e^{-(mu +- w) t}, with the digits their 1/w and 1/|w|^2
    cancel added; at w = 0 mpmath quadrature of the integrands.
    """
    mpmath = pytest.importorskip("mpmath")
    extra = 0 if w == 0 else max(0, int(-2 * np.log10(abs(w)))) + 10
    with mpmath.workdps(50 + extra):
        mu, w, pa, pb = (mpmath.mpc(v) for v in (mu, w, pa, pb))

        def phi(x):
            return 1 if x == 0 else -mpmath.expm1(-x) / x

        def u(t):
            return mpmath.exp(pa - mu * t)

        def v(t):
            return mpmath.exp(pb - mu * t) * t

        if w == 0:
            integrals = (
                mpmath.quad(lambda t: abs(u(t)) ** 2, [0, 1]),
                mpmath.quad(lambda t: u(t) * mpmath.conj(v(t)), [0, 1]),
                mpmath.quad(lambda t: abs(v(t)) ** 2, [0, 1]),
            )
        else:
            lam = (mu + w, mu - w)
            y = [[lam[i] + mpmath.conj(lam[j]) for j in range(2)] for i in range(2)]
            integrals = (
                mpmath.exp(2 * mpmath.re(pa)) * phi(y[0][0]),
                mpmath.exp(pa + mpmath.conj(pb)) * (phi(y[0][1]) - phi(y[0][0])) / (2 * mpmath.conj(w)),
                mpmath.exp(2 * mpmath.re(pb))
                * (phi(y[1][1]) - phi(y[1][0]) - phi(y[0][1]) + phi(y[0][0]))
                / (4 * abs(w) ** 2),
            )
        return tuple(complex(x) for x in integrals)


class TestNoiseGram:
    @pytest.mark.parametrize("params", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_matches_z_quadrature_of_the_kernels(self, params):
        stack = solve_susceptibility_stack(params, np.array([0.0, -0.59, 0.3, 2.0, -9.0]))
        for row in (0, 1):
            gram = noise_kernel_gram(stack, row)
            expected = _z_quadrature_gram(stack, row)
            assert gram.shape == expected.shape == (5, 3, 3)
            for got, want in zip(gram, expected):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_without_noise_slots_is_empty_but_checked(self):
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 1.0]))
        empty = replace(stack, zeta=stack.zeta[..., :0])
        assert noise_kernel_gram(empty, 0).shape == (2, 0, 0)
        with pytest.MonkeyPatch.context() as patch:
            _inject_into_core(patch, (1, 1, 1), 1e13)
            with pytest.raises(IllPosedBoundary, match=r"omega=1\.0: \|1/D\| = 1\.000e-13"):
                noise_kernel_gram(empty, 1)

    @pytest.mark.parametrize("row", [-1, 2])
    def test_rejects_a_row_other_than_p_or_q(self, row):
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=rf"^kernel row must be 0 \(P\) or 1 \(Q\), got {row}$"):
            noise_kernel_gram(stack, row)

    def test_rejects_a_non_integer_row_before_any_arithmetic(self, monkeypatch):
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 1.0]))
        calls = []
        propagator = transfer._propagator
        monkeypatch.setattr(transfer, "_propagator", lambda m: calls.append(m) or propagator(m))
        with pytest.raises(TypeError):
            noise_kernel_gram(stack, 1.0)
        assert calls == []

    def test_numpy_integer_row_keeps_the_bits(self):
        stack = solve_susceptibility_stack(SystemParams(alpha=7.0, omega_c=1.5, omega_d=0.8j), np.linspace(-3, 3, 9))
        assert np.array_equal(_bits(noise_kernel_gram(stack, np.int64(1))), _bits(noise_kernel_gram(stack, 1)))

    def test_builds_only_the_rows_asked_for(self):
        stack = solve_susceptibility_stack(SystemParams(alpha=7.0, omega_c=1.5, omega_d=0.8j), np.linspace(-3, 3, 9))
        _, _, both = transfer._kernel_rows(stack)
        for row in (0, 1):
            _, _, rows = transfer._kernel_rows(stack, (row,))
            assert len(rows) == 1
            assert all(np.array_equal(got, want) for got, want in zip(rows[0], both[row]))
        assert transfer._kernel_rows(stack, ())[2] == []

    @pytest.mark.parametrize("mu", [0.0, 0.3 - 1.2j, -1.5 + 0.2j])
    @pytest.mark.parametrize("row", [0, 1], ids=["P", "Q"])
    def test_pair_integrals_through_the_degenerate_point(self, mu, row):
        # |w| from 1e-30 to 10 at phases across the right half plane, and w = 0 exactly
        mags = np.geomspace(1e-30, 10.0, 41)
        w = np.concatenate([[0j], np.multiply.outer(mags, np.exp(1j * np.linspace(-1.5, 1.5, 7))).ravel()])
        mu = np.full(w.shape, complex(mu))
        pa, pb = (np.zeros_like(w), -2 * w) if row == 0 else (mu - w, mu - w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer._pair_integrals(mu, w, pa, pb)
        worst = 0.0
        for n in range(w.size):
            expected = _mpmath_pair_integrals(mu[n], w[n], pa[n], pb[n])
            worst = max(worst, *(abs(g[n] - e) / abs(e) for g, e in zip(got, expected)))
        assert worst <= 1e-13


def _recursive_exp_divided_difference(x: np.ndarray) -> np.ndarray:
    """exp[x_0, ..., x_n] of the rows of x (m, n + 1), one call per level: the recursion the one pass replaced."""
    k = x.shape[1]
    if k == 2:
        first = x[:, 0].real >= x[:, 1].real
        big, small = np.where(first, x[:, 0], x[:, 1]), np.where(first, x[:, 1], x[:, 0])
        d = big - small
        return np.exp(big) * np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d != 0)
    pairs, orders = transfer._FARTHEST[k]
    spread = np.abs(x[:, pairs[:, 1]] - x[:, pairs[:, 0]])
    x = x[np.arange(len(x))[:, None], orders[spread.argmax(axis=1)]]
    near = spread.max(axis=1) < transfer.DD_CLUSTER
    out = np.empty(len(x), dtype=complex)
    far = x[~near]
    last, first = _recursive_exp_divided_difference(np.concatenate([far[:, 1:], far[:, :-1]])).reshape(2, -1)
    out[~near] = (last - first) / (far[:, -1] - far[:, 0])
    centre = x[near].mean(axis=1)
    y = (x[near] - centre[:, None]).T
    h = np.ones_like(y)
    total, coefficient = np.ones_like(centre), 1.0
    for order in range(1, transfer.DD_TERMS):
        h = np.cumsum(y * h, axis=0)
        coefficient /= order + k - 1
        total += coefficient * h[-1]
    out[near] = np.exp(centre) * total / math.factorial(k - 1)
    return out


def _mpmath_exp_divided_difference(points) -> complex:
    """exp[x_0, ..., x_n] from its Taylor series about the mean, summed to convergence at 80 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        x = [mpmath.mpc(complex(p)) for p in points]
        centre = mpmath.fsum(x) / len(x)
        y = [v - centre for v in x]
        h, total, order = [mpmath.mpf(1)] * len(y), 1 / mpmath.factorial(len(y) - 1), 0
        while True:
            order += 1
            h = list(accumulate(yj * hj for yj, hj in zip(y, h)))  # h_order(y_0..y_j)
            term = h[-1] / mpmath.factorial(order + len(y) - 1)
            total += term
            if order > 40 and abs(term) < mpmath.mpf(10) ** -70 * abs(total):
                return complex(mpmath.exp(centre) * total)


def _divided_difference_rows(rng, rows: int, k: int, spreads, complex_rows: bool) -> np.ndarray:
    """``rows`` sets of k points about random centres, each set's offsets scaled to a spread drawn from ``spreads``."""
    offsets = rng.normal(size=(rows, k)) + (1j * rng.normal(size=(rows, k)) if complex_rows else 0)
    offsets -= offsets[:, :1]
    scale = np.abs(offsets[:, :, None] - offsets[:, None, :]).max(axis=(1, 2))
    scale[scale == 0] = 1.0
    centres = rng.normal(scale=3.0, size=(rows, 1)) + (1j * rng.normal(scale=3.0, size=(rows, 1)) if complex_rows else 0)
    return centres + offsets * (rng.choice(spreads, size=rows) / scale)[:, None]


_SPREADS = {
    "mixed": [0.0, 1e-12, 1e-3, 0.2, 0.49, 0.5, 0.51, 0.7, 2.0, 9.0],
    "all_near": [0.0, 1e-9, 0.1, 0.3, 0.45],
    "all_far": [0.55, 1.0, 3.0, 12.0],
}


class TestDividedDifferencePass:
    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("spreads", list(_SPREADS), ids=list(_SPREADS))
    @pytest.mark.parametrize("rows", [(0, 0), (0, 23), (31, 0), (57, 41)], ids=["empty", "4-only", "3-only", "both"])
    def test_bit_for_bit_the_recursion(self, complex_rows, spreads, rows):
        rng = np.random.default_rng([complex_rows, len(_SPREADS[spreads]), *rows])
        x3 = _divided_difference_rows(rng, rows[0], 3, _SPREADS[spreads], complex_rows)
        x4 = _divided_difference_rows(rng, rows[1], 4, _SPREADS[spreads], complex_rows)
        for coincident in (x3[::5], x4[::5]):  # two equal points, and all points equal
            coincident[: len(coincident) // 2, 1] = coincident[: len(coincident) // 2, 0]
            coincident[len(coincident) // 2 :] = coincident[len(coincident) // 2 :, :1]
        got = transfer._exp_divided_differences(x3, x4)
        for value, x in zip(got, (x3, x4)):
            expected = _recursive_exp_divided_difference(x)
            assert value.shape == expected.shape == (len(x),) and value.dtype == expected.dtype
            assert np.array_equal(value.view(np.int64), expected.view(np.int64))

    def test_a_spread_of_exactly_dd_cluster_is_far(self):
        x3 = np.array([[0.0, transfer.DD_CLUSTER, 0.2], [0.0, np.nextafter(transfer.DD_CLUSTER, 0), 0.2]])
        x4 = np.array([[0.0, transfer.DD_CLUSTER, 0.0, 0.25]])
        _, near3 = transfer._farthest_first(x3)
        _, near4 = transfer._farthest_first(x4)
        assert near3.tolist() == [False, True] and near4.tolist() == [False]
        for value, x in zip(transfer._exp_divided_differences(x3, x4), (x3, x4)):
            assert np.array_equal(value.view(np.int64), _recursive_exp_divided_difference(x).view(np.int64))

    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    def test_against_mpmath(self, complex_rows):
        rng = np.random.default_rng(26 + complex_rows)
        spreads = _SPREADS["mixed"] + _SPREADS["all_near"]
        x3, x4 = (_divided_difference_rows(rng, 60, k, spreads, complex_rows) for k in (3, 4))
        x4[::7, 2] = x4[::7, 1]
        worst = 0.0
        for values, x in zip(transfer._exp_divided_differences(x3, x4), (x3, x4)):
            for value, points in zip(values, x):
                expected = _mpmath_exp_divided_difference(points)
                worst = max(worst, abs(value - expected) / abs(expected))
        assert worst <= 1e-14


class TestTaylorTruncation:
    def test_dd_terms_is_the_least_order_the_bound_allows(self):
        # cluster points lie within rho = 3/4 DD_CLUSTER of their centroid, so the sum's real part is at
        # least e^{-rho} cos rho and its order-n term at most rho^n/n!: below half an ulp from DD_TERMS on
        rho = 0.75 * transfer.DD_CLUSTER
        assert math.exp(-rho) * math.cos(rho) >= 0.5
        term = [rho**n / math.factorial(n) for n in (transfer.DD_TERMS - 1, transfer.DD_TERMS)]
        assert term[1] < 2.0**-54 <= term[0]
        x4 = _divided_difference_rows(np.random.default_rng(34), 500, 4, _SPREADS["all_near"], True)
        assert np.abs(x4 - x4.mean(axis=1, keepdims=True)).max() <= rho

    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("spreads", list(_SPREADS), ids=list(_SPREADS))
    def test_more_orders_move_no_real_row(self, monkeypatch, complex_rows, spreads):
        rng = np.random.default_rng([34, complex_rows, len(_SPREADS[spreads])])
        x3, x4 = (_divided_difference_rows(rng, 200, k, _SPREADS[spreads], complex_rows) for k in (3, 4))
        got = transfer._exp_divided_differences(x3, x4)
        seventeen = [list(accumulate(range(k, k + 17), operator.truediv, initial=1.0))[1:] for k in (3, 4)]
        monkeypatch.setattr(transfer, "_TAYLOR", np.array(seventeen).T)
        longer = transfer._exp_divided_differences(x3, x4)
        for value, expected in zip(got, longer):
            if not complex_rows:
                assert np.array_equal(value.view(np.int64), expected.view(np.int64))
            assert np.all(np.abs(value - expected) <= 4e-16 * np.abs(expected))


class TestSingleModeCoefficients:
    def test_transmittance_examples(self):
        tp = [abs(propagation_sweep(symmetric_params(a), [a]).resolved[0, 0, 0]) ** 2 for a in (0.0, 4.0, 200.0)]
        assert tp[0] == pytest.approx(1.0, abs=1e-14)
        assert tp[1] == pytest.approx(0.25, abs=1e-14)
        assert tp[2] == pytest.approx((4 / 204) ** 2, rel=1e-13)

    def test_conversion_efficiency_examples(self):
        ce = [abs(propagation_sweep(symmetric_params(a), [a]).resolved[0, 1, 0]) ** 2 for a in (200.0, 0.0, 12.0)]
        assert ce[0] == pytest.approx((200 / 204) ** 2, rel=1e-13)
        assert ce[1] == 0.0
        assert ce[2] == pytest.approx(0.5625, abs=1e-13)

    def test_closed_forms_across_od_grid(self):
        for alpha in np.linspace(0.0, 400.0, 81):
            p = symmetric_params(float(alpha))
            (a0, _), (c0, _) = propagation_sweep(p, [p.alpha]).resolved[0]
            assert abs(abs(a0) ** 2 - (4 / (4 + alpha)) ** 2) < 1e-12
            assert abs(abs(c0) ** 2 - (alpha / (4 + alpha)) ** 2) < 1e-12

    def test_reciprocity_at_line_center(self):
        for alpha in (0.5, 30.0, 250.0):
            a0, b0, c0, d0 = propagation_sweep(symmetric_params(alpha), [alpha], 0.0).resolved[0].ravel()
            assert abs(a0 - d0) < 1e-13
            assert abs(b0 - c0) < 1e-13

    def test_passivity(self):
        for alpha in np.linspace(0.0, 400.0, 41):
            a0, b0, c0, d0 = propagation_sweep(symmetric_params(float(alpha)), [alpha], 0.0).resolved[0].ravel()
            target = (16 + alpha**2) / (4 + alpha) ** 2
            assert abs(abs(a0) ** 2 + abs(b0) ** 2 - target) < 1e-12
            assert abs(abs(c0) ** 2 + abs(d0) ** 2 - target) < 1e-12
            assert abs(a0) ** 2 + abs(b0) ** 2 <= 1.0 + 1e-12
            if alpha == 0.0:
                assert abs(a0) ** 2 + abs(b0) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_loss_deficit_monotone_beyond_crossover(self):
        alphas = np.linspace(4.0, 400.0, 100)
        resolved = [propagation_sweep(symmetric_params(a), [a]).resolved[0] for a in alphas]
        deficit = [1.0 - abs(r[0, 0]) ** 2 - abs(r[1, 0]) ** 2 for r in resolved]
        assert np.allclose(deficit, 8 * alphas / (4 + alphas) ** 2, atol=1e-12)
        assert np.all(np.diff(deficit) < 0)


#: Slabs (A, B, C, D) as (4, 1) columns: no medium, and a perfect mirror (B = C = 1).
_EMPTY = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)
_MIRROR = np.array([[0.0], [1.0], [1.0], [0.0]], dtype=complex)


class TestSemiclassical:
    def test_matches_quantum_at_crossover(self):
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(4.0), [4.0]))
        tp, ce = np.abs(sweep.resolved[0, :, 0]) ** 2
        assert tp == pytest.approx(0.25, abs=1e-9)
        assert ce == pytest.approx(0.25, abs=1e-9)

    def test_empty_medium(self):
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(0.0), [0.0]))
        tp, ce = np.abs(sweep.resolved[0, :, 0]) ** 2
        assert tp == pytest.approx(1.0, abs=1e-12)
        assert ce == pytest.approx(0.0, abs=1e-12)

    def test_high_od(self):
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(200.0), [200.0]))
        tp, ce = np.abs(sweep.resolved[0, :, 0]) ** 2
        assert tp == pytest.approx((4 / 204) ** 2, abs=1e-6)
        assert ce == pytest.approx((200 / 204) ** 2, abs=1e-6)

    def test_agrees_with_quantum_on_sample_grid(self):
        for alpha in (0.0, 1.0, 7.0, 63.0, 311.0):
            p = symmetric_params(alpha)
            classical = semiclassical_sweep(propagation_sweep(p, [p.alpha]))
            (a0, _), (c0, _) = propagation_sweep(p, [p.alpha]).resolved[0]
            assert abs(np.abs(classical.resolved[0, 0, 0]) ** 2 - abs(a0) ** 2) < 1e-6
            assert abs(np.abs(classical.resolved[0, 1, 0]) ** 2 - abs(c0) ** 2) < 1e-6

    def test_shooting_failure_guard(self, monkeypatch):
        # a perfect mirror facing itself makes the first squaring singular; seeds are changes from the empty slab
        monkeypatch.setattr(transfer, "_seed_slabs", lambda m, widths: (_MIRROR - _EMPTY) * np.ones(widths.size))
        failure = semiclassical_sweep(propagation_sweep(symmetric_params(4.0), [4.0])).failure
        assert isinstance(failure, IllPosedBoundary)
        assert str(failure) == "at alpha=4.0: imbedding singular: |1 - B C| = 0.000e+00"

    def test_asymmetric_parameters_still_consistent(self):
        # no closed form here; quantum matrix route and the BVP must agree
        p = SystemParams(alpha=30.0, omega_c=1.5, omega_d=0.9, gamma31=1.2, gamma41=0.8, gamma21=0.01)
        classical = semiclassical_sweep(propagation_sweep(p, [p.alpha]))
        (a0, _), (c0, _) = propagation_sweep(p, [p.alpha]).resolved[0]
        assert abs(np.abs(classical.resolved[0, 0, 0]) ** 2 - abs(a0) ** 2) < 1e-8
        assert abs(np.abs(classical.resolved[0, 1, 0]) ** 2 - abs(c0) ** 2) < 1e-8


def _re_solved(raw: np.ndarray, trace: complex) -> np.ndarray:
    """The boundary form of a reference e^{-ML}, with det e^{-ML} = e^{-tr(ML)}."""
    d = raw[1, 1]
    return np.array([[np.exp(-trace) / d, raw[0, 1] / d], [-raw[1, 0] / d, 1.0 / d]], dtype=complex)


def _per_point_resolved(params: SystemParams, omega: float) -> np.ndarray:
    """The raw-matrix pipeline one optical depth at a time: 3x3 solve, expm2, scalar boundary re-solve."""
    m = coupling_matrix(solve_susceptibilities(params, omega))
    return _re_solved(expm2(m), m[0, 0] + m[1, 1])


def _random_symmetric(rng) -> SystemParams:
    return symmetric_params(0.0, rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))


_ASYMMETRIC = [
    SystemParams(alpha=0.0, omega_c=1.5, omega_d=0.8),
    SystemParams(alpha=0.0, omega_c=1.2, omega_d=1.0, gamma21=0.01),
    SystemParams(alpha=0.0, omega_c=1.5, omega_d=0.9, gamma31=1.2, gamma41=0.8, gamma21=0.01),
    SystemParams(alpha=0.0, omega_d=2.0),
]


def _assert_rows_match_per_point_route(params: SystemParams, alphas: np.ndarray, omega: float) -> None:
    """Sweep rows against the raw-matrix route to 1e-13, and bit for bit against the one-row view."""
    sweep = propagation_sweep(params, alphas, omega)
    assert sweep.failure is None
    assert sweep.resolved.shape == (len(alphas), 2, 2)
    for alpha, resolved in zip(alphas, sweep.resolved):
        point = replace(params, alpha=float(alpha))
        expected = _per_point_resolved(point, omega)
        assert np.max(np.abs(resolved - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.array_equal(resolved, propagation_sweep(point, [point.alpha], omega).resolved[0])


class TestPropagationSweep:
    @pytest.mark.parametrize("omega", [0.0, 0.37, -2.5])
    def test_symmetric_rows_match_per_point_route(self, omega):
        rng = np.random.default_rng(11)
        for _ in range(4):
            _assert_rows_match_per_point_route(_random_symmetric(rng), np.linspace(0.0, 400.0, 41), omega)

    @pytest.mark.parametrize("params", _ASYMMETRIC)
    @pytest.mark.parametrize("omega", [0.0, 0.37])
    def test_asymmetric_and_dephased_rows_match_per_point_route(self, params, omega):
        # below the optical depth where the raw route's e^{-ML} overflows
        _assert_rows_match_per_point_route(params, np.linspace(0.0, 400.0, 41), omega)

    @pytest.mark.parametrize("alpha", [0.0, 4.0])
    def test_single_point_grid(self, alpha):
        params = symmetric_params(alpha)
        sweep = propagation_sweep(params, [alpha])
        expected = np.array([[4.0, alpha], [alpha, 4.0]]) / (4.0 + alpha)
        assert np.max(np.abs(sweep.resolved[0] - expected)) < 1e-15

    def test_rows_stop_at_the_first_failing_optical_depth(self, monkeypatch):
        # a core that puts a backward resonance (|1/D| = 1e-13) on every row beyond alpha = 4500
        params = SystemParams(alpha=0.0, omega_d=2.0)
        unit = np.max(np.abs(generator_grid(params, [1.0])))
        core = transfer._scattering

        def resonant_core(m):
            resolved = core(m)
            resolved[np.max(np.abs(m), axis=(1, 2)) > 4500 * unit, 1, 1] = 1e13
            return resolved

        monkeypatch.setattr(transfer, "_scattering", resonant_core)
        sweep = propagation_sweep(params, [0.0, 4000.0, 5000.0, 20000.0, 1.0])
        assert isinstance(sweep.failure, IllPosedBoundary)
        assert str(sweep.failure) == "at alpha=5000.0: |1/D| = 1.000e-13 below 1e-12"
        assert list(sweep.alphas) == [0.0, 4000.0]
        assert sweep.resolved.shape == (2, 2, 2)
        assert np.isfinite(sweep.resolved).all()

    def test_singular_response_names_the_first_optical_depth(self):
        with pytest.raises(SingularSystem, match=r"^at alpha=3\.0: .*omega=0\.0"):
            propagation_sweep(SystemParams(alpha=0.0, omega_c=0.0, omega_d=0.0), [3.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_optical_depth_is_rejected(self, bad):
        # named like a non-finite SystemParams field, before any arithmetic can warn or fail a row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteParameter, match=rf"^optical depth must be finite, got {bad}$"):
                propagation_sweep(symmetric_params(1.0), [0.0, 5.0, bad, 7.0, np.nan, -2.0])

    def test_negative_optical_depth_is_rejected(self):
        with pytest.raises(NegativeOD):
            propagation_sweep(symmetric_params(1.0), [1.0, -2.0])
        with pytest.raises(ValueError, match=r"^optical depths must form a 1-D grid, got shape \(1, 2\)$"):
            propagation_sweep(symmetric_params(1.0), [[0.0, 4.0]])


_INVARIANT_CONFIGS = [
    symmetric_params(0.0),
    symmetric_params(0.0, 1.7 * np.exp(2.1j)),
    *_ASYMMETRIC,
    SystemParams(alpha=0.0, gamma21=0.01),
]
_INVARIANT_IDS = ["symmetric", "symmetric-phase", "asymmetric", "dephased", "mixed", "omega_d=2", "gamma21"]
_INVARIANT_OMEGAS = [0.0, 0.3, -1.0]
_LARGE_OD_GRID = np.concatenate([np.linspace(0.0, 400.0, 41), np.geomspace(500.0, 1e6, 21)])
#: Up to here scipy.linalg.expm holds 1e-12 on these generators.  Its scaling and
#: squaring loses about eps |ML|^2 on the defective line-centre ones beyond
#: (3.5e-7 at alpha = 1e6), so the larger rows are checked against mpmath.
_SCIPY_ALPHA_MAX = 1000.0


def _mpmath_resolved(m: np.ndarray) -> np.ndarray:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        raw = mpmath.expm(-mpmath.matrix(m.tolist()))
        trace = mpmath.mpc(m[0, 0]) + mpmath.mpc(m[1, 1])
        d = raw[1, 1]
        resolved = [[mpmath.exp(-trace) / d, raw[0, 1] / d], [-raw[1, 0] / d, 1 / d]]
        return np.array([[complex(x) for x in row] for row in resolved])


class TestScatteringInvariants:
    @pytest.mark.parametrize("omega", _INVARIANT_OMEGAS)
    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_rows_are_finite_and_passive_up_to_the_largest_optical_depth(self, params, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = propagation_sweep(params, _LARGE_OD_GRID, omega)
        assert sweep.failure is None
        r = sweep.resolved
        assert np.isfinite(r).all()
        assert np.max(np.abs(r[:, 0, 0]) ** 2 + np.abs(r[:, 1, 0]) ** 2) <= 1.0 + 1e-12
        assert np.max(np.abs(r[:, 0, 1]) ** 2 + np.abs(r[:, 1, 1]) ** 2) <= 1.0 + 1e-12

    @pytest.mark.parametrize("omega", _INVARIANT_OMEGAS)
    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_noise_kernels_are_finite_up_to_the_largest_optical_depth(self, params, omega):
        z = np.linspace(0.0, 1.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in _LARGE_OD_GRID:
                stack = solve_susceptibility_stack(replace(params, alpha=alpha), [omega])
                assert np.isfinite(noise_kernel_block(stack, z)).all(), alpha

    @pytest.mark.parametrize("omega", _INVARIANT_OMEGAS)
    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_noise_gram_is_finite_up_to_the_largest_optical_depth(self, params, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in _LARGE_OD_GRID:
                stack = solve_susceptibility_stack(replace(params, alpha=alpha), [omega])
                for row in (0, 1):
                    gram = noise_kernel_gram(stack, row)[0]
                    assert np.isfinite(gram).all(), (alpha, row)
                    assert np.min(np.diag(gram).real) >= 0.0, (alpha, row)

    @pytest.mark.parametrize("omega", _INVARIANT_OMEGAS)
    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_rows_match_the_expm_route_wherever_it_is_finite(self, params, omega):
        sweep = propagation_sweep(params, _LARGE_OD_GRID, omega)
        generators = generator_grid(params, _LARGE_OD_GRID, omega)
        compared = 0
        for alpha, m, resolved in zip(_LARGE_OD_GRID, generators, sweep.resolved):
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                raw = scipy.linalg.expm(-m)
            if not np.isfinite(raw).all():
                continue
            if alpha <= _SCIPY_ALPHA_MAX:
                expected = _re_solved(raw, m[0, 0] + m[1, 1])
            else:
                expected = _mpmath_resolved(m)
            # near the defective line-centre case the resolved matrix moves by about eps |ML|
            # (relative) under the rounding the float generator already carries
            tol = max(1e-12, np.finfo(float).eps * np.max(np.abs(m)))
            assert np.max(np.abs(resolved - expected)) <= tol * np.max(np.abs(expected)), alpha
            compared += 1
        assert compared >= 44  # the whole linear part and a few rows beyond

    def test_commutator_closure_at_every_frequency(self):
        # per frequency 1 - |A|^2 - |B|^2 = sum_a Gamma_a G^P_aa and 1 - |C|^2 - |D|^2 = sum_a Gamma_a G^Q_aa,
        # Gamma = (gamma21, gamma31, gamma41) in NOISE_INDICES order: the output fields keep [a, a^H] = 1
        rng = np.random.default_rng(2024)
        rising = np.geomspace(1e-7, 30.0, 30)
        omegas = np.concatenate([-rising[::-1], [0.0], rising])
        alphas = np.concatenate([[0.0], 10.0 ** rng.uniform(-2.0, 6.0, 199)])
        worst = 0.0
        for alpha in alphas:
            rabi_c, rabi_d = rng.uniform(0.1, 5.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            gamma31, gamma41 = rng.uniform(0.2, 2.0, 2)
            gamma21 = 10.0 ** rng.uniform(-4.0, np.log10(0.3)) if rng.uniform() < 0.5 else 0.0
            params = SystemParams(alpha, rabi_c, rabi_d, gamma31, gamma41, gamma21)
            stack = solve_susceptibility_stack(params, omegas)
            s = transfer._scattering(stack.generator * LENGTH)
            decay = np.array([gamma21, gamma31, gamma41])
            for row in (0, 1):
                kept = 1 - np.abs(s[:, row, 0]) ** 2 - np.abs(s[:, row, 1]) ** 2
                added = np.diagonal(noise_kernel_gram(stack, row), axis1=1, axis2=2).real @ decay
                worst = max(worst, np.max(np.abs(kept - added)) / (1 + alpha))
        assert worst <= 1e-14

    def test_a_common_rabi_phase_leaves_the_scattering_matrix_unchanged(self):
        # one phase on both Rabi fields maps the drift to U drift U^H with U = diag(e^{i phi}, 1, 1),
        # which leaves the [1:, 1:] block of its inverse, and so M, unchanged
        rng = np.random.default_rng(2025)
        worst = 0.0
        for _ in range(200):
            rabi_c, rabi_d = rng.uniform(0.1, 5.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            gamma31, gamma41 = rng.uniform(0.2, 2.0, 2)
            gamma21 = rng.uniform(1e-4, 0.3) if rng.uniform() < 0.5 else 0.0
            omega = rng.uniform(-30.0, 30.0) if rng.uniform() < 0.5 else 0.0
            alphas = np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(-2.0, 6.0, 8))])
            turn = np.exp(2j * np.pi * rng.uniform())
            sweeps = [
                propagation_sweep(SystemParams(0.0, c, d, gamma31, gamma41, gamma21), alphas, omega)
                for c, d in ((rabi_c, rabi_d), (turn * rabi_c, turn * rabi_d))
            ]
            assert (sweeps[0].failure is None) == (sweeps[1].failure is None)
            assert sweeps[0].resolved.shape == sweeps[1].resolved.shape
            change = np.abs(sweeps[1].resolved - sweeps[0].resolved).max(axis=(1, 2), initial=0.0)
            worst = max(worst, np.max(change / (1 + sweeps[0].alphas), initial=0.0))
        assert worst <= 1e-14


class TestSemiclassicalSweep:
    def test_matches_one_point_view(self):
        for params in [symmetric_params(0.0, 1.7 * np.exp(2.1j)), *_ASYMMETRIC]:
            alphas = np.linspace(0.0, 400.0, 21)
            sweep = semiclassical_sweep(propagation_sweep(params, alphas))
            assert sweep.failure is None
            tps, ces = np.abs(sweep.resolved[:, 0, 0]) ** 2, np.abs(sweep.resolved[:, 1, 0]) ** 2
            for alpha, tp, ce in zip(alphas, tps, ces):
                one = semiclassical_sweep(propagation_sweep(replace(params, alpha=float(alpha)), [alpha]))
                assert abs(tp - np.abs(one.resolved[0, 0, 0]) ** 2) < 1e-10
                assert abs(ce - np.abs(one.resolved[0, 1, 0]) ** 2) < 1e-10

    def test_grid_order_and_repeats_do_not_matter(self):
        params = symmetric_params(0.0, 1.3)
        shuffled = np.array([300.0, 4.0, 0.0, 300.0, 17.5])
        sweep = semiclassical_sweep(propagation_sweep(params, shuffled))
        ordered = semiclassical_sweep(propagation_sweep(params, np.sort(shuffled)))
        order = np.argsort(shuffled, kind="stable")
        assert np.array_equal(np.abs(sweep.resolved[order, 0, 0]) ** 2, np.abs(ordered.resolved[:, 0, 0]) ** 2)
        assert np.array_equal(np.abs(sweep.resolved[order, 1, 0]) ** 2, np.abs(ordered.resolved[:, 1, 0]) ** 2)

    def test_zero_grid_needs_no_integration(self, monkeypatch):
        monkeypatch.setattr(transfer, "_seed_slabs", None)  # any call would fail
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(0.0), [0.0, 0.0]))
        assert list(np.abs(sweep.resolved[:, 0, 0]) ** 2) == [1.0, 1.0]
        assert list(np.abs(sweep.resolved[:, 1, 0]) ** 2) == [0.0, 0.0]

    def test_single_point_crossover(self):
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(0.0), [4.0]))
        assert np.abs(sweep.resolved[0, 0, 0]) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert np.abs(sweep.resolved[0, 1, 0]) ** 2 == pytest.approx(0.25, abs=1e-12)

    def test_largest_optical_depth_stays_on_the_quantum_columns(self):
        alphas = np.linspace(0.0, 1e6, 401)
        rng = np.random.default_rng(23)
        for _ in range(3):
            params = _random_symmetric(rng)
            quantum = propagation_sweep(params, alphas)
            classical = semiclassical_sweep(propagation_sweep(params, alphas))
            assert quantum.failure is None and classical.failure is None
            tp = np.abs(quantum.resolved[:, 0, 0]) ** 2
            ce = np.abs(quantum.resolved[:, 1, 0]) ** 2
            assert np.max(np.abs(np.abs(classical.resolved[:, 0, 0]) ** 2 - tp)) <= 1e-6
            assert np.max(np.abs(np.abs(classical.resolved[:, 1, 0]) ** 2 - ce)) <= 1e-6
            assert np.max(np.abs(ce - (alphas / (4 + alphas)) ** 2)) <= 1e-12

    def test_shooting_failure_names_the_first_singular_row(self, monkeypatch):
        # gaps of 5 are empty slabs and gaps of 10 perfect mirrors: two mirrors in a row are singular
        def slabs(m, gaps):
            mirror = np.where(gaps[None, :] >= 10.0, _MIRROR - _EMPTY, 0.0)
            return _EMPTY + mirror, np.ones(gaps.size)

        monkeypatch.setattr(transfer, "_slabs", slabs)
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(0.0), [0.0, 5.0, 15.0, 25.0, 30.0]))
        assert isinstance(sweep.failure, IllPosedBoundary)
        assert str(sweep.failure) == "at alpha=25.0: imbedding singular: |1 - B C| = 0.000e+00"
        assert list(sweep.alphas) == [0.0, 5.0, 15.0]
        assert list(np.abs(sweep.resolved[:, 0, 0]) ** 2) == [1.0, 1.0, 0.0]
        assert list(np.abs(sweep.resolved[:, 1, 0]) ** 2) == [0.0, 0.0, 1.0]

    def test_non_finite_slab_names_its_row(self, monkeypatch):
        def slabs(m, gaps):
            return np.where(gaps[None, :] >= 10.0, np.nan, _EMPTY), np.ones(gaps.size)

        monkeypatch.setattr(transfer, "_slabs", slabs)
        sweep = semiclassical_sweep(propagation_sweep(symmetric_params(0.0), [0.0, 5.0, 15.0]))
        assert str(sweep.failure) == "at alpha=15.0: the imbedding gave no finite scattering matrix"
        assert list(sweep.alphas) == [0.0, 5.0]

    def test_star_product_composes_the_quantum_rows(self):
        # the slab of a + b is the slab of a followed by the slab of b, checked on the independent
        # quantum route; squaring the change from (1, 0, 0, 1) is the same product
        for params in _INVARIANT_CONFIGS:
            slabs = propagation_sweep(params, [45.0, 90.0]).resolved.reshape(-1, 4).T  # (A, B, C, D) columns
            star, pivot = transfer._star(slabs[:, :1], slabs[:, :1])
            assert np.max(np.abs(star[:, 0] - slabs[:, 1])) <= 1e-13
            assert pivot[0] > transfer.BOUNDARY_TOL
            change, square_pivot = transfer._square(slabs[:, :1] - _EMPTY)
            assert np.max(np.abs(change[:, 0] + _EMPTY[:, 0] - slabs[:, 1])) <= 1e-13
            assert square_pivot[0] == pytest.approx(pivot[0], rel=1e-15)

    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_complex_matrices_match_the_quantum_route(self, params):
        # every entry of [[A, B], [C, D]] with its phase, not only |A|^2 and |C|^2
        for alphas, tol in ((np.linspace(0.0, 400.0, 401), 1e-12), (_LARGE_OD_GRID, 1e-13 * (1 + _LARGE_OD_GRID))):
            quantum = propagation_sweep(params, alphas)
            classical = semiclassical_sweep(propagation_sweep(params, alphas))
            assert quantum.failure is None and classical.failure is None
            assert classical.resolved.shape == (alphas.size, 2, 2)
            assert np.all(np.max(np.abs(classical.resolved - quantum.resolved), axis=(1, 2)) <= tol)

    @pytest.mark.parametrize("omega", [0.01, 0.3, -0.7])
    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_complex_matrices_match_the_quantum_route_off_line_centre(self, params, omega):
        # the oracle scales the sweep's own generator, so it follows the sweep's omega
        for alphas in (np.linspace(0.0, 400.0, 401), _LARGE_OD_GRID):
            quantum = propagation_sweep(params, alphas, omega)
            classical = semiclassical_sweep(quantum)
            assert quantum.failure is None and classical.failure is None
            gap = np.max(np.abs(classical.resolved - quantum.resolved), axis=(1, 2))
            assert np.all(gap <= 1e-13 * (1 + alphas)), np.max(gap / (1 + alphas))

    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_gap_to_the_quantum_columns_on_the_default_grid(self, params):
        alphas = np.linspace(0.0, 400.0, 401)
        quantum = propagation_sweep(params, alphas).resolved
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classical = semiclassical_sweep(propagation_sweep(params, alphas))
        assert classical.failure is None
        assert np.max(np.abs(np.abs(classical.resolved[:, 0, 0]) ** 2 - np.abs(quantum[:, 0, 0]) ** 2)) <= 1e-9
        assert np.max(np.abs(np.abs(classical.resolved[:, 1, 0]) ** 2 - np.abs(quantum[:, 1, 0]) ** 2)) <= 1e-9

    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_gap_to_the_quantum_columns_up_to_the_largest_optical_depth(self, params):
        alphas = np.concatenate([_LARGE_OD_GRID, np.linspace(0.0, 1e6, 401)])
        quantum = propagation_sweep(params, alphas).resolved
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classical = semiclassical_sweep(propagation_sweep(params, alphas))
        assert classical.failure is None
        tp, ce = np.abs(classical.resolved[:, 0, 0]) ** 2, np.abs(classical.resolved[:, 1, 0]) ** 2
        assert np.isfinite(tp).all() and np.isfinite(ce).all()
        assert np.max(tp + ce) <= 1.0 + 1e-9
        tq = np.abs(quantum[:, 0, 0]) ** 2
        assert np.max(np.abs(tp - tq)) <= 1e-6
        assert np.max(np.abs(ce - np.abs(quantum[:, 1, 0]) ** 2)) <= 1e-6
        # a wide slab is squared whole, so a vanishing transmittance keeps its digits too
        tiny = (tq > 1e-290) & (tq < 1e-30)
        assert np.all(np.abs(tp[tiny] - tq[tiny]) <= 1e-9 * tq[tiny])


#: Float (4, 1) column of the empty slab, as the reference imbedding below adds it.
_EMPTY_COLUMN = np.array([[1.0], [0.0], [0.0], [1.0]])


def _reference_rates(m, slabs):
    (m11, m12), (m21, m22) = m
    a, b, _, d = slabs
    return np.array([a * (m21 * b - m11), (m21 * b + m22 - m11) * b - m12, m21 * a * d, d * (m21 * b + m22)])


def _reference_seed_slabs(m, widths):
    k1 = _reference_rates(m, _EMPTY_COLUMN)
    k2 = _reference_rates(m, _EMPTY_COLUMN + widths / 2 * k1)
    k3 = _reference_rates(m, _EMPTY_COLUMN + widths / 2 * k2)
    k4 = _reference_rates(m, _EMPTY_COLUMN + widths * k3)
    return widths / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _reference_star(first, second):
    a1, b1, c1, d1 = first
    a2, b2, c2, d2 = second
    den = 1 - b1 * c2
    return np.array([a2 * a1 / den, b2 + a2 * b1 * d2 / den, c1 + d1 * c2 * a1 / den, d1 * d2 / den]), np.abs(den)


def _reference_square(change):
    a, b, c, d = change
    bc = b * c
    den = 1 - bc
    both = (den + (1 + a) * (1 + d)) / den
    return np.array([(a * (2 + a) + bc) / den, b * both, c * both, (d * (2 + d) + bc) / den]), np.abs(den)


def _reference_slabs(m, gaps):
    change, pivot = np.zeros((4, gaps.size), dtype=complex), np.ones(gaps.size)
    k = np.zeros(gaps.size, dtype=int)
    if gaps.any():
        depth = np.fmax(np.ldexp(np.abs(m).max() * gaps, transfer.THIN_DOUBLINGS), 1.0)
        k = np.where(np.isfinite(depth), np.ceil(np.log2(depth)), 0).astype(int)
        change = _reference_seed_slabs(m, np.ldexp(gaps, -k))
    thin = min(k.max(initial=0), transfer.THIN_DOUBLINGS)
    for doubling in range(thin):
        wider = k > doubling
        change[:, wider], den = _reference_square(change[:, wider])
        pivot[wider] = np.fmin(pivot[wider], den)
    slabs = change + _EMPTY_COLUMN
    for doubling in range(thin, k.max(initial=0)):
        wider = k > doubling
        slabs[:, wider], den = _reference_star(slabs[:, wider], slabs[:, wider])
        pivot[wider] = np.fmin(pivot[wider], den)
    return slabs, pivot


def _reference_cumulative_star(slabs, pivot):
    slabs, pivot = slabs.copy(), pivot.copy()
    offset = 1
    while offset < slabs.shape[1]:
        joined, den = _reference_star(slabs[:, :-offset], slabs[:, offset:])
        pivot[offset:] = np.fmin(np.fmin(pivot[:-offset], pivot[offset:]), den)
        slabs[:, offset:] = joined
        offset *= 2
    return slabs, pivot


def _reference_imbedding(params: SystemParams, alphas: np.ndarray) -> tuple[np.ndarray, int]:
    """Every row (n, 2, 2) of the reference imbedding on a finite grid, and how many precede the first that fails.

    The imbedding as it was written before its kernels took preallocated output stacks: each
    product a fresh np.array of four rows, each squaring on a masked copy of its columns, each
    scan round copied back.  semiclassical_sweep must give the same bits.
    """
    m = solve_susceptibility_stack(replace(params, alpha=1.0), [0.0]).generator[0] * LENGTH
    times, row_of = np.unique(alphas, return_inverse=True)
    gaps, gap_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slabs, pivot = _reference_slabs(m, gaps)
        slabs, pivot = _reference_cumulative_star(slabs[:, gap_of], pivot[gap_of])
    rows, pivot = slabs[:, row_of].T.reshape(-1, 2, 2), pivot[row_of]
    bad = (pivot < transfer.BOUNDARY_TOL) | ~np.isfinite(rows).all(axis=(1, 2))
    return rows, int(np.argmax(bad)) if bad.any() else alphas.size


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


_BIT_RNG = np.random.default_rng(3217)
_BIT_GRIDS = {
    "default": np.linspace(0.0, 400.0, 401),
    "fine": np.linspace(0.0, 7.3, 97),
    "largest": np.linspace(0.0, 1e6, 401),
    "log-uniform": np.concatenate([[0.0], 10.0 ** _BIT_RNG.uniform(-2.0, 6.0, 60)]),
    "unsorted-repeats": np.array([300.0, 4.0, 0.0, 300.0, 17.5, 4.0, 1e5, 0.0, 2.5, 17.5]),
    "all-zero": np.zeros(4),
    "single": np.array([42.0]),
    "single-zero": np.array([0.0]),
    "overflowing-gap": np.array([0.0, 5.0, 1e306, 2.5]),
}
_BIT_CONFIGS = [*_INVARIANT_CONFIGS] + [
    SystemParams(0.0, *(_BIT_RNG.uniform(0.1, 5.0, 2) * np.exp(2j * np.pi * _BIT_RNG.uniform(size=2))),
                 *_BIT_RNG.uniform(0.2, 2.0, 2), _BIT_RNG.uniform(1e-4, 0.3))
    for _ in range(6)
]
_BIT_IDS = _INVARIANT_IDS + [f"random-dephased-{k}" for k in range(6)]


class TestImbeddingBits:
    """Both sweeps keep every bit of the reference routes (int64 views)."""

    @pytest.mark.parametrize("params", _BIT_CONFIGS, ids=_BIT_IDS)
    def test_sweeps_keep_the_reference_bits(self, params):
        # a single-column grid catches in-place multiplies: numpy runs a one-element a *= b
        # through its reduction loop, which rounds a complex product differently
        m = solve_susceptibility_stack(replace(params, alpha=1.0), [0.0]).generator[0] * LENGTH
        for name, alphas in _BIT_GRIDS.items():
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                scattered = transfer._scattering(alphas[:, None, None] * m)
            quantum = propagation_sweep(params, alphas)
            assert np.array_equal(_bits(quantum.generator), _bits(m)), name
            assert np.array_equal(_bits(quantum.resolved), _bits(scattered[: quantum.alphas.size])), name
            # the imbedding on every row of the grid, past any row the quantum route fails
            rows, solved = _reference_imbedding(params, alphas)
            classical = semiclassical_sweep(PropagationSweep(alphas, scattered, None, m))
            assert classical.alphas.size == solved, name
            assert np.array_equal(_bits(classical.resolved), _bits(rows[:solved])), name
            # on the quantum sweep itself it covers the rows that sweep solved
            rows, solved = _reference_imbedding(params, quantum.alphas)
            classical = semiclassical_sweep(quantum)
            assert classical.alphas.size == solved, name
            assert np.array_equal(_bits(classical.resolved), _bits(rows[:solved])), name

    def test_semiclassical_route_stops_with_the_quantum_one(self, monkeypatch):
        # a core that puts a backward resonance on the fourth row: the imbedding runs on the three before it
        params, alphas, core = _BIT_CONFIGS[-1], np.array([0.0, 300.0, 4.0, 50.0, 17.5, 300.0]), transfer._scattering

        def resonant_core(m):
            resolved = core(m)
            resolved[3, 1, 1] = 1e13
            return resolved

        monkeypatch.setattr(transfer, "_scattering", resonant_core)
        quantum = propagation_sweep(params, alphas)
        classical = semiclassical_sweep(quantum)
        assert str(quantum.failure) == "at alpha=50.0: |1/D| = 1.000e-13 below 1e-12"
        assert classical.failure is None and list(classical.alphas) == [0.0, 300.0, 4.0]
        rows, solved = _reference_imbedding(params, alphas[:3])
        assert solved == 3 and np.array_equal(_bits(classical.resolved), _bits(rows))

    def test_overflowing_widths_are_left_as_seeds(self):
        # |m| g overflows for the two widest gaps (k = 0): the squarings stop before them
        m = np.array([[1e3 + 2j, -3.0], [0.5j, -1e3]])
        gaps = np.array([0.0, 0.5, 3.0, 2e305, 1e307])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slabs, pivot = transfer._slabs(m, gaps)
            reference, reference_pivot = _reference_slabs(m, gaps)
        assert np.array_equal(_bits(slabs), _bits(reference))
        assert np.array_equal(_bits(pivot), _bits(reference_pivot))


_RABI = st.builds(lambda r, t: r * np.exp(1j * t), st.floats(0.1, 5.0), st.floats(-np.pi, np.pi))


@settings(max_examples=200)
@given(
    omega_c=_RABI,
    omega_d=_RABI,
    gamma31=st.floats(0.2, 2.0),
    gamma41=st.floats(0.2, 2.0),
    gamma21=st.one_of(st.just(0.0), st.floats(1e-4, 0.3)),
    exponents=st.lists(st.floats(-2.0, 6.0), max_size=8),
)
def test_the_two_routes_agree_on_the_complex_matrix(omega_c, omega_d, gamma31, gamma41, gamma21, exponents):
    # the imbedding oracle against the quantum core: 0 plus up to 8 depths log-uniform in [1e-2, 1e6]
    params = SystemParams(0.0, omega_c, omega_d, gamma31, gamma41, gamma21)
    alphas = np.concatenate([[0.0], 10.0 ** np.array(exponents)])
    quantum = propagation_sweep(params, alphas)
    classical = semiclassical_sweep(propagation_sweep(params, alphas))
    assert quantum.failure is None and classical.failure is None
    gap = np.max(np.abs(quantum.resolved - classical.resolved), axis=(1, 2))
    assert np.all(gap <= 1e-13 * (1 + alphas)), np.max(gap / (1 + alphas))


class TestKernelBlockNodes:
    @pytest.mark.parametrize(
        "z_grid, named",
        [([0.0, 1.0, 2.0, 50.0], "2.0"), ([0.5, np.nan, 0.2], "nan"), ([-1e-300, 0.5], "-1e-300"), ([np.inf], "inf")],
        ids=["beyond-L", "nan", "below-0", "inf"],
    )
    def test_a_node_outside_the_medium_is_rejected_before_the_boundary_check(self, monkeypatch, z_grid, named):
        checks = []
        monkeypatch.setattr(transfer, "_propagator", lambda m: checks.append(m))
        stack = solve_susceptibility_stack(symmetric_params(8.0), np.array([0.0, 0.3]))
        message = rf"^z nodes must be finite and lie in \[0, {LENGTH}\], got {named}$"
        with pytest.raises(ValueError, match=message):
            noise_kernel_block(stack, z_grid)
        with pytest.raises(ValueError, match=message):
            noise_kernels(stack, None, z_grid)
        assert checks == []

    @pytest.mark.parametrize(
        "z_grid, digest",
        [
            (np.linspace(0.0, LENGTH, 257), "2751a8ccc2d3c409c0ce89cdfe00e29d696c8c80f88d40e724d70897655a9d02"),
            (np.array([LENGTH, 0.0, 0.25]), "479cadabb500011b50e29f747d8d532f0636daac52f9ab9c2b58dab652e04b8a"),
        ],
        ids=["uniform-257", "ends-and-inside"],
    )
    def test_nodes_on_the_medium_keep_their_bits(self, z_grid, digest):
        # the sha256 of the block's bytes before its nodes were checked: the check moves no bit
        stack = solve_susceptibility_stack(SystemParams(6.0, omega_c=1.5, omega_d=0.8j, gamma21=0.02), [0.0, -0.4, 3.0])
        assert hashlib.sha256(noise_kernel_block(stack, z_grid).tobytes()).hexdigest() == digest
