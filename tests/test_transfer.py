import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from eitqfc import transfer
from eitqfc.errors import IllPosedBoundary, NegativeOD, NonFiniteParameter, SingularSystem
from eitqfc.params import SystemParams, symmetric_params
from eitqfc.spectral import solve_susceptibilities, solve_susceptibility_stack
from eitqfc.transfer import (
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
    _, failure = transfer._first_failure(np.zeros(1), transfer._solvable(resolved))
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
        n, failure = transfer._first_failure(np.array([0.0, 0.5, 1.0, 2.0]), checks, "omega")
        assert n == 1
        assert str(failure) == "at omega=0.5: |1/D| = 1.000e-13 below 1e-12"
        n, failure = transfer._first_failure(np.array([0.0, 0.5, 1.0, 2.0]), checks[:1])
        assert (n, str(failure)) == (2, "at alpha=1.0: the resolved matrix is not finite")
        assert transfer._first_failure(np.zeros(4), checks[:0]) == (4, None)

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
        for row in (0, 1):
            one_row = noise_kernel_block(stack, z, row)
            assert np.max(np.abs(one_row - block[:, :, row])) < 1e-15 * np.max(np.abs(block))
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
        assert noise_kernel_block(empty, z, 1).shape == (2, 5, 0)
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
        with pytest.raises(IllPosedBoundary, match="omega=1.0"):
            noise_kernels(coeffs, singular_raw, np.array([0.5]))

    @pytest.mark.parametrize("params", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_both_rows_match_80_digit_mpmath(self, params):
        # e^{-ML} grows like e^{|w|} (|w| = 152 at alpha = 400): the reference has the digits to cancel it
        z = np.array([0.0, 0.5, 1.0])
        stack = solve_susceptibility_stack(params, np.array([0.0, -0.59, 0.3]))
        for row in (0, 1):
            kernels = noise_kernel_block(stack, z, row)
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
    k = noise_kernel_block(stack, z, row)
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
        sweep = semiclassical_sweep(symmetric_params(4.0), [4.0])
        tp, ce = sweep.transmittance[0], sweep.conversion_efficiency[0]
        assert tp == pytest.approx(0.25, abs=1e-9)
        assert ce == pytest.approx(0.25, abs=1e-9)

    def test_empty_medium(self):
        sweep = semiclassical_sweep(symmetric_params(0.0), [0.0])
        tp, ce = sweep.transmittance[0], sweep.conversion_efficiency[0]
        assert tp == pytest.approx(1.0, abs=1e-12)
        assert ce == pytest.approx(0.0, abs=1e-12)

    def test_high_od(self):
        sweep = semiclassical_sweep(symmetric_params(200.0), [200.0])
        tp, ce = sweep.transmittance[0], sweep.conversion_efficiency[0]
        assert tp == pytest.approx((4 / 204) ** 2, abs=1e-6)
        assert ce == pytest.approx((200 / 204) ** 2, abs=1e-6)

    def test_agrees_with_quantum_on_sample_grid(self):
        for alpha in (0.0, 1.0, 7.0, 63.0, 311.0):
            p = symmetric_params(alpha)
            classical = semiclassical_sweep(p, [p.alpha])
            (a0, _), (c0, _) = propagation_sweep(p, [p.alpha]).resolved[0]
            assert abs(classical.transmittance[0] - abs(a0) ** 2) < 1e-6
            assert abs(classical.conversion_efficiency[0] - abs(c0) ** 2) < 1e-6

    def test_shooting_failure_guard(self, monkeypatch):
        # a perfect mirror facing itself makes the first squaring singular; seeds are changes from the empty slab
        monkeypatch.setattr(transfer, "_seed_slabs", lambda m, widths: (_MIRROR - _EMPTY) * np.ones(widths.size))
        failure = semiclassical_sweep(symmetric_params(4.0), [4.0]).failure
        assert isinstance(failure, IllPosedBoundary)
        assert str(failure) == "at alpha=4.0: imbedding singular: |1 - B C| = 0.000e+00"

    def test_asymmetric_parameters_still_consistent(self):
        # no closed form here; quantum matrix route and the BVP must agree
        p = SystemParams(alpha=30.0, omega_c=1.5, omega_d=0.9, gamma31=1.2, gamma41=0.8, gamma21=0.01)
        classical = semiclassical_sweep(p, [p.alpha])
        (a0, _), (c0, _) = propagation_sweep(p, [p.alpha]).resolved[0]
        assert abs(classical.transmittance[0] - abs(a0) ** 2) < 1e-8
        assert abs(classical.conversion_efficiency[0] - abs(c0) ** 2) < 1e-8


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

    def test_negative_optical_depth_is_rejected(self):
        with pytest.raises(NegativeOD):
            propagation_sweep(symmetric_params(1.0), [1.0, -2.0])
        with pytest.raises(NegativeOD):
            semiclassical_sweep(symmetric_params(1.0), [-2.0])

    @pytest.mark.parametrize("sweep", [propagation_sweep, semiclassical_sweep])
    @pytest.mark.parametrize("alpha, error", [(float("nan"), NonFiniteParameter), (-1.0, NegativeOD)])
    def test_the_callers_params_are_validated(self, sweep, alpha, error):
        # the sweeps read M(1) at unit optical depth, yet a bad params.alpha still fails
        with pytest.raises(error, match=r"^optical depth must be >= 0|^alpha must be finite"):
            sweep(SystemParams(alpha=alpha), [0.0, 4.0])


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


class TestSemiclassicalSweep:
    def test_matches_one_point_view(self):
        for params in [symmetric_params(0.0, 1.7 * np.exp(2.1j)), *_ASYMMETRIC]:
            alphas = np.linspace(0.0, 400.0, 21)
            sweep = semiclassical_sweep(params, alphas)
            assert sweep.failure is None
            for alpha, tp, ce in zip(alphas, sweep.transmittance, sweep.conversion_efficiency):
                one = semiclassical_sweep(replace(params, alpha=float(alpha)), [alpha])
                assert abs(tp - one.transmittance[0]) < 1e-10
                assert abs(ce - one.conversion_efficiency[0]) < 1e-10

    def test_grid_order_and_repeats_do_not_matter(self):
        params = symmetric_params(0.0, 1.3)
        shuffled = np.array([300.0, 4.0, 0.0, 300.0, 17.5])
        sweep = semiclassical_sweep(params, shuffled)
        ordered = semiclassical_sweep(params, np.sort(shuffled))
        order = np.argsort(shuffled, kind="stable")
        assert np.array_equal(sweep.transmittance[order], ordered.transmittance)
        assert np.array_equal(sweep.conversion_efficiency[order], ordered.conversion_efficiency)

    def test_zero_grid_needs_no_integration(self, monkeypatch):
        monkeypatch.setattr(transfer, "_seed_slabs", None)  # any call would fail
        sweep = semiclassical_sweep(symmetric_params(0.0), [0.0, 0.0])
        assert list(sweep.transmittance) == [1.0, 1.0]
        assert list(sweep.conversion_efficiency) == [0.0, 0.0]

    def test_single_point_crossover(self):
        sweep = semiclassical_sweep(symmetric_params(0.0), [4.0])
        assert sweep.transmittance[0] == pytest.approx(0.25, abs=1e-12)
        assert sweep.conversion_efficiency[0] == pytest.approx(0.25, abs=1e-12)

    def test_largest_optical_depth_stays_on_the_quantum_columns(self):
        alphas = np.linspace(0.0, 1e6, 401)
        rng = np.random.default_rng(23)
        for _ in range(3):
            params = _random_symmetric(rng)
            quantum = propagation_sweep(params, alphas)
            classical = semiclassical_sweep(params, alphas)
            assert quantum.failure is None and classical.failure is None
            tp = np.abs(quantum.resolved[:, 0, 0]) ** 2
            ce = np.abs(quantum.resolved[:, 1, 0]) ** 2
            assert np.max(np.abs(classical.transmittance - tp)) <= 1e-6
            assert np.max(np.abs(classical.conversion_efficiency - ce)) <= 1e-6
            assert np.max(np.abs(ce - (alphas / (4 + alphas)) ** 2)) <= 1e-12

    def test_shooting_failure_names_the_first_singular_row(self, monkeypatch):
        # gaps of 5 are empty slabs and gaps of 10 perfect mirrors: two mirrors in a row are singular
        def slabs(m, gaps):
            mirror = np.where(gaps[None, :] >= 10.0, _MIRROR - _EMPTY, 0.0)
            return _EMPTY + mirror, np.ones(gaps.size)

        monkeypatch.setattr(transfer, "_slabs", slabs)
        sweep = semiclassical_sweep(symmetric_params(0.0), [0.0, 5.0, 15.0, 25.0, 30.0])
        assert isinstance(sweep.failure, IllPosedBoundary)
        assert str(sweep.failure) == "at alpha=25.0: imbedding singular: |1 - B C| = 0.000e+00"
        assert list(sweep.alphas) == [0.0, 5.0, 15.0]
        assert list(sweep.transmittance) == [1.0, 1.0, 0.0]
        assert list(sweep.conversion_efficiency) == [0.0, 0.0, 1.0]

    def test_non_finite_slab_names_its_row(self, monkeypatch):
        def slabs(m, gaps):
            return np.where(gaps[None, :] >= 10.0, np.nan, _EMPTY), np.ones(gaps.size)

        monkeypatch.setattr(transfer, "_slabs", slabs)
        sweep = semiclassical_sweep(symmetric_params(0.0), [0.0, 5.0, 15.0])
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
    def test_gap_to_the_quantum_columns_on_the_default_grid(self, params):
        alphas = np.linspace(0.0, 400.0, 401)
        quantum = propagation_sweep(params, alphas).resolved
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classical = semiclassical_sweep(params, alphas)
        assert classical.failure is None
        assert np.max(np.abs(classical.transmittance - np.abs(quantum[:, 0, 0]) ** 2)) <= 1e-9
        assert np.max(np.abs(classical.conversion_efficiency - np.abs(quantum[:, 1, 0]) ** 2)) <= 1e-9

    @pytest.mark.parametrize("params", _INVARIANT_CONFIGS, ids=_INVARIANT_IDS)
    def test_gap_to_the_quantum_columns_up_to_the_largest_optical_depth(self, params):
        alphas = np.concatenate([_LARGE_OD_GRID, np.linspace(0.0, 1e6, 401)])
        quantum = propagation_sweep(params, alphas).resolved
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classical = semiclassical_sweep(params, alphas)
        assert classical.failure is None
        tp, ce = classical.transmittance, classical.conversion_efficiency
        assert np.isfinite(tp).all() and np.isfinite(ce).all()
        assert np.max(tp + ce) <= 1.0 + 1e-9
        tq = np.abs(quantum[:, 0, 0]) ** 2
        assert np.max(np.abs(tp - tq)) <= 1e-6
        assert np.max(np.abs(ce - np.abs(quantum[:, 1, 0]) ** 2)) <= 1e-6
        # a wide slab is squared whole, so a vanishing transmittance keeps its digits too
        tiny = (tq > 1e-290) & (tq < 1e-30)
        assert np.all(np.abs(tp[tiny] - tq[tiny]) <= 1e-9 * tq[tiny])
