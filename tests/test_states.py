import ast
import cmath
import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eitqfc import states
from eitqfc.cli import MAX_FOCK_LEVEL
from eitqfc.errors import DimensionTooSmall, NonPassiveAmplitude, QfcError, TruncationOverflow
from eitqfc.params import SystemParams, symmetric_params
from eitqfc.states import (
    Coherent,
    Fock,
    Squeezed,
    apply_loss_channel,
    beam_splitter_oracle,
    coherent_dm,
    coherent_fidelity,
    fidelity,
    fock_dm,
    fock_fidelity,
    output_variances,
    projector_series_oracle,
    trace_distance,
    validate_density_matrix,
)
from eitqfc.transfer import propagation_sweep

CE_HEADLINE = (200 / 204) ** 2  # conversion efficiency at optical depth 200


class TestChannelAmplitude:
    def test_headline_od(self):
        c0 = propagation_sweep(symmetric_params(200.0), [200.0]).resolved[0, 1, 0]
        assert abs(c0 - 200 / 204) < 1e-13

    def test_empty_medium(self):
        assert abs(propagation_sweep(symmetric_params(0.0), [0.0]).resolved[0, 1, 0]) < 1e-14

    def test_crossover(self):
        assert abs(propagation_sweep(symmetric_params(4.0), [4.0]).resolved[0, 1, 0] - 0.5) < 1e-13


class TestApplyLossChannel:
    def test_single_photon_split(self):
        out = apply_loss_channel(fock_dm(1, 6), math.sqrt(0.96))
        assert out[0, 0].real == pytest.approx(0.04, abs=1e-12)
        assert out[1, 1].real == pytest.approx(0.96, abs=1e-12)
        assert np.allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-14)

    def test_vacuum_fixed_point(self):
        for c0 in (0.0, 0.3 + 0.4j, 1.0):
            out = apply_loss_channel(fock_dm(0, 5), c0)
            assert np.allclose(out, fock_dm(0, 5), atol=1e-14)

    def test_full_loss_and_identity_channel(self):
        dim = 20
        for rho in (fock_dm(3, dim), coherent_dm(1.0 + 0.5j, dim)):
            assert np.max(np.abs(apply_loss_channel(rho, 0.0) - fock_dm(0, dim))) < 1e-14
            assert np.max(np.abs(apply_loss_channel(rho, 1.0) - rho)) < 1e-15

    def test_two_photon_binomial(self):
        out = apply_loss_channel(fock_dm(2, 8), math.sqrt(0.5))
        assert np.allclose(np.diag(out).real[:3], [0.25, 0.5, 0.25], atol=1e-13)

    def test_output_is_valid_density_matrix(self):
        cases = [(fock_dm(3, 12), 0.7)]
        for dim in (20, 24):
            inputs = [fock_dm(n, dim) for n in (1, 3, 5)]
            inputs += [coherent_dm(beta, dim) for beta in (1.2, 1.0 + 1.0j)]
            for c0 in (0.9 * np.exp(0.3j), 0.5 * np.exp(-2.0j), 1j):
                cases += [(rho, c0) for rho in inputs]
        for rho, c0 in cases:
            out = apply_loss_channel(rho, c0)
            validate_density_matrix(out, trace_tol=1e-9)
            # the Kraus sum preserves the trace of the truncated input itself
            assert abs(np.trace(out) - np.trace(rho)) < 1e-14

    def test_composition_law(self):
        # T(c1) after T(c2) is T(c1 c2), phases included
        dim = 20
        amplitudes = (0.8 * np.exp(0.4j), 0.6 * np.exp(-1.1j), 0.95)
        for rho in (fock_dm(4, dim), coherent_dm(0.7 - 1.0j, dim)):
            for c1 in amplitudes:
                for c2 in amplitudes:
                    twice = apply_loss_channel(apply_loss_channel(rho, c2), c1)
                    once = apply_loss_channel(rho, c1 * c2)
                    assert np.linalg.norm(twice - once) < 1e-14

    def test_trace_preserved(self):
        out = apply_loss_channel(coherent_dm(1.5, 24), 0.55)
        assert abs(np.trace(out).real - 1.0) < 1e-9

    def test_truncation_overflow_guard(self):
        with pytest.raises(TruncationOverflow):
            apply_loss_channel(fock_dm(11, 12), 0.5)
        with pytest.raises(TruncationOverflow):
            apply_loss_channel(fock_dm(10, 12), 0.5)

    def test_amplitude_bound(self):
        with pytest.raises(ValueError):
            apply_loss_channel(fock_dm(1, 6), 1.2)
        # rounding above |c0| = 1 is accepted as the identity channel
        rho = coherent_dm(0.5, 12)
        assert np.max(np.abs(apply_loss_channel(rho, 1.0 + 5e-13) - rho)) < 1e-11


#: Optical-depth grids whose channel amplitudes are complex or asymmetric.
SWEEP_CONFIGS = {
    "complex-phase symmetric": {"omega_c": 0.8 + 1.1j, "omega_d": 0.8 + 1.1j},
    "asymmetric": {"omega_c": 1.5, "omega_d": 0.8},
}


def _sweep_amplitudes(config, grid_points):
    sweep = propagation_sweep(SystemParams(alpha=0.0, **config), np.linspace(0.0, 400.0, grid_points))
    assert sweep.failure is None
    return sweep.resolved[:, 1, 0]


class TestStackedChannel:
    """One call on a 1-D stack of amplitudes: each member as its own one-amplitude call gives it."""

    @pytest.mark.parametrize("config", list(SWEEP_CONFIGS))
    def test_members_equal_single_amplitude_calls(self, config):
        amplitudes = _sweep_amplitudes(SWEEP_CONFIGS[config], 401)
        for rho in (fock_dm(3), coherent_dm(1.0 + 0.5j, 20)):
            stack = apply_loss_channel(rho, amplitudes)
            assert stack.shape == (401, 20, 20)
            for c0, member in zip(amplitudes, stack):
                assert np.array_equal(member, apply_loss_channel(rho, c0))
                assert np.array_equal(member, apply_loss_channel(rho, complex(c0)))

    @pytest.mark.parametrize("config", list(SWEEP_CONFIGS))
    def test_stack_matches_both_oracles(self, config):
        dim = 16
        amplitudes = _sweep_amplitudes(SWEEP_CONFIGS[config], 9)
        for rho in (fock_dm(3, dim), coherent_dm(1.0 + 0.5j, dim)):
            stack = apply_loss_channel(rho, amplitudes)
            for c0, member in zip(amplitudes, stack):
                series = projector_series_oracle(rho, c0)
                # the beam splitter is real; conj(c0)'s phase rotates its output
                phase = np.exp(-1j * np.angle(c0) * np.arange(dim))
                oracle = beam_splitter_oracle(rho, abs(c0) ** 2)
                _assert_routes_agree(member, series, phase[:, None] * oracle * np.conj(phase)[None, :])

    @pytest.mark.parametrize("config", list(SWEEP_CONFIGS))
    def test_members_are_hermitian_with_unit_trace(self, config):
        amplitudes = _sweep_amplitudes(SWEEP_CONFIGS[config], 401)
        for rho in (fock_dm(0), fock_dm(5), fock_dm(17), coherent_dm(1.2 - 0.7j, 20)):
            for member in apply_loss_channel(rho, amplitudes):
                validate_density_matrix(member, hermiticity_tol=1e-15, trace_tol=1e-12)

    def test_empty_stack(self):
        assert apply_loss_channel(fock_dm(1), np.array([], dtype=complex)).shape == (0, 20, 20)

    def test_non_passive_amplitude_names_its_row(self):
        amplitudes = np.array([0.2, 0.9j, 1.0 + 5e-13, 1.0 + 1e-10, 1.5])
        with pytest.raises(NonPassiveAmplitude, match=r"\|c0\| = 1\.000000 exceeds 1") as exc:
            apply_loss_channel(fock_dm(1), amplitudes)
        assert exc.value.row == 3
        assert isinstance(exc.value, QfcError) and isinstance(exc.value, ValueError)
        with pytest.raises(NonPassiveAmplitude) as exc:
            apply_loss_channel(fock_dm(1), np.array([0.5, complex("nan")]))
        assert exc.value.row == 1

    def test_amplitudes_form_at_most_one_axis(self):
        with pytest.raises(ValueError, match="1-D stack"):
            apply_loss_channel(fock_dm(1), np.full((2, 2), 0.5))

    def test_output_bits_are_pinned(self):
        # sha256 of the output bytes: how the shifted diagonals are built must move no bit
        amplitudes = _sweep_amplitudes(SWEEP_CONFIGS["asymmetric"], 401)
        outputs = {
            "b5059ae0191db2376bc758cef5af64680c10cdfd3a3b2b64b21de2a5a1e030ca": (fock_dm(3), amplitudes),
            "db2ea4fade99102b184e1c8f7956250c6313c1a14e3b72568d6fea9e368e8bba": (coherent_dm(1 + 0.5j, 20), amplitudes),
            "f40940a9b25e702f599a97c1fb54318392112fd165d0d25dc059bac53d4005f1": (
                coherent_dm(1.3 - 0.6j, 50),
                0.8 * np.exp(0.9j),
            ),
        }
        for digest, (rho, c0) in outputs.items():
            assert hashlib.sha256(apply_loss_channel(rho, c0).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("dim", [6, 12, 20])
    def test_channel_is_completely_positive_and_trace_preserving(self, dim):
        # the Choi matrix sum_ij |i><j| (x) L(|i><j|) over the levels the top-level guard accepts
        amplitudes = np.array([0.0, 0.3 * np.exp(0.7j), -0.5j, 0.9804, 1.0])
        levels = dim - 2
        outputs = np.empty((levels, levels, amplitudes.size, dim, dim), dtype=complex)
        for i in range(levels):
            for j in range(levels):
                unit = np.zeros((dim, dim), dtype=complex)
                unit[i, j] = 1.0
                outputs[i, j] = apply_loss_channel(unit, amplitudes)
        choi = outputs.transpose(2, 0, 3, 1, 4).reshape(amplitudes.size, levels * dim, levels * dim)
        assert np.max(np.abs(choi - choi.conj().transpose(0, 2, 1))) <= 1e-15
        assert np.min(np.linalg.eigvalsh(choi)) >= -1e-12
        traces = np.trace(outputs, axis1=3, axis2=4)
        assert np.max(np.abs(traces - np.eye(levels)[:, :, None])) <= 1e-12


def _unit_disc_amplitudes(count, seed):
    """Random amplitudes in the closed unit disc, led by 0, its signed zeros, the unit points and one rounding excess."""
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    edges += [1.0, -1.0, 1j, -1j, complex(1.0, -0.0), complex(-0.0, -1.0), 1.0 + 5e-13, 1e-300]
    inside = np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
    return np.concatenate([np.array(edges, dtype=complex), inside])


class TestFockFidelity:
    """fock_fidelity: the channel route's Fock fidelity from the amplitudes alone."""

    @staticmethod
    def _assert_channel_route(n, amplitudes):
        want = fidelity(Fock(n), apply_loss_channel(fock_dm(n), amplitudes))
        assert np.array_equal(fock_fidelity(n, amplitudes).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("config", ["default", *SWEEP_CONFIGS])
    def test_sweep_stack_equals_the_channel_route_bit_for_bit(self, config):
        amplitudes = _sweep_amplitudes(SWEEP_CONFIGS.get(config, {}), 401)
        for n in range(MAX_FOCK_LEVEL + 1):
            self._assert_channel_route(n, amplitudes)

    def test_unit_disc_equals_the_channel_route_bit_for_bit(self):
        amplitudes = _unit_disc_amplitudes(2000, seed=17)
        for n in range(MAX_FOCK_LEVEL + 1):
            self._assert_channel_route(n, amplitudes)
            for size in (1, 2, 3, 5, 7):  # short stacks too, which numpy may run through other loops
                self._assert_channel_route(n, amplitudes[size : 2 * size])

    def test_one_amplitude_is_a_stack_of_one(self):
        for c0 in _unit_disc_amplitudes(20, seed=5).tolist():
            got = fock_fidelity(3, c0)
            assert isinstance(got, float)
            want = fidelity(Fock(3), apply_loss_channel(fock_dm(3), c0))
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        assert fock_fidelity(2, np.array([], dtype=complex)).shape == (0,)

    def test_square_root_law_beyond_the_channel_basis(self):
        c0 = 0.9 * np.exp(0.4j)
        assert fock_fidelity(40, c0) == pytest.approx(0.9**40, rel=1e-13)

    def test_checks_amplitudes_and_level_like_the_channel(self):
        amplitudes = np.array([0.2, 0.9j, 1.0 + 5e-13, 1.0 + 1e-10, 1.5])
        with pytest.raises(NonPassiveAmplitude, match=r"\|c0\| = 1\.000000 exceeds 1") as exc:
            fock_fidelity(1, amplitudes)
        assert exc.value.row == 3
        with pytest.raises(NonPassiveAmplitude) as exc:
            fock_fidelity(1, np.array([0.5, complex("nan")]))
        assert exc.value.row == 1
        with pytest.raises(ValueError, match="1-D stack"):
            fock_fidelity(1, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=">= 0"):
            fock_fidelity(-1, 0.5)
        with pytest.raises(TypeError):
            fock_fidelity(1.0, 0.5)


class TestBeamSplitterOracle:
    def test_identity_channel(self):
        rho = coherent_dm(0.8, 16)
        out = beam_splitter_oracle(rho, 1.0)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_full_loss(self):
        out = beam_splitter_oracle(fock_dm(3, 10), 0.0)
        assert out[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_coherent_transmission(self):
        out = beam_splitter_oracle(coherent_dm(1.0, 20), 0.9612)
        target = coherent_dm(math.sqrt(0.9612), 20)
        assert trace_distance(out, target) < 1e-8

    @pytest.mark.parametrize("n, dim", [(10, 12), (11, 12), (19, 20)])
    def test_fock_input_at_the_top_of_its_basis_loses_photons_binomially(self, n, dim):
        for t in (0.3, 0.9612):
            binomial = [math.comb(n, k) * t**k * (1 - t) ** (n - k) for k in range(n + 1)] + [0.0] * (dim - n - 1)
            out = beam_splitter_oracle(fock_dm(n, dim), t)
            assert np.max(np.abs(out - np.diag(binomial))) < 1e-12

    def test_matches_the_channel_up_to_the_channel_guard(self):
        rho = fock_dm(9, 12)  # levels 10 and 11 empty, as the Kraus channel wants
        for t in (0.0, 0.3, 0.9612, 1.0):
            assert np.max(np.abs(beam_splitter_oracle(rho, t) - apply_loss_channel(rho, math.sqrt(t)))) < 1e-12

    def test_transmissivity_bounds(self):
        with pytest.raises(ValueError):
            beam_splitter_oracle(fock_dm(1, 8), 1.5)

    @pytest.mark.parametrize("dim", [4, 8, 16])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9612, 1.0])
    def test_photon_number_blocks_match_the_dense_exponential(self, dim, t):
        # scipy's expm of the whole dim^2 x dim^2 kron generator, at the ancilla-vacuum columns |m, 0>
        a = states.destroy(dim)
        generator = math.acos(math.sqrt(t)) * (np.kron(a.T, a) - np.kron(a, a.T))
        expected = scipy.linalg.expm(generator)[:, ::dim]
        assert np.max(np.abs(states._beam_splitter_columns(t, dim) - expected)) < 1e-13


def _assert_routes_agree(*routes):
    for k, first in enumerate(routes):
        for second in routes[k + 1 :]:
            assert np.linalg.norm(first - second) < 1e-9


class TestChannelEquivalence:
    """Kraus sum, projector series and beam splitter: three independent routes."""

    def test_fock_inputs(self):
        dim = 24
        for n in range(6):
            rho = fock_dm(n, dim)
            for t in (0.0, 0.25, 0.5, 0.9612, 1.0):
                kraus = apply_loss_channel(rho, math.sqrt(t))
                series = projector_series_oracle(rho, math.sqrt(t))
                oracle = beam_splitter_oracle(rho, t)
                _assert_routes_agree(kraus, series, oracle)

    @pytest.mark.parametrize("n", range(MAX_FOCK_LEVEL + 1))
    def test_every_fock_level_the_cli_accepts_matches_the_beam_splitter(self, n):
        # the default basis up to MAX_FOCK_LEVEL, where the series oracle loses digits (see its docstring)
        rho = fock_dm(n)
        for t in (0.25, 0.5, 0.64, 0.9612, 0.999):
            kraus = apply_loss_channel(rho, math.sqrt(t) * cmath.exp(0.7j))
            gap = np.linalg.norm(kraus - beam_splitter_oracle(rho, t))
            assert gap <= 1e-13, (n, t, gap)

    def test_coherent_inputs(self):
        dim = 24
        for beta in (0.5, 1.0, 2.0, 1.0 + 1.0j):
            rho = coherent_dm(beta, dim)
            for t in (0.25, 0.9612):
                kraus = apply_loss_channel(rho, math.sqrt(t))
                series = projector_series_oracle(rho, math.sqrt(t))
                oracle = beam_splitter_oracle(rho, t)
                _assert_routes_agree(kraus, series, oracle)

    def test_complex_amplitude_phase_adjustment(self):
        # a complex channel amplitude equals the real-transmissivity beam
        # splitter followed by the phase rotation exp(-i arg(c0) n)
        dim = 20
        c0 = math.sqrt(0.7) * np.exp(0.8j)
        rho = coherent_dm(1.0, dim)
        kraus = apply_loss_channel(rho, c0)
        series = projector_series_oracle(rho, c0)
        oracle = beam_splitter_oracle(rho, abs(c0) ** 2)
        phase = np.exp(-1j * np.angle(c0) * np.arange(dim))
        rotated = phase[:, None] * oracle * np.conj(phase)[None, :]
        _assert_routes_agree(kraus, series, rotated)

    def test_series_matches_its_formula_at_50_digits(self):
        # the same series with 50-digit moments, each computed once from the entries of rho:
        # Tr[(a^+)^j a^k rho] = sum_p sqrt((p+j)! (p+k)!) / p! rho[p+k, p+j]
        mpmath = pytest.importorskip("mpmath")
        for rho in (fock_dm(2, 6), coherent_dm(0.5 + 0.3j, 12)):
            dim = rho.shape[0]
            with mpmath.workdps(50):
                f = [mpmath.factorial(k) for k in range(dim)]
                moments = [
                    [
                        mpmath.fsum(
                            mpmath.sqrt(f[p + j] * f[p + k]) / f[p] * mpmath.mpc(rho[p + k, p + j])
                            for p in range(dim - max(j, k))
                        )
                        for k in range(dim)
                    ]
                    for j in range(dim)
                ]
                for c0 in (0.0, 1.0, 0.8, 0.6 * cmath.exp(0.9j)):
                    c = mpmath.mpc(c0)
                    expected = np.array(
                        [
                            [
                                complex(
                                    mpmath.fsum(
                                        (-1) ** lost / f[lost] * c ** (lost + n) * mpmath.conj(c) ** (lost + m)
                                        * moments[lost + n][lost + m]
                                        for lost in range(dim - max(m, n))
                                    )
                                    / mpmath.sqrt(f[m] * f[n])
                                )
                                for n in range(dim)
                            ]
                            for m in range(dim)
                        ]
                    )
                    gap = np.max(np.abs(projector_series_oracle(rho, c0) - expected))
                    assert gap <= 1e-13 * np.max(np.abs(expected)), (dim, c0, gap)


class TestCoherentOutput:
    def test_vacuum_input(self):
        out = coherent_dm(np.conj(0.9) * 0.0, 10)
        assert np.allclose(out, fock_dm(0, 10), atol=1e-14)

    def test_unit_amplitude_element(self):
        out = coherent_dm(np.conj(1.0) * 1.0, 20)
        assert out[0, 0].real == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_matches_loss_channel(self):
        c0 = math.sqrt(0.5)
        direct = coherent_dm(np.conj(c0) * 1.0, 25)
        channel = apply_loss_channel(coherent_dm(1.0, 25), c0)
        assert trace_distance(direct, channel) < 1e-9

    def test_complex_amplitude_phase(self):
        c0 = math.sqrt(0.6) * np.exp(0.5j)
        direct = coherent_dm(np.conj(c0) * 0.9, 22)
        channel = apply_loss_channel(coherent_dm(0.9, 22), c0)
        assert trace_distance(direct, channel) < 1e-9

    def test_truncation_guard(self):
        with pytest.raises(TruncationOverflow):
            coherent_dm(np.conj(1.0) * 3.0, 10)
        with pytest.raises(TruncationOverflow):  # a NaN trace loss fails too
            coherent_dm(complex("nan"), 10)

    @pytest.mark.parametrize("beta", [0.0, 0.3 - 0.2j, 1.0, -1.0, 1.3 - 0.4j, 1.7j, -2.0, 1.2 + 1.6j])
    @pytest.mark.parametrize("dim", [30, 40])
    def test_amplitudes_follow_the_closed_form(self, beta, dim):
        closed = np.array([cmath.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n)) for n in range(dim)])
        vec = states.coherent_vector(beta, dim)
        assert np.max(np.abs(vec - closed)) <= 1e-15 * np.max(np.abs(closed))
        if complex(beta).imag == 0:
            assert np.all(vec.imag == 0)

    @pytest.mark.parametrize("beta", [38.0, 38.6, 39.0, 30.0 + 25.0j])
    def test_unit_norm_where_the_vacuum_amplitude_underflows(self, beta):
        # e^{-|beta|^2/2} is subnormal past |beta| = 37.6: the norm was 1 + 9.1e-11, 3.00 and 0.0 at 38, 38.6, 39
        vec = states.coherent_vector(beta, 4000)
        populations = np.abs(vec) ** 2
        mean = abs(beta) ** 2
        assert np.sum(populations) == pytest.approx(1.0, abs=1e-12)
        assert np.arange(4000) @ populations == pytest.approx(mean, rel=1e-12)
        near = np.arange(math.floor(mean) - 100, math.floor(mean) + 100)
        poisson = [math.exp(n * math.log(mean) - mean - math.lgamma(n + 1)) for n in near]
        assert populations[near] == pytest.approx(poisson, rel=1e-9)  # lgamma(n + 1) ~ 1e4 carries 1e-12 itself

    @pytest.mark.parametrize("beta, dim", [(12.0, 250), (20.0, 600)])
    def test_bright_state_on_a_large_basis(self, beta, dim):
        # past n = 170 a power of beta over sqrt(n!) overflows; the amplitudes stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = coherent_dm(beta, dim)
        populations = np.real(np.diag(rho))
        assert np.all(np.isfinite(rho))
        assert np.sum(populations) == pytest.approx(1.0, abs=1e-12)
        assert np.arange(dim) @ populations == pytest.approx(beta**2, rel=1e-12)


class TestFidelity:
    def test_headline_numbers(self):
        out = apply_loss_channel(fock_dm(1, 6), math.sqrt(CE_HEADLINE))
        f = fidelity(Fock(1), out)
        assert f == pytest.approx(0.9804, abs=1e-4)
        assert f == pytest.approx(math.sqrt(CE_HEADLINE), abs=1e-12)

    def test_perfect_conversion(self):
        out = apply_loss_channel(fock_dm(1, 6), 1.0)
        assert fidelity(Fock(1), out) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_closed_form_example(self):
        expected = math.exp(-((1 - math.sqrt(0.96)) ** 2) / 2)
        assert coherent_fidelity(1.0, 0.96, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.99980, abs=1e-5)

    def test_matrix_route_matches_closed_form(self):
        for ce in (0.25, 0.5, 0.9612):
            out = apply_loss_channel(coherent_dm(1.0, 20), math.sqrt(ce))
            matrix_f = fidelity(Coherent(1.0), out)
            assert matrix_f == pytest.approx(coherent_fidelity(1.0, ce, 0.0), abs=1e-9)

    def test_fock_square_root_law(self):
        for ce in np.linspace(0.0, 1.0, 50):
            out = apply_loss_channel(fock_dm(1, 4), math.sqrt(ce))
            assert abs(fidelity(Fock(1), out) - math.sqrt(ce)) < 1e-10
        # |n> keeps the amplitude |c0|^n, whatever the phase of c0
        for n in range(6):
            rho = fock_dm(n, 20)
            for ce in np.linspace(0.0, 1.0, 50):
                c0 = math.sqrt(ce) * np.exp(1.3j)
                out = apply_loss_channel(rho, c0)
                assert abs(fidelity(Fock(n), out) - abs(c0) ** n) <= 1e-14

    def test_monotone_in_ce(self):
        ces = np.linspace(0.0, 1.0, 40)
        fock = [fidelity(Fock(1), apply_loss_channel(fock_dm(1, 4), math.sqrt(c))) for c in ces]
        coh = [coherent_fidelity(1.0, c, 0.0) for c in ces]
        assert np.all(np.diff(fock) >= 0)
        assert np.all(np.diff(coh) >= 0)

    def test_bright_coherent_converts_worse(self):
        for ce in np.linspace(0.0, 0.99, 34):
            assert coherent_fidelity(10.0, ce, 0.0) < coherent_fidelity(1.0, ce, 0.0)

    @pytest.mark.parametrize("nbar, ce", [(float("nan"), 0.5), (math.inf, 1.0), (-1.0, 0.5), (1.0, float("nan"))])
    def test_coherent_fidelity_rejects_a_non_finite_or_negative_input(self, nbar, ce):
        # nan and inf used to come back as a nan fidelity
        with pytest.raises(ValueError, match=r"^need nbar >= 0 and ce in \[0, 1\], got ") as single:
            coherent_fidelity(nbar, ce, 0.0)
        # in a stack, the first bad entry is named, as the number alone would be
        with pytest.raises(ValueError, match=r"^need nbar >= 0 and ce in \[0, 1\], got ") as stacked:
            coherent_fidelity(np.array([1.0, nbar, -2.0]), np.array([0.5, ce, 0.5]), np.zeros(3))
        assert str(stacked.value) == str(single.value) == f"need nbar >= 0 and ce in [0, 1], got {nbar}, {ce}"

    def test_squeezed_input_unsupported(self):
        with pytest.raises(TypeError):
            fidelity(Squeezed(0.5), fock_dm(0, 5))

    def test_coherent_input_has_the_trace_loss_guard(self):
        # |5> holds only 13% of its trace on 20 levels; the overlap with |19> read 0.204
        with pytest.raises(TruncationOverflow, match=r"\|beta\|=5 loses 8\.664e-01 of its trace at dim=20"):
            fidelity(Coherent(5.0), fock_dm(19))
        with pytest.raises(TruncationOverflow, match="loses 8.664e-01"):
            coherent_dm(5.0)

    @pytest.mark.parametrize("state", [Fock(3), Coherent(1.0 + 0.5j)], ids=["fock", "coherent"])
    def test_stack_members_equal_one_matrix_calls_bit_for_bit(self, state):
        rho_in = fock_dm(3, 20) if isinstance(state, Fock) else coherent_dm(state.beta, 20)
        channel = apply_loss_channel(rho_in, _sweep_amplitudes(SWEEP_CONFIGS["asymmetric"], 401))
        stacked = fidelity(state, channel)
        assert stacked.shape == (401,)
        singles = [fidelity(state, rho) for rho in channel]
        assert all(isinstance(f, float) for f in singles)
        assert np.array_equal(stacked.view(np.int64), np.array(singles).view(np.int64))

    def test_stack_clamps_negative_overlaps_only(self):
        # -0.0 and NaN pass through unchanged; a negative rounding residue reads 0
        stack = np.zeros((5, 3, 3), dtype=complex)
        stack[:, 0, 0] = [-1e-17, -0.0, np.nan, 0.25, 1.0]
        got = fidelity(Fock(0), stack)
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert np.isnan(got[2])
        assert list(got[3:]) == [0.5, 1.0]
        assert fidelity(Fock(0), np.zeros((0, 3, 3))).shape == (0,)
        with pytest.raises(DimensionTooSmall):
            fidelity(Fock(3), stack)


class TestQuadratures:
    def test_coherent_input(self):
        assert output_variances(Coherent(0.7 + 2.0j), 1.0, 0.0) == (0.25, 0.25)

    def test_fock_input(self):
        assert output_variances(Fock(1), 1.0, 0.0) == (0.75, 0.75)
        assert output_variances(Fock(3), 1.0, 0.0) == (1.75, 1.75)

    def test_squeezed_factor_four(self):
        v = output_variances(Squeezed(math.log(2.0)), 1.0, 0.0)
        assert v.var_x == pytest.approx(1.0, rel=1e-12)
        assert v.var_y == pytest.approx(0.0625, rel=1e-12)
        # a variance ratio of 4 relative to vacuum is 6.02 dB
        assert 10 * math.log10(v.var_x / 0.25) == pytest.approx(6.0206, abs=1e-3)

    def test_output_variance_examples(self):
        assert output_variances(Coherent(0.0), 0.37, 0.0).var_x == pytest.approx(0.25, abs=1e-15)
        assert output_variances(Squeezed(math.log(2.0)), 1.0, 0.0).var_x == 1.0
        assert output_variances(Fock(3), 0.0, 0.0).var_x == 0.25

    def test_output_variance_validation(self):
        with pytest.raises(ValueError):
            output_variances(Fock(-1), 0.5, 0.0)
        for var_in in (float("nan"), math.inf):
            with pytest.raises(ValueError, match=f"^variance must be >= 0, got {var_in}$"):
                output_variances(Squeezed(var_in), 0.5, 0.0)
        with pytest.raises(ValueError, match="^variance must be >= 0, got inf$"):
            output_variances(Squeezed(355.0), 0.5, 0.0)

    def test_fock_level_is_checked_as_the_channel_checks_it(self):
        with pytest.raises(ValueError, match="^a Fock level must be >= 0, got -1$"):
            output_variances(Fock(-1), 0.5, 0.0)
        with pytest.raises(TypeError):
            output_variances(Fock(1.5), 0.5, 0.0)

    @pytest.mark.parametrize("r", [355.5, -355.5, 400.0, -400.0, 1e300, -1e300])
    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi / 2, math.pi])
    def test_overflowing_squeezing_has_an_infinite_variance(self, r, theta):
        # cosh(2r) overflows past |r| = 355
        with pytest.raises(ValueError, match="^variance must be >= 0, got inf$"):
            output_variances(Squeezed(r, theta), 0.5, 0.0)
        with pytest.raises(ValueError):
            output_variances(Coherent(0.0), 1.2, 0.0)

    def test_output_variance_of_an_array_matches_each_coefficient(self):
        coeffs = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
        variances = output_variances(Fock(2), coeffs, 0.0).var_x
        assert variances.tolist() == [output_variances(Fock(2), float(c), 0.0).var_x for c in coeffs]
        assert isinstance(output_variances(Fock(2), 0.5, 0.0).var_x, float)

    @pytest.mark.parametrize("bad", [1.0 + 4e-16, -1e-300, float("nan")])
    def test_output_variance_names_the_first_coefficient_outside(self, bad):
        coeffs = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match=rf"^power coefficient must lie in \[0, 1\], got {bad!r}$"):
            output_variances(Coherent(0.0), coeffs, 0.0)

    def test_fock_outputs_stay_symmetric(self):
        for ce in np.linspace(0.0, 1.0, 21):
            v = output_variances(Fock(1), float(ce), 0.0)
            assert v.var_x == v.var_y

    def test_heisenberg_bound_preserved(self):
        states = [Coherent(1.0), Squeezed(0.3), Squeezed(math.log(2.0)), Squeezed(-1.1)]
        for state in states:
            for coeff in np.linspace(0.0, 1.0, 21):
                v = output_variances(state, float(coeff), 0.0)
                assert v.var_x * v.var_y >= 1 / 16 - 1e-12

    def test_squeezed_angle_rotates_quadratures(self):
        v0 = output_variances(Squeezed(0.5, theta=0.0), 1.0, 0.0)
        vpi = output_variances(Squeezed(0.5, theta=math.pi), 1.0, 0.0)
        assert v0.var_x == pytest.approx(vpi.var_y, rel=1e-12)
        assert v0.var_y == pytest.approx(vpi.var_x, rel=1e-12)


def squeezed_dm(r, theta, dim):
    """Squeezed vacuum with <a^2> = e^{i theta} sinh(2r)/2 (the Squeezed convention) on dim levels."""
    pairs = np.arange((dim + 1) // 2)
    log_weights = np.array([0.5 * math.lgamma(2 * m + 1) - math.lgamma(m + 1) - m * math.log(2.0) for m in pairs])
    vector = np.zeros(dim, dtype=complex)
    vector[::2] = np.exp(log_weights) * (cmath.exp(1j * theta) * math.tanh(r)) ** pairs / math.sqrt(math.cosh(r))
    return np.outer(vector, vector.conj())


def quadrature_moments(rho):
    """(var_x, var_y, cov_xy) of a density matrix, X = (a + a^+)/2 and Y = (a - a^+)/2i."""
    a = states.destroy(rho.shape[0])
    x, y = (a + a.T) / 2, (a - a.T) / 2j
    mean_x, mean_y = np.trace(rho @ x).real, np.trace(rho @ y).real
    return (
        np.trace(rho @ x @ x).real - mean_x**2,
        np.trace(rho @ y @ y).real - mean_y**2,
        np.trace(rho @ (x @ y + y @ x)).real / 2 - mean_x * mean_y,
    )


def _old_variance_law(state, ce):
    """ce * var + (1 - ce)/4 with the input variances as they were computed before the phase was taken."""
    if isinstance(state, Squeezed):
        ch, sh = math.cosh(2 * state.r), math.sinh(2 * state.r)
        var_x, var_y = (ch + sh * math.cos(state.theta)) / 4.0, (ch - sh * math.cos(state.theta)) / 4.0
    else:
        var_x = var_y = 0.25 if isinstance(state, Coherent) else (2 * state.n + 1) / 4.0
    return ce * var_x + (1.0 - ce) / 4.0, ce * var_y + (1.0 - ce) / 4.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


#: Inputs of the closed-form laws: phase-free ones, and squeezed ones at and off the X axis.
LAW_STATES = [
    Coherent(0.0), Coherent(1.3 - 0.4j), Fock(0), Fock(1), Fock(17), Squeezed(math.log(2.0)), Squeezed(0.3, 1.1)
]


class TestPhaseAwareLaws:
    """The closed-form laws take |C0|^2 and arg C0, and agree with the loss channel at any phase."""

    @settings(max_examples=40)
    @given(
        phase=st.floats(-2 * math.pi, 2 * math.pi),
        magnitude=st.floats(0.0, 1.0),
        theta=st.floats(-math.pi, math.pi),
        r=st.floats(-math.log(2.0), math.log(2.0)),
        beta=st.complex_numbers(max_magnitude=2.0),
        n=st.integers(0, 5),
    )
    def test_laws_match_the_channel(self, phase, magnitude, theta, r, beta, n):
        c0 = magnitude * cmath.exp(1j * phase)
        ce = magnitude**2
        for state, rho_in in (
            (Squeezed(r, theta), squeezed_dm(r, theta, 60)),
            (Coherent(beta), coherent_dm(beta, 40)),
            (Fock(n), fock_dm(n, 20)),
        ):
            var_x, var_y, _ = quadrature_moments(apply_loss_channel(rho_in, c0))
            law = output_variances(state, ce, phase)
            assert abs(law.var_x - var_x) <= 1e-9 and abs(law.var_y - var_y) <= 1e-9
        channel = fidelity(Coherent(beta), apply_loss_channel(coherent_dm(beta, 40), c0))
        assert abs(coherent_fidelity(abs(beta) ** 2, ce, phase) - channel) <= 1e-9

    def test_squeezed_helper_has_the_squeezed_moments(self):
        for r, theta in ((math.log(2.0), 0.0), (0.3, 1.1), (-0.5, -2.0)):
            var_x, var_y = _old_variance_law(Squeezed(r, theta), 1.0)
            moments = quadrature_moments(squeezed_dm(r, theta, 60))
            assert moments == pytest.approx((var_x, var_y, math.sinh(2 * r) * math.sin(theta) / 4), abs=1e-12)

    @pytest.mark.parametrize("state", LAW_STATES, ids=repr)
    def test_phase_0_keeps_the_old_law_on_the_ce_grids(self, state):
        ces = np.concatenate(
            [np.linspace(0.0, 1.0, 101)]
            + [np.minimum(np.abs(_sweep_amplitudes(config, 401)) ** 2, 1.0) for config in [{}, *SWEEP_CONFIGS.values()]]
        )
        old = np.array([_old_variance_law(state, ce) for ce in ces.tolist()])
        stacked = output_variances(state, ces, np.zeros_like(ces))
        assert np.array_equal(_bits(np.column_stack(stacked)), _bits(old))
        singles = [output_variances(state, ce, 0.0) for ce in ces.tolist()]
        assert np.array_equal(_bits(singles), _bits(old))
        if isinstance(state, Coherent):
            fidelities = [coherent_fidelity(abs(state.beta) ** 2, ce, 0.0) for ce in ces.tolist()]
            old = [math.exp(-abs(state.beta) ** 2 * (1.0 - math.sqrt(ce)) ** 2 / 2.0) for ce in ces.tolist()]
            assert np.array_equal(_bits(fidelities), _bits(old))
            stacked = coherent_fidelity(abs(state.beta) ** 2, ces, np.zeros_like(ces))
            assert np.array_equal(_bits(stacked), _bits(old))

    def test_coherent_fidelity_squares_by_products_and_takes_math_exp(self):
        rng = np.random.default_rng(31)
        nbars, ces, phases = (rng.uniform(low, high, 100_000) for low, high in ((0.0, 20.0), (0.0, 1.0), (-7.0, 7.0)))
        want = []
        for nbar, ce, phase in zip(nbars.tolist(), ces.tolist(), phases.tolist()):
            r, s = math.sqrt(ce), math.sin(phase / 2)
            want.append(math.exp(-nbar * ((1 - r) * (1 - r) + 4 * r * (s * s)) / 2))
        assert np.array_equal(_bits(coherent_fidelity(nbars, ces, phases)), _bits(want))
        # a stack of one is the number's law, and a number (or a 0-d array) gives a float
        single = coherent_fidelity(nbars[0], ces[0], phases[0])
        assert type(single) is float and type(coherent_fidelity(np.float64(1.0), np.array(0.5), 0)) is float
        assert np.array_equal(_bits(coherent_fidelity(nbars[:1], ces[:1], phases[:1])), _bits([single]))
        assert _bits(single) == _bits(want[0])

    @pytest.mark.parametrize("state", [s for s in LAW_STATES if not isinstance(s, Squeezed)], ids=repr)
    def test_isotropic_inputs_keep_their_bits_at_any_phase(self, state):
        rng = np.random.default_rng(28)
        ces, phases = rng.uniform(0.0, 1.0, 500), rng.uniform(-10.0, 10.0, 500)
        turned = output_variances(state, ces, phases)
        assert np.array_equal(_bits(np.column_stack(turned)), _bits(output_variances(state, ces, 0.0)).T)

    @pytest.mark.parametrize(
        "state", [Fock(n) for n in range(MAX_FOCK_LEVEL + 1)] + [Coherent(1.3 - 0.4j), Squeezed(0.0)], ids=repr
    )
    def test_skipped_rotation_equals_the_rotation_formula(self, state):
        # cov_xy = 0 and var_x = var_y: the law skips sin^2(phase) (var_y - var_x) + sin(2 phase) cov_xy, which adds 0
        rng = np.random.default_rng(38)
        ces, phases = rng.uniform(0.0, 1.0, 1000), rng.uniform(-10.0, 10.0, 1000)
        phases[:6] = [0.0, -0.0, math.pi, -1e300, 1e300, 5e-324]
        var = 0.25 if not isinstance(state, Fock) else (2 * state.n + 1) / 4.0
        turn, shear = np.sin(phases) ** 2, np.sin(2 * phases) * 0.0
        rotated = var + turn * (var - var) + shear, var + turn * (var - var) - shear
        want = _bits(np.column_stack([ces * v + (1.0 - ces) / 4.0 for v in rotated]))
        assert np.array_equal(_bits(np.column_stack(output_variances(state, ces, phases))), want)
        assert np.array_equal(_bits([output_variances(state, ces[k], phases[k]) for k in range(20)]), want[:20])
        # a number and a stack still broadcast to the stack, either way round
        one_ce = output_variances(state, ces[:1], phases)
        assert np.array_equal(_bits(np.column_stack(one_ce)), _bits([output_variances(state, ces[0], 0.0)] * 1000))
        assert output_variances(state, 0.5, phases).var_x.shape == output_variances(state, ces, 0.0).var_y.shape

    def test_squeezed_input_still_turns_with_the_phase(self):
        rng = np.random.default_rng(39)
        ces, phases = rng.uniform(0.01, 1.0, 1000), rng.uniform(0.1, 1.4, 1000)
        for state in (Squeezed(0.3), Squeezed(-0.3), Squeezed(0.3, -1.1)):
            turned, still = output_variances(state, ces, phases), output_variances(state, ces, 0.0)
            assert np.all(turned.var_x != still.var_x) and np.all(turned.var_y != still.var_y)

    @pytest.mark.parametrize("state", LAW_STATES, ids=repr)
    def test_variance_law_reads_lists_as_the_equal_arrays(self, state):
        # "numbers or arrays": a list of ce or of phases gives the bits of the equal ndarray
        rng = np.random.default_rng(33)
        ces, phases = rng.uniform(0.0, 1.0, 50), rng.uniform(-7.0, 7.0, 50)
        want = _bits(np.column_stack(output_variances(state, ces, phases)))
        for ce, phase in ((ces.tolist(), phases), (ces, phases.tolist()), (ces.tolist(), phases.tolist())):
            assert np.array_equal(_bits(np.column_stack(output_variances(state, ce, phase))), want)

    @pytest.mark.parametrize("phase", [float("nan"), math.inf, -math.inf])
    def test_a_non_finite_phase_is_rejected(self, phase):
        message = rf"^phase must be finite, got {phase}$"
        with pytest.raises(ValueError, match=message):
            coherent_fidelity(1.0, 0.5, phase)
        with pytest.raises(ValueError, match=message):
            coherent_fidelity(1.0, np.full(3, 0.5), np.array([0.0, phase, math.nan]))
        for state in (Fock(1), Squeezed(0.3)):
            with pytest.raises(ValueError, match=message):
                output_variances(state, 0.5, phase)
            with pytest.raises(ValueError, match=message):
                output_variances(state, np.full(3, 0.5), np.array([0.0, phase, math.nan]))


class TestInputGuards:
    def test_fock_level_must_fit_the_dimension(self):
        assert fock_dm(19)[19, 19] == 1.0
        with pytest.raises(DimensionTooSmall, match="^Fock level 20 does not fit in dimension 20$"):
            fock_dm(20)

    @pytest.mark.parametrize("n", [-1, -6])
    def test_fock_level_must_not_be_negative(self, n):
        # a negative level would index the basis from its end
        with pytest.raises(ValueError, match=f"^a Fock level must be >= 0, got {n}$"):
            fock_dm(n, 5)
        with pytest.raises(ValueError, match=f"^a Fock level must be >= 0, got {n}$"):
            fidelity(Fock(n), fock_dm(4, 5))

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), r"not Hermitian: max deviation 1\.000e-01"),
            (np.diag([0.5, 0.4]), r"trace off by 1\.000e-01"),
            (np.diag([1.5, -0.5]), r"has eigenvalue -5\.000e-01"),
        ],
        ids=["hermiticity", "trace", "eigenvalue"],
    )
    def test_density_matrix_checks(self, rho, message):
        validate_density_matrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match=f"^density matrix {message}$"):
            validate_density_matrix(rho)

    def test_unknown_input_state(self):
        with pytest.raises(TypeError, match="^unknown input state str$"):
            output_variances("fock", 1.0, 0.0)


def test_states_takes_the_channel_amplitude_as_a_number():
    # the state layer does not reach into the propagation layers for C_0
    tree = ast.parse(Path(states.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported.isdisjoint({"transfer", "spectral", "noise"})
