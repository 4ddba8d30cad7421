import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

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
    input_variances,
    output_variance,
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
    """One call on a 1-D stack of amplitudes: the shape the CLI sweeps use."""

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
                oracle = beam_splitter_oracle(rho, abs(c0) ** 2, dim)
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
        out = beam_splitter_oracle(rho, 1.0, 16)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_full_loss(self):
        out = beam_splitter_oracle(fock_dm(3, 10), 0.0, 10)
        assert out[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_coherent_transmission(self):
        out = beam_splitter_oracle(coherent_dm(1.0, 20), 0.9612, 20)
        target = coherent_dm(math.sqrt(0.9612), 20)
        assert trace_distance(out, target) < 1e-8

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            beam_splitter_oracle(fock_dm(10, 12), 0.5, 12)
        with pytest.raises(DimensionTooSmall):
            beam_splitter_oracle(fock_dm(3, 24), 0.5, 4)

    def test_transmissivity_bounds(self):
        with pytest.raises(ValueError):
            beam_splitter_oracle(fock_dm(1, 8), 1.5, 8)

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
                oracle = beam_splitter_oracle(rho, t, dim)
                _assert_routes_agree(kraus, series, oracle)

    def test_coherent_inputs(self):
        dim = 24
        for beta in (0.5, 1.0, 2.0, 1.0 + 1.0j):
            rho = coherent_dm(beta, dim)
            for t in (0.25, 0.9612):
                kraus = apply_loss_channel(rho, math.sqrt(t))
                series = projector_series_oracle(rho, math.sqrt(t))
                oracle = beam_splitter_oracle(rho, t, dim)
                _assert_routes_agree(kraus, series, oracle)

    def test_complex_amplitude_phase_adjustment(self):
        # a complex channel amplitude equals the real-transmissivity beam
        # splitter followed by the phase rotation exp(-i arg(c0) n)
        dim = 20
        c0 = math.sqrt(0.7) * np.exp(0.8j)
        rho = coherent_dm(1.0, dim)
        kraus = apply_loss_channel(rho, c0)
        series = projector_series_oracle(rho, c0)
        oracle = beam_splitter_oracle(rho, abs(c0) ** 2, dim)
        phase = np.exp(-1j * np.angle(c0) * np.arange(dim))
        rotated = phase[:, None] * oracle * np.conj(phase)[None, :]
        _assert_routes_agree(kraus, series, rotated)


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
        assert coherent_fidelity(1.0, 0.96) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.99980, abs=1e-5)

    def test_matrix_route_matches_closed_form(self):
        for ce in (0.25, 0.5, 0.9612):
            out = apply_loss_channel(coherent_dm(1.0, 20), math.sqrt(ce))
            matrix_f = fidelity(Coherent(1.0), out)
            assert matrix_f == pytest.approx(coherent_fidelity(1.0, ce), abs=1e-9)

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
        coh = [coherent_fidelity(1.0, c) for c in ces]
        assert np.all(np.diff(fock) >= 0)
        assert np.all(np.diff(coh) >= 0)

    def test_bright_coherent_converts_worse(self):
        for ce in np.linspace(0.0, 0.99, 34):
            assert coherent_fidelity(10.0, ce) < coherent_fidelity(1.0, ce)

    def test_squeezed_input_unsupported(self):
        with pytest.raises(TypeError):
            fidelity(Squeezed(0.5), fock_dm(0, 5))

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
        assert input_variances(Coherent(0.7 + 2.0j)) == (0.25, 0.25)

    def test_fock_input(self):
        assert input_variances(Fock(1)) == (0.75, 0.75)
        assert input_variances(Fock(3)) == (1.75, 1.75)

    def test_squeezed_factor_four(self):
        v = input_variances(Squeezed(math.log(2.0)))
        assert v.var_x == pytest.approx(1.0, rel=1e-12)
        assert v.var_y == pytest.approx(0.0625, rel=1e-12)
        # a variance ratio of 4 relative to vacuum is 6.02 dB
        assert 10 * math.log10(v.var_x / 0.25) == pytest.approx(6.0206, abs=1e-3)

    def test_output_variance_examples(self):
        assert output_variance(0.25, 0.37) == pytest.approx(0.25, abs=1e-15)
        assert output_variance(1.0, 1.0) == 1.0
        assert output_variance(0.87, 0.0) == 0.25

    def test_output_variance_validation(self):
        with pytest.raises(ValueError):
            output_variance(-0.1, 0.5)
        with pytest.raises(ValueError):
            output_variance(0.25, 1.2)

    def test_output_variance_of_an_array_matches_each_coefficient(self):
        coeffs = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
        variances = output_variance(1.3, coeffs)
        assert variances.tolist() == [output_variance(1.3, float(c)) for c in coeffs]
        assert isinstance(output_variance(1.3, 0.5), float)

    @pytest.mark.parametrize("bad", [1.0 + 4e-16, -1e-300, float("nan")])
    def test_output_variance_names_the_first_coefficient_outside(self, bad):
        coeffs = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match=rf"^power coefficient must lie in \[0, 1\], got {bad!r}$"):
            output_variance(0.25, coeffs)

    def test_fock_outputs_stay_symmetric(self):
        for ce in np.linspace(0.0, 1.0, 21):
            v = output_variances(Fock(1), float(ce))
            assert v.var_x == v.var_y

    def test_heisenberg_bound_preserved(self):
        states = [Coherent(1.0), Squeezed(0.3), Squeezed(math.log(2.0)), Squeezed(-1.1)]
        for state in states:
            for coeff in np.linspace(0.0, 1.0, 21):
                v = output_variances(state, float(coeff))
                assert v.var_x * v.var_y >= 1 / 16 - 1e-12

    def test_squeezed_angle_rotates_quadratures(self):
        v0 = input_variances(Squeezed(0.5, theta=0.0))
        vpi = input_variances(Squeezed(0.5, theta=math.pi))
        assert v0.var_x == pytest.approx(vpi.var_y, rel=1e-12)
        assert v0.var_y == pytest.approx(vpi.var_x, rel=1e-12)


def test_states_takes_the_channel_amplitude_as_a_number():
    # the state layer does not reach into the propagation layers for C_0
    tree = ast.parse(Path(states.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported.isdisjoint({"transfer", "spectral", "noise"})
