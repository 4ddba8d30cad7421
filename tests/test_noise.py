import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from eitqfc import noise, transfer
from eitqfc.errors import NonConvergedIntegral, SingularSystem
from eitqfc.noise import (
    DiffusionMatrix,
    default_window,
    diffusion_matrix,
    eta1,
    eta2,
    langevin_photon_noise,
)
from eitqfc.params import SystemParams, symmetric_params
from eitqfc.spectral import solve_susceptibilities, solve_susceptibility_stack
from eitqfc.transfer import (
    coupling_matrix,
    expm2,
    noise_kernel_block,
    noise_kernel_gram,
    noise_kernels,
    resolved_coefficients,
)

REFERENCE_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "noise_reference.json"


def _dense_hermitian() -> DiffusionMatrix:
    a = np.array([[0.3, 0.1 + 0.2j, -0.05j], [0.02, 0.2, 0.07 - 0.01j], [0.1j, 0.03, 0.4]])
    return DiffusionMatrix(entries=(a + a.conj().T) / 2)


def _off_diagonal() -> DiffusionMatrix:
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 2] = 0.3 - 0.4j
    return DiffusionMatrix(entries=entries)


def midpoint_noise_integral(params, diffusion, kernel, n_omega=2048, n_z=2048):
    """Independent midpoint-rule evaluation of the same windowed integral."""
    window = default_window(params)
    domega = 2 * window / n_omega
    omegas = -window + (np.arange(n_omega) + 0.5) * domega
    dz = 1.0 / n_z
    zs = (np.arange(n_z) + 0.5) * dz
    total = 0.0
    for w in omegas:
        coeffs = solve_susceptibilities(params, float(w))
        raw = expm2(coupling_matrix(coeffs))
        ker = noise_kernels(coeffs, raw, zs)
        k = ker.p if kernel == "P" else ker.q
        form = np.einsum("az,ab,bz->z", k, diffusion.entries, k.conj()).real
        total += domega * dz * form.sum()
    return total / (2 * np.pi)


class TestDiffusionMatrix:
    def test_weak_probe_matrix_is_zero(self):
        d = diffusion_matrix(0.0, 0.0)
        assert np.all(d.entries == 0.0)
        assert d.is_zero

    def test_half_populations(self):
        d = diffusion_matrix(0.5, 0.5)
        assert d.entries[0, 0] == 0.5
        assert np.count_nonzero(d.entries) == 1

    def test_linearity_in_populations(self):
        assert diffusion_matrix(1.0, 0.0).entries[0, 0] == 0.5
        assert diffusion_matrix(0.25, 0.75).entries[0, 0] == 0.5

    def test_population_bounds(self):
        with pytest.raises(ValueError):
            diffusion_matrix(-0.1, 0.0)
        with pytest.raises(ValueError):
            diffusion_matrix(0.0, 1.5)


class TestNoiseIntegrals:
    def test_zero_with_default_diffusion(self):
        p = symmetric_params(4.0)
        assert langevin_photon_noise(p) == 0.0
        assert eta1(p) == 0.0

    def test_zero_in_empty_medium(self):
        p = symmetric_params(0.0)
        d = diffusion_matrix(0.5, 0.5)
        assert langevin_photon_noise(p, d) == 0.0
        assert eta1(p, d) == 0.0

    def test_injected_diffusion_eta1_against_midpoint_oracle(self):
        p = symmetric_params(4.0)
        d = diffusion_matrix(0.5, 0.5)
        value = eta1(p, d)
        assert value > 0.0
        oracle = midpoint_noise_integral(p, d, "Q")
        assert abs(value - oracle) < 1e-6 * oracle

    def test_injected_diffusion_photon_noise_against_midpoint_oracle(self):
        p = symmetric_params(4.0)
        d = diffusion_matrix(0.5, 0.5)
        value = langevin_photon_noise(p, d)
        assert value > 0.0
        oracle = midpoint_noise_integral(p, d, "P")
        assert abs(value - oracle) < 1e-6 * oracle

    def test_bilinearity_in_diffusion(self):
        p = symmetric_params(4.0)
        d = diffusion_matrix(0.5, 0.5)
        doubled = DiffusionMatrix(entries=2 * d.entries)
        assert eta1(p, doubled) == pytest.approx(2 * eta1(p, d), rel=1e-10)
        assert langevin_photon_noise(p, doubled) == pytest.approx(
            2 * langevin_photon_noise(p, d), rel=1e-10
        )

    @pytest.mark.parametrize(
        "diffusion",
        [diffusion_matrix(0.5, 0.5), _dense_hermitian(), _off_diagonal()],
        ids=["einstein", "dense-hermitian", "off-diagonal"],
    )
    @pytest.mark.parametrize("kernel", ["P", "Q"])
    def test_closed_form_z_matches_gauss_legendre_in_z(self, diffusion, kernel):
        # the first omega level, its z integral by 256-node Gauss-Legendre over the kernel block
        p = SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8 * np.exp(0.3j), gamma21=0.02)
        window = default_window(p)
        omegas, omega_weights = noise.gauss_legendre_grid(-window, window, noise.N_OMEGA)
        z, z_weights = noise.gauss_legendre_grid(0.0, 1.0, 256)
        k = noise_kernel_block(solve_susceptibility_stack(p, omegas), z, 0 if kernel == "P" else 1)
        form = np.einsum("...a,ab,...b->...", k, diffusion.entries, k.conj()).real
        expected = omega_weights @ (form @ z_weights) / (2 * np.pi)
        got = noise._integral_on_grid(p, diffusion, kernel, omegas, omega_weights)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("diffusion", [None, diffusion_matrix(0.5, 0.5)], ids=["zero", "einstein"])
    def test_one_spectral_solve_per_pass(self, monkeypatch, diffusion):
        # levels 0 and 1 share one solve of 513 + 1026 nodes; a later level is one solve of its own
        sizes, divided_differences = [], []
        solve, dd = noise.solve_susceptibility_stack, transfer._exp_divided_difference

        def counting_solve(params, omegas):
            sizes.append(len(omegas))
            return solve(params, omegas)

        def counting_dd(x):
            divided_differences.append(x.shape)
            return dd(x)

        monkeypatch.setattr(noise, "solve_susceptibility_stack", counting_solve)
        monkeypatch.setattr(transfer, "_exp_divided_difference", counting_dd)
        p = symmetric_params(4.0)
        value = eta1(p, diffusion)  # both values converge at the second level
        assert sizes == [1539]
        assert (value == 0.0) == (not divided_differences) == (diffusion is None)

        sizes.clear()
        with pytest.raises(NonConvergedIntegral):
            eta1(p, diffusion, max_doublings=0)
        assert sizes == [513]

        sizes.clear()
        monkeypatch.setattr(noise, "N_OMEGA", 65)
        monkeypatch.setattr(noise, "INTEGRAL_TOL", 1e-30)
        if diffusion is None:  # two zeros agree at once
            assert eta1(p, diffusion, max_doublings=2) == 0.0
            assert sizes == [195]
        else:
            with pytest.raises(NonConvergedIntegral, match="after 3 grid level"):
                eta1(p, diffusion, max_doublings=2)
            assert sizes == [195, 260]

    @pytest.mark.parametrize("integral", [eta1, langevin_photon_noise])
    def test_negative_max_doublings_is_rejected(self, integral):
        with pytest.raises(ValueError, match="max_doublings must be >= 0, got -1"):
            integral(symmetric_params(4.0), diffusion_matrix(0.5, 0.5), max_doublings=-1)

    @pytest.mark.parametrize("diffusion", [None, diffusion_matrix(0.5, 0.5)])
    def test_singular_system_names_the_frequency(self, diffusion):
        # no Rabi fields and no dephasing: the response is singular at the omega = 0 node
        p = SystemParams(alpha=2.0, omega_c=0.0, omega_d=0.0)
        with pytest.raises(SingularSystem, match=r"omega=0\.0 "):
            langevin_photon_noise(p, diffusion)

    def test_single_level_cannot_converge(self):
        p = symmetric_params(4.0)
        with pytest.raises(NonConvergedIntegral) as exc:
            eta1(p, diffusion_matrix(0.5, 0.5), max_doublings=0)
        message = str(exc.value)
        assert "after 1 grid level(s)" in message
        assert "513 omega nodes" in message
        assert "one level has nothing to compare" in message

    def test_non_convergence_reports_the_last_change(self, monkeypatch):
        p = symmetric_params(4.0)
        monkeypatch.setattr(noise, "N_OMEGA", 65)
        monkeypatch.setattr(noise, "INTEGRAL_TOL", 1e-30)
        with pytest.raises(NonConvergedIntegral) as exc:
            eta1(p, diffusion_matrix(0.5, 0.5), max_doublings=1)
        message = str(exc.value)
        assert "after 2 grid level(s), the last with 130 omega nodes" in message
        change = float(message.split("last |change| ")[1].split(",")[0])
        assert 1e-30 <= change < 1e-3
        assert "tol 1.000e-30" in message


class TestLiveSlots:
    @pytest.mark.parametrize(
        "diffusion",
        [diffusion_matrix(0.5, 0.5), _dense_hermitian(), _off_diagonal()],
        ids=["einstein", "dense-hermitian", "off-diagonal"],
    )
    @pytest.mark.parametrize("row", [0, 1], ids=["P", "Q"])
    def test_form_matches_the_full_contraction(self, diffusion, row):
        p = SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8 * np.exp(0.3j), gamma21=0.02)
        omegas = np.linspace(-8.0, 8.0, 33)
        gram = noise_kernel_gram(solve_susceptibility_stack(p, omegas), row)  # all three slots
        expected = np.einsum("nab,ab->n", gram, diffusion.entries).real
        got = noise._form(p, diffusion.entries, row, omegas)
        assert got.shape == expected.shape == (33,)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_zero_diffusion_builds_no_kernels(self, monkeypatch):
        shapes = []
        original = transfer._sinch  # every sinch, per frequency or per (omega, z) pair

        def recording(w):
            shapes.append(np.shape(w))
            return original(w)

        monkeypatch.setattr(transfer, "_sinch", recording)
        assert eta1(symmetric_params(4.0)) == 0.0
        assert shapes  # the boundary check still solves every frequency
        assert all(len(shape) == 1 for shape in shapes)

    @pytest.mark.parametrize("alpha", [2000.0, 20000.0])
    def test_zero_diffusion_at_large_optical_depth(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert langevin_photon_noise(symmetric_params(alpha)) == 0.0


def test_reference_table():
    # perfbench's stored 2048 x 2048 midpoint integrals at D_21,12 = 1, scaled by the diffusion entry
    d = diffusion_matrix(0.5, 0.5)
    d2112 = d.entries[0, 0].real
    for entry in json.loads(REFERENCE_TABLE.read_text())["entries"]:
        p = symmetric_params(entry["alpha"], entry["rabi"])
        for value, unit in (
            (langevin_photon_noise(p, d), entry["photon_noise_unit"]),
            (eta1(p, d), entry["eta1_unit"]),
        ):
            assert abs(value - d2112 * unit) <= 1e-6 * d2112 * unit, entry


#: P and Q at the 16 reference points with diffusion_matrix(0.5, 0.5), as float.hex: (alpha, rabi, P, Q).
REFERENCE_BITS = (
    (1.346, 1.187, "0x1.0250ea7dbabbbp-4", "0x1.0250ea7dbabbbp-4"),
    (3.392, 1.01, "0x1.dcf0e4425cec4p-4", "0x1.dcf0e4425cec7p-4"),
    (2.698, 0.753, "0x1.9f90a0c69c22fp-4", "0x1.9f90a0c69c230p-4"),
    (4.137, 1.786, "0x1.0b0259cb1f90bp-3", "0x1.0b0259cb1f90bp-3"),
    (6.057, 1.138, "0x1.410941f24b764p-3", "0x1.410941f24b763p-3"),
    (2.391, 1.101, "0x1.820ce94d3ee7bp-4", "0x1.820ce94d3ee79p-4"),
    (3.334, 0.561, "0x1.d4fc0680ab834p-4", "0x1.d4fc0680ab832p-4"),
    (6.823, 1.679, "0x1.56c5b2f7fcfe0p-3", "0x1.56c5b2f7fcfe0p-3"),
    (4.579, 1.764, "0x1.19ea326c46f66p-3", "0x1.19ea326c46f66p-3"),
    (3.976, 0.724, "0x1.02cd1b8f9ba15p-3", "0x1.02cd1b8f9ba15p-3"),
    (7.75, 1.337, "0x1.670e62119cc82p-3", "0x1.670e62119cc82p-3"),
    (5.979, 0.945, "0x1.3d00f8d316d88p-3", "0x1.3d00f8d316d89p-3"),
    (2.046, 1.757, "0x1.5c45b56fe0b16p-4", "0x1.5c45b56fe0b16p-4"),
    (3.083, 0.641, "0x1.c13c1778ce12ap-4", "0x1.c13c1778ce12dp-4"),
    (5.278, 0.697, "0x1.28ec63f8ef135p-3", "0x1.28ec63f8ef135p-3"),
    (4.923, 1.53, "0x1.2496fe2b970e1p-3", "0x1.2496fe2b970e1p-3"),
)


def test_reference_points_bit_for_bit():
    # the fused first two levels and the screened condition test leave every bit of P and Q in place
    d = diffusion_matrix(0.5, 0.5)
    table = [(e["alpha"], e["rabi"]) for e in json.loads(REFERENCE_TABLE.read_text())["entries"]]
    assert table == [(alpha, rabi) for alpha, rabi, _, _ in REFERENCE_BITS]
    for alpha, rabi, p_bits, q_bits in REFERENCE_BITS:
        p = symmetric_params(alpha, rabi)
        assert (langevin_photon_noise(p, d).hex(), eta1(p, d).hex()) == (p_bits, q_bits), (alpha, rabi)


class TestEta2:
    def test_empty_medium_is_identity_channel(self):
        assert eta2(symmetric_params(0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_crossover_value(self):
        assert eta2(symmetric_params(4.0)) == pytest.approx(0.5, abs=1e-13)

    def test_closed_form(self):
        for alpha in (0.0, 4.0, 40.0, 400.0, 17.3):
            expected = 8 * alpha / (4 + alpha) ** 2
            assert abs(eta2(symmetric_params(alpha)) - expected) < 1e-12

    def test_vanishes_at_large_od(self):
        assert abs(eta2(symmetric_params(1e6))) < 1e-5

    def test_commutator_consistency(self):
        for alpha in (0.0, 4.0, 40.0, 400.0):
            p = symmetric_params(alpha)
            _, _, c0, d0 = resolved_coefficients(p, 0.0)
            assert abs(abs(c0) ** 2 + abs(d0) ** 2 + eta2(p) - 1.0) < 1e-12

    def test_nonnegative_over_od_range(self):
        for alpha in np.linspace(0.0, 500.0, 26):
            assert eta2(symmetric_params(float(alpha))) >= 0.0
