import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitqfc import noise, transfer
from eitqfc.errors import IllPosedBoundary, NonConvergedIntegral, SingularSystem
from eitqfc.noise import (
    DiffusionMatrix,
    default_window,
    diffusion_matrix,
    eta1,
    eta2,
    langevin_photon_noise,
)
from eitqfc.params import GAMMA, SystemParams, symmetric_params
from eitqfc.spectral import solve_susceptibilities, solve_susceptibility_stack
from eitqfc.transfer import (
    coupling_matrix,
    expm2,
    noise_kernel_block,
    noise_kernel_gram,
    noise_kernels,
    propagation_sweep,
)

REFERENCE_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "noise_reference.json"


def _dense_hermitian() -> DiffusionMatrix:
    a = np.array([[0.3, 0.1 + 0.2j, -0.05j], [0.02, 0.2, 0.07 - 0.01j], [0.1j, 0.03, 0.4]])
    return DiffusionMatrix(entries=(a + a.conj().T) / 2)


def _off_diagonal() -> DiffusionMatrix:
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 2] = 0.3 - 0.4j
    return DiffusionMatrix(entries=entries)


def _parity_phases(params) -> np.ndarray:
    """phi = (1, -e^{-2i arg omega_c}, -e^{-2i arg omega_d}): the response at -omega is Phi conj(.) Phi^H at omega."""
    return np.array([1.0, -np.exp(-2j * np.angle(params.omega_c)), -np.exp(-2j * np.angle(params.omega_d))])


def midpoint_noise_integrals(params, diffusion, n_omega=2048, n_z=2048):
    """Independent midpoint-rule evaluation of the same windowed integrals, (P, Q) from one pass."""
    window = default_window(params)
    domega = 2 * window / n_omega
    omegas = -window + (np.arange(n_omega) + 0.5) * domega
    dz = 1.0 / n_z
    zs = (np.arange(n_z) + 0.5) * dz
    totals = np.zeros(2)
    for w in omegas:
        coeffs = solve_susceptibilities(params, float(w))
        raw = expm2(coupling_matrix(coeffs))
        ker = noise_kernels(coeffs, raw, zs)
        for k, kernel in enumerate((ker.p, ker.q)):
            form = np.einsum("az,ab,bz->z", kernel, diffusion.entries, kernel.conj()).real
            totals[k] += domega * dz * form.sum()
    return tuple(totals / (2 * np.pi))


@pytest.fixture(scope="module")
def midpoint_oracle():
    """The midpoint (P, Q) at alpha = 4 with diffusion_matrix(0.5, 0.5), shared by the tests that read it."""
    return dict(zip("PQ", midpoint_noise_integrals(symmetric_params(4.0), diffusion_matrix(0.5, 0.5))))


def dense_composite(params, diffusion, kernel):
    """A fixed rule for large optical depth: 64 Gauss-Legendre nodes on each of 16 hand-placed panels.

    The edges are 0, +-1e-6, +-1e-5, ..., +-1 and +-W; the form is noise._form's.
    """
    positive = np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, default_window(params)])
    edges = np.concatenate([-positive[::-1], [0.0], positive])
    x, w = np.polynomial.legendre.leggauss(64)
    half = np.diff(edges)[:, None] / 2
    nodes, weights = (edges[:-1, None] + half * (x + 1)).ravel(), (half * w).ravel()
    return weights @ noise._form(params, diffusion.entries, 0 if kernel == "P" else 1, nodes) / (2 * np.pi)


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

    @pytest.mark.parametrize(
        "entries",
        [np.eye(2), np.zeros((3, 4)), np.zeros(9), np.diag([0.5, np.nan, 0.0]), np.diag([np.inf, 0.0, 0.0])],
        ids=["2x2", "3x4", "flat", "nan", "inf"],
    )
    def test_entries_that_are_not_a_finite_3x3_array_are_rejected(self, entries):
        with pytest.raises(ValueError, match="diffusion entries must be a finite 3x3 array"):
            DiffusionMatrix(entries=entries)

    def test_entries_are_stored_as_a_complex_array(self):
        d = DiffusionMatrix(entries=[[0.5, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert d.entries.dtype == complex and d.entries.shape == (3, 3)
        assert langevin_photon_noise(symmetric_params(4.0), d) == langevin_photon_noise(
            symmetric_params(4.0), diffusion_matrix(0.5, 0.5)
        )

    def test_equal_matrices_are_equal_and_hash_alike(self):
        a, b = diffusion_matrix(0.5, 0.5), DiffusionMatrix(entries=np.diag([0.5, 0.0, 0.0]))
        assert a == b and hash(a) == hash(b)
        assert {a: "einstein"}[b] == "einstein"
        # -0.0 equals 0.0, so a matrix of negative zeros hashes as the zero matrix
        negative_zeros = DiffusionMatrix(entries=-np.zeros((3, 3)))
        assert negative_zeros == diffusion_matrix() and hash(negative_zeros) == hash(diffusion_matrix())

    def test_different_matrices_are_unequal(self):
        assert diffusion_matrix(0.5, 0.5) != diffusion_matrix(0.5, 0.0)
        assert diffusion_matrix(0.5, 0.5) != _off_diagonal()
        assert diffusion_matrix() != np.zeros((3, 3))
        assert len({diffusion_matrix(0.5, 0.5), diffusion_matrix(0.5, 0.0), _off_diagonal()}) == 3

    def test_entries_are_a_read_only_copy(self):
        entries = np.diag([0.5, 0.0, 0.0]).astype(complex)
        d = DiffusionMatrix(entries=entries)
        with pytest.raises(ValueError, match="read-only"):
            d.entries[0, 0] = 1.0
        entries[0, 0] = 1.0  # the caller's array stays writable and does not reach the matrix
        assert d == diffusion_matrix(0.5, 0.5)

    def test_population_bounds(self):
        with pytest.raises(ValueError):
            diffusion_matrix(-0.1, 0.0)
        with pytest.raises(ValueError):
            diffusion_matrix(0.0, 1.5)
        # a value out of range on its own keeps the range message, even when the sum is also too large
        with pytest.raises(ValueError, match=r"^populations must lie in \[0, 1\], got 1\.5, 0\.0$"):
            diffusion_matrix(1.5, 0.0)
        # one atom's two excited populations cannot add up to more than 1
        with pytest.raises(ValueError, match=r"^populations must add up to at most 1, got 0\.8 \+ 0\.8$"):
            diffusion_matrix(0.8, 0.8)
        assert diffusion_matrix(0.5, 0.5).entries[0, 0] == GAMMA / 2  # a sum of exactly 1 is allowed


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

    def test_injected_diffusion_eta1_against_midpoint_oracle(self, midpoint_oracle):
        p = symmetric_params(4.0)
        d = diffusion_matrix(0.5, 0.5)
        value = eta1(p, d)
        assert value > 0.0
        oracle = midpoint_oracle["Q"]
        assert abs(value - oracle) < 1e-6 * oracle

    def test_injected_diffusion_photon_noise_against_midpoint_oracle(self, midpoint_oracle):
        p = symmetric_params(4.0)
        d = diffusion_matrix(0.5, 0.5)
        value = langevin_photon_noise(p, d)
        assert value > 0.0
        oracle = midpoint_oracle["P"]
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
        # the seed panels' Kronrod rule in omega, mirrored onto [-W, W], its z integral by 256-node
        # Gauss-Legendre over the kernel block
        p = SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8 * np.exp(0.3j), gamma21=0.02)
        positive = noise._seed_edges(p)
        edges = np.concatenate([-positive[:0:-1], positive])
        nodes, half = noise._kronrod_nodes(edges[:-1], edges[1:])
        omegas, omega_weights = nodes.ravel(), (half[:, None] * noise._KRONROD_WEIGHTS).ravel()
        x, w = np.polynomial.legendre.leggauss(256)
        z, z_weights = (x + 1) / 2, w / 2  # on [0, 1]
        k = noise_kernel_block(solve_susceptibility_stack(p, omegas), z)[:, :, 0 if kernel == "P" else 1]
        form = np.einsum("...a,ab,...b->...", k, diffusion.entries, k.conj()).real
        expected = omega_weights @ (form @ z_weights) / (2 * np.pi)
        got = omega_weights @ noise._form(p, diffusion.entries, 0 if kernel == "P" else 1, omegas) / (2 * np.pi)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("diffusion", [None, diffusion_matrix(0.5, 0.5)], ids=["zero", "einstein"])
    def test_one_spectral_solve_per_pass(self, monkeypatch, diffusion):
        # the seed pass is one solve of 7 panels x 21 Kronrod nodes + 8 edges on [0, W]; each refinement round is
        # one more, and no pass solves a negative frequency: the integrand is folded onto omega >= 0
        sizes, divided_differences, lowest = [], [], []
        solve, dd = noise.solve_susceptibility_stack, transfer._exp_divided_differences

        def counting_solve(params, omegas):
            sizes.append(len(omegas))
            lowest.append(min(omegas))
            return solve(params, omegas)

        def counting_dd(x3, x4):
            divided_differences.append((x3.shape, x4.shape))
            return dd(x3, x4)

        monkeypatch.setattr(noise, "solve_susceptibility_stack", counting_solve)
        monkeypatch.setattr(transfer, "_exp_divided_differences", counting_dd)
        p = symmetric_params(4.0)
        value = eta1(p, diffusion)  # both values converge in the seed pass
        assert sizes == [155]
        assert (value == 0.0) == (not divided_differences) == (diffusion is None)

        sizes.clear()
        monkeypatch.setattr(noise, "INTEGRAL_TOL", 1e-30)
        if diffusion is None:  # every panel's estimate is exactly 0
            assert eta1(p, diffusion, max_doublings=2) == 0.0
            assert sizes == [155]
        else:  # no panel meets its share, so each round bisects them all
            with pytest.raises(NonConvergedIntegral, match="after 2 refinement round"):
                eta1(p, diffusion, max_doublings=2)
            assert sizes == [155, 2 * 7 * 21, 4 * 7 * 21]
        assert lowest and min(lowest) == 0.0

    @pytest.mark.parametrize("integral", [eta1, langevin_photon_noise])
    def test_negative_max_doublings_is_rejected(self, integral):
        with pytest.raises(ValueError, match="max_doublings must be >= 0, got -1"):
            integral(symmetric_params(4.0), diffusion_matrix(0.5, 0.5), max_doublings=-1)

    @pytest.mark.parametrize("bad", [1.5, "2"], ids=["float", "str"])
    def test_max_doublings_that_is_not_an_integer_is_rejected_before_any_solve(self, monkeypatch, bad):
        solves = []
        monkeypatch.setattr(noise, "solve_susceptibility_stack", lambda *args: solves.append(args))
        for integral in (eta1, langevin_photon_noise):
            with pytest.raises(TypeError):
                integral(symmetric_params(4.0), diffusion_matrix(0.5, 0.5), max_doublings=bad)
        assert solves == []

    def test_max_doublings_may_be_a_numpy_integer(self):
        p, d = symmetric_params(4.0), diffusion_matrix(0.5, 0.5)
        assert eta1(p, d, max_doublings=np.int64(2)) == eta1(p, d, max_doublings=2)

    @pytest.mark.parametrize("diffusion", [None, diffusion_matrix(0.5, 0.5)])
    def test_singular_system_names_the_frequency(self, diffusion):
        # no Rabi fields and no dephasing: the response is singular at the omega = 0 node
        p = SystemParams(alpha=2.0, omega_c=0.0, omega_d=0.0)
        with pytest.raises(SingularSystem, match=r"omega=0\.0 "):
            langevin_photon_noise(p, diffusion)

    def test_single_level_cannot_converge(self, monkeypatch):
        # the seed pass alone, held to a tolerance no estimate can meet
        p = symmetric_params(4.0)
        monkeypatch.setattr(noise, "INTEGRAL_TOL", 1e-30)
        with pytest.raises(NonConvergedIntegral) as exc:
            eta1(p, diffusion_matrix(0.5, 0.5), max_doublings=0)
        message = str(exc.value)
        assert "after 0 refinement round(s): 7 panels, 155 omega nodes solved" in message

    def test_non_convergence_reports_the_last_change(self, monkeypatch):
        p = symmetric_params(4.0)
        monkeypatch.setattr(noise, "INTEGRAL_TOL", 1e-30)
        with pytest.raises(NonConvergedIntegral) as exc:
            eta1(p, diffusion_matrix(0.5, 0.5), max_doublings=1)
        message = str(exc.value)
        assert "after 1 refinement round(s): 14 panels, 449 omega nodes solved" in message
        error = float(message.split("last error estimate ")[1].split(",")[0])
        assert 1e-30 <= error < 1e-8
        assert "tol 1.000e-30" in message

    @pytest.mark.parametrize(
        "kernel, alpha, rabi",
        [("P", 20.0, 1.0), ("P", 50.0, 1.0), ("P", 200.0, 1.0), ("P", 1e4, 1.0), ("Q", 200.0, 1.5)],
    )
    def test_large_optical_depth_matches_the_dense_composite_rule(self, kernel, alpha, rabi):
        # the cusp at omega = 0 narrows like 1/alpha^2; the global Gauss-Legendre doubling failed from alpha ~ 50
        p, d = symmetric_params(alpha, rabi), diffusion_matrix(0.01, 0.01)
        start = time.perf_counter()
        value = (langevin_photon_noise if kernel == "P" else eta1)(p, d)
        elapsed = time.perf_counter() - start
        assert abs(value - dense_composite(p, d, kernel)) <= 1e-9
        assert elapsed < 1.0, f"{elapsed:.3f} s"


class TestKronrodTable:
    """The hard-coded qk21 table, checked with numpy alone."""

    def test_gauss_subset_is_the_10_point_gauss_legendre_rule(self):
        x, w = np.polynomial.legendre.leggauss(10)
        gauss = noise._GAUSS_WEIGHTS != 0
        assert np.count_nonzero(gauss) == 10
        assert np.max(np.abs(noise._KRONROD_NODES[gauss] - x)) <= 1e-15
        assert np.max(np.abs(noise._GAUSS_WEIGHTS[gauss] - w)) <= 1e-15

    def test_nodes_ascend_symmetrically_inside_the_interval(self):
        x = noise._KRONROD_NODES
        assert x.shape == (21,) and np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
        assert np.array_equal(x, -x[::-1])

    @pytest.mark.parametrize(
        "weights, degree", [(noise._KRONROD_WEIGHTS, 31), (noise._GAUSS_WEIGHTS, 19)], ids=["K21", "G10"]
    )
    def test_polynomial_degree(self, weights, degree):
        x = noise._KRONROD_NODES
        assert abs(weights.sum() - 2.0) <= 1e-15
        for k in range(degree + 2):
            exact = 2 / (k + 1) if k % 2 == 0 else 0.0
            error = abs(weights @ x**k - exact)
            if k <= degree:
                assert error <= 1e-15, k
            else:  # the first even power beyond the degree is missed
                assert error > 1e-12, k


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


_RABI = st.one_of(
    st.just(0.0),
    st.builds(lambda r, t: r * np.exp(1j * t), st.floats(0.05, 3.0), st.floats(-np.pi, np.pi)),
)


class TestFrequencyParity:
    """G_ab(-omega) = conj(G_ab(omega)) conj(phi_a) phi_b, and the folded rule it licenses."""

    @settings(max_examples=60)
    @given(
        alpha=st.floats(0.01, 200.0),
        omega_c=_RABI,
        omega_d=_RABI,
        gamma31=st.floats(0.2, 2.0),
        gamma41=st.floats(0.2, 2.0),
        gamma21=st.floats(1e-3, 0.5),
        omega=st.floats(1e-3, 30.0),
    )
    def test_gram_at_minus_omega_is_the_conjugate_up_to_the_phases(
        self, alpha, omega_c, omega_d, gamma31, gamma41, gamma21, omega
    ):
        p = SystemParams(alpha, omega_c, omega_d, gamma31, gamma41, gamma21)
        phi = _parity_phases(p)
        stack = solve_susceptibility_stack(p, [omega, -omega])
        for row in (0, 1):
            plus, minus = noise_kernel_gram(stack, row)
            expected = plus.conj() * np.outer(phi.conj(), phi)
            assert np.max(np.abs(minus - expected)) <= 1e-13 * np.max(np.abs(plus)), row

    @pytest.mark.parametrize(
        "diffusion",
        [diffusion_matrix(0.5, 0.5), _dense_hermitian(), _off_diagonal()],
        ids=["einstein", "dense-hermitian", "off-diagonal"],
    )
    @pytest.mark.parametrize("row", [0, 1], ids=["P", "Q"])
    def test_folded_pass_matches_both_halves(self, diffusion, row):
        # one folded pass on the seed panels of [0, W] against d on those panels plus their mirror images
        p = SystemParams(alpha=6.0, omega_c=1.5, omega_d=0.8 * np.exp(0.3j), gamma31=0.7, gamma21=0.02)
        d = diffusion.entries
        folded = d + d.conj() * np.outer(_parity_phases(p), _parity_phases(p).conj())
        edges = noise._seed_edges(p)
        value, _ = noise._panel_pass(p, folded, row, edges[:-1], edges[1:])
        right, _ = noise._panel_pass(p, d, row, edges[:-1], edges[1:])
        left, _ = noise._panel_pass(p, d, row, -edges[1:], -edges[:-1])  # the mirror image of each panel
        both = right + left
        assert np.max(np.abs(value - both)) <= 1e-13 * np.max(np.abs(both))

    @pytest.mark.parametrize(
        "diffusion",
        [diffusion_matrix(0.5, 0.5), _dense_hermitian(), _off_diagonal()],
        ids=["einstein", "dense-hermitian", "off-diagonal"],
    )
    @pytest.mark.parametrize("kernel", ["P", "Q"])
    def test_complex_asymmetric_dephased_integral_matches_the_dense_composite_rule(self, diffusion, kernel):
        # the dense rule runs noise._form over [-W, W] unfolded, so it checks the integral's own fold
        p = SystemParams(alpha=6.0, omega_c=1.5j, omega_d=0.8 * np.exp(0.3j), gamma31=0.7, gamma21=0.02)
        value = (langevin_photon_noise if kernel == "P" else eta1)(p, diffusion)
        assert abs(value - dense_composite(p, diffusion, kernel)) <= 1e-9


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
    (1.346, 1.187, "0x1.0250ea7dbac44p-4", "0x1.0250ea7dbac44p-4"),
    (3.392, 1.01, "0x1.dcf0e4425cfcap-4", "0x1.dcf0e4425cfcbp-4"),
    (2.698, 0.753, "0x1.9f90a0c69c310p-4", "0x1.9f90a0c69c310p-4"),
    (4.137, 1.786, "0x1.0b0259cb1f9a0p-3", "0x1.0b0259cb1f9a1p-3"),
    (6.057, 1.138, "0x1.410941f24b814p-3", "0x1.410941f24b814p-3"),
    (2.391, 1.101, "0x1.820ce94d3ef49p-4", "0x1.820ce94d3ef49p-4"),
    (3.334, 0.561, "0x1.d4fc0680ab93cp-4", "0x1.d4fc0680ab93bp-4"),
    (6.823, 1.679, "0x1.56c5b2f7fd09cp-3", "0x1.56c5b2f7fd09cp-3"),
    (4.579, 1.764, "0x1.19ea326c46ff4p-3", "0x1.19ea326c46ff3p-3"),
    (3.976, 0.724, "0x1.02cd1b8f9baa0p-3", "0x1.02cd1b8f9baa0p-3"),
    (7.75, 1.337, "0x1.670e62119cd42p-3", "0x1.670e62119cd42p-3"),
    (5.979, 0.945, "0x1.3d00f8d316e30p-3", "0x1.3d00f8d316e30p-3"),
    (2.046, 1.757, "0x1.5c45b56fe0be3p-4", "0x1.5c45b56fe0be2p-4"),
    (3.083, 0.641, "0x1.c13c1778ce21cp-4", "0x1.c13c1778ce21ep-4"),
    (5.278, 0.697, "0x1.28ec63f8ef1dfp-3", "0x1.28ec63f8ef1e0p-3"),
    (4.923, 1.53, "0x1.2496fe2b97181p-3", "0x1.2496fe2b97180p-3"),
)


def test_reference_points_bit_for_bit():
    # the seed pass of the Gauss-Kronrod rule converges at every point; any change to it moves these bits
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
            c0, d0 = propagation_sweep(p, [p.alpha], 0.0).resolved[0, 1]
            assert abs(abs(c0) ** 2 + abs(d0) ** 2 + eta2(p) - 1.0) < 1e-12

    def test_nonnegative_over_od_range(self):
        for alpha in np.linspace(0.0, 500.0, 26):
            assert eta2(symmetric_params(float(alpha))) >= 0.0

    @pytest.mark.parametrize(
        "p",
        [symmetric_params(4.0), symmetric_params(200.0), SystemParams(20.0, omega_c=1.5, omega_d=0.8, gamma21=0.01)],
        ids=["symmetric-4", "symmetric-200", "asymmetric-dephased"],
    )
    def test_user_diffusion_adds_eta1(self, p):
        # pins today's definition, eta2 = 1 - |C0|^2 - |D0|^2 + eta1 with eta1 the omega-integral; the commutator
        # closure at omega = 0 reads eta1(0), the Q form at line centre, instead, so the definition may change
        d = diffusion_matrix(0.5, 0.5)
        c0, d0 = propagation_sweep(p, [p.alpha]).resolved[0, 1]
        assert eta2(p, d) == 1.0 - abs(c0) ** 2 - abs(d0) ** 2 + eta1(p, d)
        assert eta2(p, diffusion_matrix()) == eta2(p)

    @pytest.mark.parametrize("diffusion", [None, diffusion_matrix(), diffusion_matrix(0.01, 0.01)])
    def test_returns_a_python_float(self, diffusion):
        assert type(eta2(symmetric_params(4.0), diffusion)) is float

    def test_singular_response_names_the_optical_depth(self):
        # no drive at all makes the 3x3 response singular
        with pytest.raises(SingularSystem, match=r"^at alpha=3\.0: "):
            eta2(SystemParams(alpha=3.0, omega_c=0, omega_d=0))

    def test_raises_the_failure_of_its_one_row_sweep(self, monkeypatch):
        # a core that puts a backward resonance (|1/D| = 1e-13) on every row
        core = transfer._scattering

        def resonant_core(m):
            resolved = core(m)
            resolved[:, 1, 1] = 1e13
            return resolved

        monkeypatch.setattr(transfer, "_scattering", resonant_core)
        with pytest.raises(IllPosedBoundary) as failure:
            eta2(symmetric_params(4.0))
        assert str(failure.value) == "at alpha=4.0: |1/D| = 1.000e-13 below 1e-12"
