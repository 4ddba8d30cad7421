"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them all).
"""

import math
import time

import numpy as np

from eitqfc.cli import main, run_fig3
from eitqfc.noise import eta1, eta2
from eitqfc.params import symmetric_params
from eitqfc.spectral import closed_form_coefficients, solve_susceptibilities
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
    input_variances,
    output_variance,
    output_variances,
    projector_series_oracle,
)
from eitqfc.transfer import propagation_sweep, semiclassical_sweep


class _Criterion:
    """Context manager that reports PASS/FAIL and enforces a runtime budget."""

    def __init__(self, number: int, description: str, budget: float | None = None):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} ({elapsed:.3f} s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.3f} s, budget {self.budget} s"
            )
        return False


def test_criterion_1_headline_numbers():
    with _Criterion(1, "OD 200 gives CE 0.9612 and Fock fidelity 0.9804", budget=0.1):
        params = symmetric_params(200.0)
        ce = abs(propagation_sweep(params, [params.alpha]).resolved[0, 1, 0]) ** 2
        assert abs(ce - 0.9612) <= 1e-4
        rho_out = apply_loss_channel(fock_dm(1, 6), math.sqrt(ce))
        assert abs(fidelity(Fock(1), rho_out) - 0.9804) <= 1e-4


def test_criterion_2_efficiency_sweep():
    with _Criterion(2, "quantum matches closed forms (1e-12) and BVP solver (1e-6)", budget=5.0):
        for alpha in range(0, 401):
            params = symmetric_params(float(alpha))
            tp_closed = (4 / (4 + alpha)) ** 2
            ce_closed = (alpha / (4 + alpha)) ** 2
            (a0, _), (c0, _) = propagation_sweep(params, [params.alpha]).resolved[0]
            tp_q, ce_q = abs(a0) ** 2, abs(c0) ** 2
            assert abs(tp_q - tp_closed) <= 1e-12
            assert abs(ce_q - ce_closed) <= 1e-12
            classical = semiclassical_sweep(params, [params.alpha])
            tp_s, ce_s = classical.transmittance[0], classical.conversion_efficiency[0]
            assert abs(tp_s - tp_q) <= 1e-6
            assert abs(ce_s - ce_q) <= 1e-6


def test_criterion_3_spectral_oracle():
    with _Criterion(3, "3x3 solve matches closed forms on 1000 random draws (1e-10)", budget=2.0):
        rng = np.random.default_rng(271828)
        for _ in range(1000):
            mag = rng.uniform(0.1, 10.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            params = symmetric_params(rng.uniform(0.0, 400.0), omega=mag * np.exp(1j * phase))
            omega = rng.uniform(-20.0, 20.0)
            numeric = solve_susceptibilities(params, omega)
            closed = closed_form_coefficients(params, omega)
            # Lambda_p, kappa_p, kappa_s, Lambda_s, then zeta_p and zeta_s in NOISE_INDICES order
            pairs = zip(
                np.concatenate([numeric.generator.ravel(), numeric.zeta.ravel()]),
                np.concatenate([closed.generator.ravel(), closed.zeta.ravel()]),
                strict=True,
            )
            for got, expected in pairs:
                assert abs(got - expected) <= 1e-10 * max(abs(expected), 1e-12)


def test_criterion_4_channel_oracle():
    with _Criterion(
        4, "Kraus channel equals series and beam-splitter oracles (Frobenius 1e-9)", budget=10.0
    ):
        dim = 24
        transmissivities = (0.0, 0.25, 0.5, 0.9612, 1.0)
        inputs = [fock_dm(n, dim) for n in range(6)]
        inputs += [coherent_dm(beta, dim) for beta in (0.5, 1.0, 2.0, 1.0 + 1.0j)]
        for rho in inputs:
            for t in transmissivities:
                kraus = apply_loss_channel(rho, math.sqrt(t))
                series = projector_series_oracle(rho, math.sqrt(t))
                oracle = beam_splitter_oracle(rho, t, dim)
                assert np.linalg.norm(kraus - oracle) < 1e-9
                assert np.linalg.norm(kraus - series) < 1e-9
                assert np.linalg.norm(series - oracle) < 1e-9


def test_criterion_5_noise_identities():
    with _Criterion(5, "eta1 = 0, eta2 = 8a/(4+a)^2, commutator consistency (1e-12)"):
        assert abs(eta1(symmetric_params(4.0))) <= 1e-12
        for alpha in (0.0, 4.0, 40.0, 400.0):
            params = symmetric_params(alpha)
            value = eta2(params)
            assert abs(value - 8 * alpha / (4 + alpha) ** 2) <= 1e-12
            c0, d0 = propagation_sweep(params, [params.alpha], 0.0).resolved[0, 1]
            assert abs(abs(c0) ** 2 + abs(d0) ** 2 + value - 1.0) <= 1e-12


def test_criterion_6_quadrature_laws(tmp_path):
    with _Criterion(6, "quadrature laws and Heisenberg bound over the CE grid"):
        ces = np.linspace(0.0, 1.0, 101)
        for ce in ces:
            ce = float(ce)
            assert output_variance(0.25, ce) == 0.25
            fock = output_variances(Fock(1), ce)
            assert fock.var_x == fock.var_y
            for state in (Coherent(1.0), Squeezed(math.log(2.0)), Fock(1)):
                v = output_variances(state, ce)
                assert v.var_x * v.var_y >= 1 / 16 - 1e-12
        squeezed = input_variances(Squeezed(math.log(2.0)))
        top = output_variances(Squeezed(math.log(2.0)), 1.0)
        bottom = output_variances(Squeezed(math.log(2.0)), 0.0)
        assert (squeezed.var_x, squeezed.var_y) == (1.0, 0.0625)
        assert (top.var_x, top.var_y) == (1.0, 0.0625)
        assert (bottom.var_x, bottom.var_y) == (0.25, 0.25)
        # doubled-convention reproduction through the CLI
        out = tmp_path / "fig4a.csv"
        assert main(["fig4", "--convention-scale", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        first = [float(x) for x in rows[1].split(",")]
        last = [float(x) for x in rows[-1].split(",")]
        assert first[1:] == [0.5, 0.5]
        assert last[1:] == [2.0, 0.125]


def test_criterion_7_fidelity_curves():
    with _Criterion(7, "fidelity curves: sqrt(CE) law, ordering, monotonicity"):
        ces = np.linspace(0.0, 1.0, 101)
        _, rows = run_fig3(ces)
        table = np.array(rows)
        assert np.max(np.abs(table[:, 3] - np.sqrt(ces))) <= 1e-10
        assert np.all(table[:-1, 2] < table[:-1, 1])  # nbar=10 below nbar=1 for CE < 1
        for column in (1, 2, 3):
            assert np.all(np.diff(table[:, column]) >= 0)
        # the matrix-element route obeys the same square-root law
        for ce in np.linspace(0.0, 1.0, 11):
            rho_out = apply_loss_channel(fock_dm(1, 4), math.sqrt(ce))
            assert abs(fidelity(Fock(1), rho_out) - math.sqrt(ce)) <= 1e-10
        for ce in np.linspace(0.0, 0.99, 12):
            assert coherent_fidelity(10.0, float(ce)) < coherent_fidelity(1.0, float(ce))


def test_criterion_8_csv_determinism(tmp_path):
    with _Criterion(8, "fig subcommands produce byte-identical CSV on reruns"):
        sweeps = {
            "fig2": ["--alpha-max", "400", "--grid-points", "41"],
            "fig3": ["--grid-points", "101"],
            "fig4": ["--grid-points", "101", "--convention-scale", "2"],
            "custom": ["--alpha-max", "200", "--grid-points", "21"],
        }
        for name, flags in sweeps.items():
            first = tmp_path / f"{name}_first.csv"
            second = tmp_path / f"{name}_second.csv"
            assert main([name, *flags, "--out", str(first)]) == 0
            assert main([name, *flags, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
