"""Build noise_reference.json, the stored references of the noise_integrals check.

Usage, from the repository root:

    python3 perfbench/make_reference.py

For a fixed table of symmetric (alpha, |Omega|) points it evaluates the
windowed Langevin integrals of the P kernels (langevin_photon_noise) and
the Q kernels (eta1) by a plain midpoint rule in omega and z, the route
tests/test_noise.py uses as its oracle, not by the library's adaptive
Gauss-Legendre grids.  The integrals are bilinear in the diffusion
matrix, whose only nonzero entry is D_{21,12} = (p33 + p44) / 2, so one
value per kernel at D_{21,12} = 1 serves every population pair.

The table keeps only points where the library's integrals converge at
the second grid level (1539 omega nodes) even at the largest diffusion
the workload draws, so every operation of the workload does the same
work.  Points that need a deeper level are listed under "excluded".
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from eitqfc.errors import NonConvergedIntegral  # noqa: E402
from eitqfc.noise import default_window, diffusion_matrix, eta1, langevin_photon_noise  # noqa: E402
from eitqfc.params import symmetric_params  # noqa: E402
from eitqfc.spectral import solve_susceptibilities  # noqa: E402
from eitqfc.transfer import coupling_matrix, expm2, noise_kernels  # noqa: E402

OUT = HERE / "noise_reference.json"
TABLE_SEED = 20201
TABLE_SIZE = 16
ALPHA_RANGE = (1.0, 8.0)
RABI_RANGE = (0.5, 2.0)
#: Midpoint nodes per axis; the value at N / 2 gives the error estimate.
NODES = 2048
#: The largest diffusion the workload draws (p33 = p44 = 0.5); the
#: convergence test is absolute, so it is the hardest case.
MAX_DIFFUSION = diffusion_matrix(0.5, 0.5)


def midpoint_unit_integrals(params, n: int) -> tuple[float, float]:
    """(P, Q) integrals with D_{21,12} = 1 on an n x n midpoint grid."""
    window = default_window(params)
    domega = 2 * window / n
    omegas = -window + (np.arange(n) + 0.5) * domega
    zs = (np.arange(n) + 0.5) / n
    total_p = total_q = 0.0
    for w in omegas:
        coeffs = solve_susceptibilities(params, float(w))
        kernels = noise_kernels(coeffs, expm2(coupling_matrix(coeffs)), zs)
        total_p += float(np.sum(np.abs(kernels.p[0]) ** 2))
        total_q += float(np.sum(np.abs(kernels.q[0]) ** 2))
    scale = domega / n / (2 * np.pi)
    return total_p * scale, total_q * scale


def converges_at_second_level(params) -> bool:
    try:
        for integral in (langevin_photon_noise, eta1):
            integral(params, MAX_DIFFUSION, max_doublings=1)
    except NonConvergedIntegral:
        return False
    return True


def main() -> None:
    rng = random.Random(TABLE_SEED)
    entries, excluded = [], []
    while len(entries) < TABLE_SIZE:
        alpha = round(rng.uniform(*ALPHA_RANGE), 3)
        rabi = round(rng.uniform(*RABI_RANGE), 3)
        params = symmetric_params(alpha, rabi)
        if not converges_at_second_level(params):
            excluded.append({"alpha": alpha, "rabi": rabi, "reason": "needs a third grid level"})
            print("excluded", excluded[-1], flush=True)
            continue
        p_fine, q_fine = midpoint_unit_integrals(params, NODES)
        p_coarse, q_coarse = midpoint_unit_integrals(params, NODES // 2)
        entries.append(
            {
                "alpha": alpha,
                "rabi": rabi,
                "photon_noise_unit": p_fine,
                "eta1_unit": q_fine,
                # midpoint error falls as h^2, so fine - exact ~ (fine - coarse) / 3
                "photon_noise_rel_err": abs(p_fine - p_coarse) / 3 / p_fine,
                "eta1_rel_err": abs(q_fine - q_coarse) / 3 / q_fine,
            }
        )
        print(entries[-1], flush=True)
    OUT.write_text(
        json.dumps(
            {
                "method": f"midpoint rule, {NODES} omega x {NODES} z nodes, D_21,12 = 1",
                "table_seed": TABLE_SEED,
                "entries": entries,
                "excluded": excluded,
            },
            indent=1,
        )
        + "\n"
    )


if __name__ == "__main__":
    main()
