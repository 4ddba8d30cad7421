"""
Conversion efficiency and probe transmittance versus optical depth
==================================================================

Walks the optical depth from 0 to 400 and compares the quantum
scattering-matrix route against the independent semiclassical
boundary-value solver.  In the symmetric configuration both must land
on the closed forms (4/(4+a))^2 and (a/(4+a))^2: the medium converts
the probe into the backward signal with efficiency approaching 1 while
the transmitted probe dies off.  Each route covers the whole grid in
one call: one 3x3 solve and one pass of the scattering core for the
quantum columns, one invariant-imbedding pass (a slab per distinct gap,
star products along the grid) for the semiclassical ones.
"""

import numpy as np

from eitqfc import propagation_sweep, semiclassical_sweep, symmetric_params

alphas = np.linspace(0.0, 400.0, 81)
params = symmetric_params(0.0)  # the sweep supplies the optical depths

quantum = propagation_sweep(params, alphas)
classical = semiclassical_sweep(params, alphas)
for sweep in (quantum, classical):
    if sweep.failure is not None:
        raise sweep.failure
tp = np.abs(quantum.resolved[:, 0, 0]) ** 2
ce = np.abs(quantum.resolved[:, 1, 0]) ** 2

print(f"{'OD':>6}  {'T_p':>12}  {'CE':>12}  {'T_p (BVP)':>12}  {'CE (BVP)':>12}")
for k in range(0, len(alphas), len(alphas) // 16):
    print(
        f"{alphas[k]:6.0f}  {tp[k]:12.6e}  {ce[k]:12.6e}  "
        f"{classical.transmittance[k]:12.6e}  {classical.conversion_efficiency[k]:12.6e}"
    )

# the two routes agree to ~1e-12 everywhere
worst = max(
    np.max(np.abs(classical.transmittance - tp)),
    np.max(np.abs(classical.conversion_efficiency - ce)),
)
print(f"\nlargest quantum/semiclassical difference over the sweep: {worst:.3e}")

# headline operating point
headline = propagation_sweep(params, [200.0]).resolved[0]
print(f"OD 200: CE = {abs(headline[1, 0]) ** 2:.4f} (96% conversion)")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(alphas, tp, "b-", label="probe transmittance")
    ax.plot(alphas, ce, "r-", label="conversion efficiency")
    ax.set_xlabel("optical depth")
    ax.set_ylabel("power fraction")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("conversion_efficiency_vs_od.png", dpi=150)
    print("saved conversion_efficiency_vs_od.png")
