"""
Quantum states through the conversion channel
=============================================

Sends Fock and coherent states through the frequency converter and
inspects what arrives on the signal side.  The medium acts as a
pure-loss channel of transmissivity CE = |C_0|^2: a single photon
either converts or is lost (diagonal output), while a coherent state
stays coherent with a shrunken amplitude.  Every channel output is
cross-checked against the two-mode beam-splitter construction.
"""

import numpy as np

from eitqfc import (
    Coherent,
    Fock,
    apply_loss_channel,
    beam_splitter_oracle,
    coherent_dm,
    coherent_fidelity,
    fidelity,
    fock_dm,
    resolved_coefficients,
    symmetric_params,
    trace_distance,
)

p = symmetric_params(200.0)
c0 = complex(resolved_coefficients(p)[2])  # the channel amplitude C_0
ce = abs(c0) ** 2
print(f"optical depth 200: C_0 = {c0.real:.6f}, CE = {ce:.4f}\n")

# single photon in: mostly a single photon out
rho_out = apply_loss_channel(fock_dm(1, 6), c0)
print("single-photon input, output populations:")
print(np.real(np.diag(rho_out))[:3].round(6))
print(f"fidelity = {fidelity(Fock(1), rho_out):.4f} (= sqrt(CE))\n")

# coherent state in: coherent state out, amplitude conj(C_0) * beta
beta = 1.0
rho_coh = apply_loss_channel(coherent_dm(beta, 20), c0)
oracle = beam_splitter_oracle(coherent_dm(beta, 20), ce, 20)
print(f"coherent beta = {beta}: trace distance to beam-splitter oracle "
      f"= {trace_distance(rho_coh, oracle):.2e}")
print(f"fidelity (matrix route)  = {fidelity(Coherent(beta), rho_coh):.6f}")
print(f"fidelity (closed form)   = {coherent_fidelity(abs(beta) ** 2, ce):.6f}\n")

# fidelity versus conversion efficiency for the three canonical inputs:
# one channel call takes the whole stack of amplitudes
ce_points = np.array([0.1, 0.25, 0.5, 0.75, 0.9612, 1.0])
fock_out = apply_loss_channel(fock_dm(1, 4), np.sqrt(ce_points))
print(f"{'CE':>5}  {'Fock(1)':>9}  {'coh n=1':>9}  {'coh n=10':>9}")
for ce_point, rho in zip(ce_points, fock_out):
    print(
        f"{ce_point:5.2f}  {fidelity(Fock(1), rho):9.4f}"
        f"  {coherent_fidelity(1.0, ce_point):9.4f}"
        f"  {coherent_fidelity(10.0, ce_point):9.4f}"
    )
print("\nbright coherent states are the hardest to convert faithfully;")
print("a one-photon Fock state follows the square-root-of-CE law exactly.")
