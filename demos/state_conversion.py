"""
Quantum states through the conversion channel
=============================================

Sends Fock and coherent states through the frequency converter and
inspects what arrives on the signal side.  The medium acts as a
pure-loss channel of transmissivity CE = |C_0|^2: a single photon
either converts or is lost (diagonal output), while a coherent state
stays coherent with its amplitude scaled and turned by conj(C_0).  Every channel output is
cross-checked against the two-mode beam-splitter construction.
"""

from dataclasses import replace

import numpy as np

from eitqfc import (
    Coherent,
    Fock,
    apply_loss_channel,
    coherent_dm,
    coherent_fidelity,
    fidelity,
    fock_dm,
    propagation_sweep,
    symmetric_params,
    trace_distance,
)
from eitqfc.states import beam_splitter_oracle

p = symmetric_params(200.0)
c0 = complex(propagation_sweep(p, [p.alpha]).resolved[0, 1, 0])  # the channel amplitude C_0
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
oracle = beam_splitter_oracle(coherent_dm(beta, 20), ce)
print(f"coherent beta = {beta}: trace distance to beam-splitter oracle "
      f"= {trace_distance(rho_coh, oracle):.2e}")
print(f"fidelity (matrix route)  = {fidelity(Coherent(beta), rho_coh):.6f}")
print(f"fidelity (closed form)   = {coherent_fidelity(abs(beta) ** 2, ce, np.angle(c0)):.6f}\n")

# fidelity versus conversion efficiency for the three canonical inputs:
# one channel call takes the whole stack of amplitudes
ce_points = np.array([0.1, 0.25, 0.5, 0.75, 0.9612, 1.0])
fock_out = apply_loss_channel(fock_dm(1, 4), np.sqrt(ce_points))
print(f"{'CE':>5}  {'Fock(1)':>9}  {'coh n=1':>9}  {'coh n=10':>9}")
for ce_point, rho in zip(ce_points, fock_out):
    print(
        f"{ce_point:5.2f}  {fidelity(Fock(1), rho):9.4f}"
        f"  {coherent_fidelity(1.0, ce_point, 0.0):9.4f}"
        f"  {coherent_fidelity(10.0, ce_point, 0.0):9.4f}"
    )
print("\nbright coherent states are the hardest to convert faithfully;")
print("a one-photon Fock state follows the square-root-of-CE law exactly.")

# the phase of C_0 counts for a coherent state: omega_d = -1 turns C_0 by pi
turned = complex(propagation_sweep(replace(p, omega_d=-1.0), [p.alpha]).resolved[0, 1, 0])
rho_turned = apply_loss_channel(coherent_dm(beta, 20), turned)
print(f"\nomega_d = -1: C_0 = {turned.real:.6f}, fidelity (matrix route) = "
      f"{fidelity(Coherent(beta), rho_turned):.6f}, closed form = "
      f"{coherent_fidelity(abs(beta) ** 2, abs(turned) ** 2, np.angle(turned)):.6f}")
