"""
Quadrature variances of the converted field
===========================================

The converted signal is the mode conj(C_0) a + vacuum: it inherits the
input quadrature statistics turned by arg conj(C_0) and in proportion to
the conversion efficiency CE = |C_0|^2, with the vacuum reservoir
filling in the rest.  At arg C_0 = 0,

    var_out = CE * var_in + (1 - CE)/4.

A coherent input is therefore indistinguishable from its converted copy
at any CE, a squeezed input keeps its squeezing only at high CE and
turns with the phase of C_0, and a Fock input stays phase-symmetric
throughout.  Internally the vacuum
variance is 1/4; multiply by 2 for the doubled-variance convention used
by the CSV sweeps with --convention-scale 2.
"""

import math

import numpy as np

from eitqfc import Coherent, Fock, Squeezed, output_variances

squeezed = Squeezed(math.log(2.0))  # variance ratio 4 = 6.02 dB
print("input variances (vacuum = 0.25):")
for state, label in ((Coherent(1.0), "coherent"), (squeezed, "squeezed"), (Fock(1), "Fock(1)")):
    v = output_variances(state, 1.0, 0.0)  # CE = 1 at arg C_0 = 0 hands the input over
    print(f"  {label:9s} var_x = {v.var_x:7.4f}  var_y = {v.var_y:7.4f}")

print("\nconverted-signal variances vs CE (doubled convention in parentheses):")
print(f"{'CE':>5}  {'squeezed X':>12}  {'squeezed Y':>12}  {'Fock X = Y':>12}")
for ce in np.linspace(0.0, 1.0, 11):
    ce = float(ce)
    sq = output_variances(squeezed, ce, 0.0)
    fk = output_variances(Fock(1), ce, 0.0)
    assert fk.var_x == fk.var_y
    print(
        f"{ce:5.2f}  {sq.var_x:6.4f} ({2 * sq.var_x:5.3f})"
        f"  {sq.var_y:6.4f} ({2 * sq.var_y:6.4f})"
        f"  {fk.var_x:6.4f} ({2 * fk.var_x:5.3f})"
    )

print("\nat CE = 1 the squeezed output hits (1.0, 0.0625): the 6 dB of")
print("squeezing survives conversion; at CE = 0 only reservoir vacuum is left.")
print("every output respects var_x * var_y >= 1/16.")

print("\nat CE = 0.96 the phase of C_0 turns the squeezed ellipse:")
for turn in (0.0, math.pi / 4, math.pi / 2, math.pi):
    sq = output_variances(squeezed, 0.96, turn)
    print(f"  arg C_0 = {turn:6.4f}  var_x = {sq.var_x:6.4f}  var_y = {sq.var_y:6.4f}")
print("a quarter turn swaps the quadratures; a half turn (omega_d = -1) leaves them.")
