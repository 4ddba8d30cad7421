"""Quantum states through the frequency-conversion channel.

At omega = 0 the medium acts on the probe as a pure-loss channel of
transmissivity |C_0|^2: the converted signal keeps the input wave
function up to the amplitude factor conj(C_0).  This module builds the
output density matrices in a truncated Fock basis from the pure-loss
Kraus sum (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)).  Each Kraus
operator K_l moves |m+l> to |m> only, so the sum collapses onto shifted
diagonals of the input, weighted by powers of the loss 1 - |C_0|^2
(see apply_loss_channel); one call takes a whole stack of amplitudes.
The module keeps two independent constructions of the same channel as
test oracles (the normally-ordered projector series and a two-mode beam
splitter), and computes fidelities and quadrature variances.  It takes
the channel amplitude C_0 as a number, or a 1-D stack of them, and does
not depend on the propagation layers;
``transfer.propagation_sweep(params, alphas).resolved[:, 1, 0]`` gives
C_0 on an optical-depth grid.

Quadrature convention: X = (a + a^+)/2, Y = (a - a^+)/2i, so the vacuum
variance is 1/4.  Callers that want the doubled-variance convention
scale the outputs by 2 (see the CLI's --convention-scale flag).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
import scipy.linalg

from .errors import DimensionTooSmall, NonPassiveAmplitude, TruncationOverflow

#: Default Fock-space truncation; supports |beta| <= 2 and n <= 5 inputs
#: with wide margin.
DEFAULT_DIM = 20

#: Maximum truncated-away probability mass allowed when constructing a
#: state, and maximum top-two-level occupancy allowed when pushing one
#: through the loss channel.
TRACE_LOSS_TOL = 1e-10
TOP_LEVEL_TOL = 1e-8

#: A Fock level counts as "occupied" for the beam-splitter dimension
#: guard when it holds more than this fraction of the trace.
SIGNIFICANT_POPULATION = 1e-3


@dataclass(frozen=True)
class Fock:
    """Photon-number eigenstate |n>."""

    n: int


@dataclass(frozen=True)
class Coherent:
    """Coherent state |beta>."""

    beta: complex


@dataclass(frozen=True)
class Squeezed:
    """Squeezed vacuum with magnitude r and squeezing angle theta.

    theta = 0 puts the anti-squeezed quadrature on X:
    var_x = e^{2r}/4, var_y = e^{-2r}/4.
    """

    r: float
    theta: float = 0.0


InputState = Union[Fock, Coherent, Squeezed]


class QuadratureStats(NamedTuple):
    var_x: float
    var_y: float


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on the truncated basis, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _factorials(n: int) -> np.ndarray:
    return np.cumprod(np.concatenate(([1.0], np.arange(1.0, n + 1))))


def fock_dm(n: int, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Density matrix of |n><n| in a dim-dimensional basis."""
    if n >= dim:
        raise DimensionTooSmall(f"Fock level {n} does not fit in dimension {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Truncated coherent-state amplitudes e^{-|b|^2/2} b^n / sqrt(n!)."""
    n = np.arange(dim)
    log_norm = -abs(beta) ** 2 / 2
    fact = _factorials(dim - 1)
    return np.exp(log_norm) * np.power(complex(beta), n) / np.sqrt(fact)


def coherent_dm(beta: complex, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Truncated coherent-state density matrix, with trace-loss guard."""
    vec = coherent_vector(beta, dim)
    rho = np.outer(vec, np.conj(vec))
    loss = 1.0 - float(np.trace(rho).real)
    if loss > TRACE_LOSS_TOL:
        raise TruncationOverflow(
            f"coherent state |beta|={abs(beta):.3g} loses {loss:.3e} of its trace at dim={dim}"
        )
    return rho


def validate_density_matrix(
    rho: np.ndarray,
    hermiticity_tol: float = 1e-12,
    trace_tol: float = 1e-10,
    eigenvalue_tol: float = 1e-10,
) -> None:
    """Assert Hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(rho)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > hermiticity_tol:
        raise ValueError(f"density matrix not Hermitian: max deviation {herm:.3e}")
    trace_err = abs(np.trace(rho).real - 1.0)
    if trace_err > trace_tol:
        raise ValueError(f"density matrix trace off by {trace_err:.3e}")
    smallest = float(np.min(np.linalg.eigvalsh(rho)))
    if smallest < -eigenvalue_tol:
        raise ValueError(f"density matrix has eigenvalue {smallest:.3e}")


def _channel_input(rho_in: np.ndarray, c0: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_in as a complex array and c0 as a 1-D complex stack, once both pass the channel guards.

    |c0| may exceed 1 only by rounding, and the top two levels of the
    truncated basis must stay (nearly) empty.  One amplitude is a stack
    of one; NonPassiveAmplitude names the first amplitude that fails.
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    dim = rho_in.shape[0]
    amplitudes = np.asarray(c0, dtype=complex)
    if amplitudes.ndim > 1:
        raise ValueError(f"c0 must be one amplitude or a 1-D stack, got shape {amplitudes.shape}")
    amplitudes = amplitudes.reshape(-1)
    bad = np.flatnonzero(~(np.abs(amplitudes) <= 1.0 + 1e-12))  # NaN fails too
    if bad.size:
        row = int(bad[0])
        raise NonPassiveAmplitude(f"|c0| = {abs(amplitudes[row]):.6f} exceeds 1", row)
    top_two = float(rho_in[dim - 1, dim - 1].real + rho_in[dim - 2, dim - 2].real)
    if top_two > TOP_LEVEL_TOL:
        raise TruncationOverflow(
            f"top two Fock levels hold {top_two:.3e} of the population; enlarge the basis"
        )
    return rho_in, amplitudes


@functools.lru_cache(maxsize=8)
def _shift_weights(dim: int) -> np.ndarray:
    """sqrt(C(m+l, l) C(n+l, l)) at [l, m, n] where m + l and n + l < dim, else 0; read-only."""
    binomial = np.array(
        [[math.comb(m + lost, lost) if m + lost < dim else 0 for m in range(dim)] for lost in range(dim)],
        dtype=float,
    )
    weights = np.sqrt(binomial[:, :, None] * binomial[:, None, :])
    weights.setflags(write=False)
    return weights


def apply_loss_channel(rho_in: np.ndarray, c0: complex | np.ndarray) -> np.ndarray:
    """Push a state through the conversion channel of amplitude c0, or of each amplitude in a 1-D stack.

    The channel is the pure-loss Kraus sum rho_out = sum_l K_l rho_in K_l^+
    with K_l = sum_n sqrt(C(n, l)) conj(c0)^{n-l} r^l |n-l><n| and
    r = sqrt(1 - |c0|^2) (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)):
    a pure-loss channel of transmissivity |c0|^2 with phase conj(c0) on
    the coherences.  It is exact on the truncated space, because loss
    never raises the photon number.

    K_l only takes |m+l> to |m>, so <m|K_l rho_in K_l^+|n> has one term
    and the sum collapses onto shifted diagonals of rho_in:
    rho_out[m, n] = conj(c0)^m c0^n
                    * sum_l sqrt(C(m+l, l) C(n+l, l)) T^l rho_in[m+l, n+l]
    with T = r^2.  The weighted shifts of rho_in (a dim^3 tensor) do not
    depend on c0, so a stack of k amplitudes costs one (k, dim^2) product
    of the powers T^l against them, then the two phases in place.  One
    amplitude is a stack of one: a scalar c0 gives one (dim, dim) matrix,
    a stack of k gives (k, dim, dim), and each member equals the
    one-amplitude result bit for bit.
    """
    rho_in, amplitudes = _channel_input(rho_in, c0)
    dim = rho_in.shape[0]
    levels = np.arange(dim)

    # rho_in[m+l, n+l] at [l, m, n]: a strided view of rho_in zero-padded to twice its size
    padded = np.zeros((2 * dim, 2 * dim), dtype=complex)
    padded[:dim, :dim] = rho_in
    row_stride, column_stride = padded.strides
    diagonals = np.lib.stride_tricks.as_strided(
        padded, (dim, dim, dim), (row_stride + column_stride, row_stride, column_stride), writeable=False
    )
    shifted = _shift_weights(dim) * diagonals
    # |c0| may exceed 1 by rounding (see _channel_input): clamp T at 0
    loss_powers = np.maximum(1.0 - np.abs(amplitudes) ** 2, 0.0)[:, None] ** levels
    # T^l is real, so the product runs on the (re, im) pairs of the shifts.  It
    # is one vector-matrix product per amplitude: a matrix-matrix product would
    # round a stack of one differently from its members.
    rho_out = (loss_powers[:, None, :] @ shifted.view(float).reshape(dim, -1)).view(complex)
    rho_out = rho_out.reshape(amplitudes.size, dim, dim)
    kept_phase = np.conj(amplitudes)[:, None] ** levels
    rho_out *= kept_phase[:, :, None]
    rho_out *= np.conj(kept_phase)[:, None, :]
    return rho_out.reshape(np.shape(c0) + (dim, dim))


def projector_series_oracle(rho_in: np.ndarray, c0: complex) -> np.ndarray:
    """Independent loss-channel construction by the projector series.

    Elements are evaluated by the normally-ordered projector expansion:
    rho_out[m, n] = sum_l (-1)^l / (l! sqrt(m! n!))
                    * c0^{l+n} conj(c0)^{l+m} Tr[(a^+)^{l+n} a^{l+m} rho_in],
    which is exact on the truncated space (powers beyond the truncation
    vanish identically).  Equivalent to a pure-loss channel of
    transmissivity |c0|^2 with phase conj(c0) on the coherences.
    """
    rho_in, amplitudes = _channel_input(rho_in, c0)
    (c0,) = amplitudes.tolist()
    dim = rho_in.shape[0]

    a = destroy(dim)
    # lowered[k] = a^k rho_in ; raiser[j] = a^j (real), so that
    # Tr[(a^+)^j a^k rho] = sum(a^j * (a^k rho)) elementwise.
    lowered = [rho_in]
    raiser = [np.eye(dim)]
    for _ in range(dim):
        lowered.append(a @ lowered[-1])
        raiser.append(a @ raiser[-1])
    moments = np.empty((dim + 1, dim + 1), dtype=complex)
    for j in range(dim + 1):
        for k in range(dim + 1):
            moments[j, k] = np.sum(raiser[j] * lowered[k])

    fact = _factorials(dim)
    rho_out = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            acc = 0.0 + 0.0j
            sign = 1.0
            for l in range(0, dim - max(m, n)):
                acc += (
                    sign
                    / fact[l]
                    * c0 ** (l + n)
                    * np.conj(c0) ** (l + m)
                    * moments[l + n, l + m]
                )
                sign = -sign
            rho_out[m, n] = acc / math.sqrt(fact[m] * fact[n])
    return rho_out


def _top_occupied_level(rho: np.ndarray) -> int:
    """Highest Fock level holding a significant share of the population."""
    pops = np.real(np.diag(rho))
    trace = max(float(np.sum(pops)), 1e-300)
    occupied = np.nonzero(pops > SIGNIFICANT_POPULATION * trace)[0]
    return int(occupied[-1]) if occupied.size else 0


@functools.lru_cache(maxsize=16)
def _beam_splitter_unitary(transmissivity: float, dim: int) -> np.ndarray:
    """exp[theta (a^+ b - a b^+)] with theta = arccos(sqrt(transmissivity))."""
    theta = math.acos(math.sqrt(transmissivity))
    a = destroy(dim)
    generator = theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    return scipy.linalg.expm(generator)


def beam_splitter_oracle(rho_in: np.ndarray, transmissivity: float, dim: int) -> np.ndarray:
    """Independent loss-channel construction via a two-mode beam splitter.

    Builds the unitary exp[theta (a^+ b - a b^+)] with
    theta = arccos(sqrt(transmissivity)) on a dim x dim two-mode Fock
    space from the ladder operators, couples the input to vacuum,
    applies the unitary and traces out the ancilla.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape[0] > dim:
        raise DimensionTooSmall(
            f"input dimension {rho_in.shape[0]} exceeds requested dimension {dim}"
        )
    top = _top_occupied_level(rho_in)
    if dim < 2 * top + 2:
        raise DimensionTooSmall(
            f"dim={dim} too small for input occupying level {top}; need >= {2 * top + 2}"
        )
    rho = np.zeros((dim, dim), dtype=complex)
    rho[: rho_in.shape[0], : rho_in.shape[0]] = rho_in

    unitary = _beam_splitter_unitary(float(transmissivity), dim)
    # rho (x) |0><0| is supported on the ancilla-vacuum columns |m, 0>,
    # which sit at joint index m*dim; applying U to that block suffices.
    columns = unitary[:, ::dim]
    joint = columns @ rho @ columns.conj().T
    return np.einsum("ajbj->ab", joint.reshape(dim, dim, dim, dim))


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """(1/2) * trace norm of the difference of two Hermitian matrices."""
    eigs = np.linalg.eigvalsh(np.asarray(rho_a) - np.asarray(rho_b))
    return 0.5 * float(np.sum(np.abs(eigs)))


def fidelity(state: InputState, rho_out: np.ndarray) -> float | np.ndarray:
    """Fidelity sqrt(<psi|rho_out|psi>) of the output against a pure input.

    ``rho_out`` is one density matrix (dim, dim), giving a float, or a
    stack (k, dim, dim), giving k fidelities: one matrix is a stack of
    one.  A negative overlap (rounding) is clamped at 0.  Defined for
    Fock and Coherent inputs; for a coherent input this reproduces the
    overlap |<beta|conj(C_0) beta>| of the ideal converted state.
    """
    rho_out = np.asarray(rho_out, dtype=complex)
    stack = rho_out.reshape((-1,) + rho_out.shape[-2:])
    dim = stack.shape[-1]
    if isinstance(state, Fock):
        if state.n >= dim:
            raise DimensionTooSmall(f"Fock level {state.n} outside dimension {dim}")
        overlap = stack[:, state.n, state.n].real
    elif isinstance(state, Coherent):
        vec = coherent_vector(state.beta, dim)
        # a row sum, not a product with vec: that would round a stack of one differently from its members
        overlap = ((np.conj(vec) @ stack) * vec).sum(axis=-1).real
    else:
        raise TypeError(f"fidelity is not defined for {type(state).__name__} inputs")
    fidelities = np.sqrt(np.where(overlap < 0.0, 0.0, overlap))
    return float(fidelities[0]) if rho_out.ndim == 2 else fidelities


def coherent_fidelity(nbar: float, ce: float) -> float:
    """Closed-form conversion fidelity for a coherent input of mean photon
    number nbar at conversion efficiency ce: exp(-nbar (1 - sqrt(ce))^2 / 2)."""
    if nbar < 0 or not 0.0 <= ce <= 1.0:
        raise ValueError(f"need nbar >= 0 and ce in [0, 1], got {nbar}, {ce}")
    return math.exp(-nbar * (1.0 - math.sqrt(ce)) ** 2 / 2.0)


def input_variances(state: InputState) -> QuadratureStats:
    """Squared quadrature variances of the input state (vacuum = 1/4)."""
    if isinstance(state, Coherent):
        return QuadratureStats(0.25, 0.25)
    if isinstance(state, Fock):
        v = (2 * state.n + 1) / 4.0
        return QuadratureStats(v, v)
    if isinstance(state, Squeezed):
        ch, sh = math.cosh(2 * state.r), math.sinh(2 * state.r)
        return QuadratureStats(
            (ch + sh * math.cos(state.theta)) / 4.0,
            (ch - sh * math.cos(state.theta)) / 4.0,
        )
    raise TypeError(f"unknown input state {type(state).__name__}")


def output_variance(var_in: float, power_coeff: float) -> float:
    """Output quadrature variance: power_coeff * var_in + (1 - power_coeff)/4.

    power_coeff is |C_0|^2 for the converted signal and |A_0|^2 for the
    transmitted probe; the second term is the vacuum-reservoir share.
    """
    if var_in < 0:
        raise ValueError(f"variance must be >= 0, got {var_in}")
    if not 0.0 <= power_coeff <= 1.0:
        raise ValueError(f"power coefficient must lie in [0, 1], got {power_coeff}")
    return power_coeff * var_in + (1.0 - power_coeff) / 4.0


def output_variances(state: InputState, power_coeff: float) -> QuadratureStats:
    """Both output quadrature variances for a given input state."""
    vin = input_variances(state)
    return QuadratureStats(
        output_variance(vin.var_x, power_coeff),
        output_variance(vin.var_y, power_coeff),
    )
