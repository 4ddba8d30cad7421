"""Quantum states through the frequency-conversion channel.

At omega = 0 the medium acts on the probe as a pure-loss channel of
transmissivity |C_0|^2: the converted signal keeps the input wave
function up to the amplitude factor conj(C_0).  This module builds the
output density matrices in a truncated Fock basis from the pure-loss
Kraus sum (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)).  Each Kraus
operator K_l moves |m+l> to |m> only, so the sum collapses onto shifted
diagonals of the input, weighted by powers of the loss 1 - |C_0|^2
(see apply_loss_channel); one call takes a whole stack of amplitudes.
The module keeps two independent constructions of the same channel as test
oracles: the normally-ordered projector series, summed as array algebra over
the powers a^k (exact zeros from k = dim on), and a two-mode beam splitter
on the input's own basis, exponentiated exactly one photon-number block at a
time.  A Fock input's fidelity |C_0|^n comes from the amplitudes alone
(fock_fidelity), with the channel's own arithmetic; MAX_FOCK_LEVEL is the
highest level the channel takes on the default basis.  The coherent fidelity
and quadrature variances have closed forms in |C_0|^2 and arg C_0, since the
converted mode conj(C_0) a + vacuum turns the quadratures by arg conj(C_0).
C_0 comes in as a number or a 1-D stack, checked to be passive
(passive_amplitudes); the module does not import the propagation layers:
``transfer.propagation_sweep(params, alphas).resolved[:, 1, 0]`` gives
C_0 on an optical-depth grid.

Quadrature convention: X = (a + a^+)/2, Y = (a - a^+)/2i, so the vacuum
variance is 1/4.  Callers that want the doubled-variance convention
scale the outputs by 2 (see the CLI's --convention-scale flag).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DimensionTooSmall, NonPassiveAmplitude, TruncationOverflow

#: Default Fock-space truncation.  Its trace-loss guard takes coherent
#: states up to |beta| = 1.74 (|beta| = 2 loses 1.02e-8), and the loss
#: channel Fock levels up to MAX_FOCK_LEVEL = 17.
DEFAULT_DIM = 20

#: Maximum truncated-away probability mass allowed when constructing a
#: state, and maximum top-two-level occupancy allowed when pushing one
#: through the loss channel.
TRACE_LOSS_TOL = 1e-10
TOP_LEVEL_TOL = 1e-8
#: Levels more than COHERENT_SPAN (|beta| + 3) from a coherent state's
#: Poisson peak hold less than e^-80 of it (12.6 standard deviations).
COHERENT_SPAN = 13.0
#: Most negative eigenvalue validate_density_matrix accepts.
EIGENVALUE_TOL = 1e-10
#: Largest Fock level |n><n| that the loss channel accepts on the
#: DEFAULT_DIM basis, whose guard wants the top two levels empty.
MAX_FOCK_LEVEL = DEFAULT_DIM - 3


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
    var_x = e^{2r}/4, var_y = e^{-2r}/4.  In general <a^2> = e^{i theta}
    sinh(2r)/2, so cov_xy = sinh(2r) sin(theta)/4.
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


def _fock_level(n: int, dim: float = math.inf) -> int:
    """n as a level of a dim-dimensional basis: an integer in [0, dim), as a negative one would index from the end."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"a Fock level must be >= 0, got {n}")
    if n >= dim:
        raise DimensionTooSmall(f"Fock level {n} does not fit in dimension {dim}")
    return n


def fock_dm(n: int, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Density matrix of |n><n| in a dim-dimensional basis."""
    n = _fock_level(n, dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Truncated coherent-state amplitudes e^{-|b|^2/2} b^n / sqrt(n!), with trace-loss guard.

    The magnitudes are built outward from the Poisson peak k = floor(|b|^2),
    where none underflows: |b|^{n-k} sqrt(k!/n!), each from the last by
    |b| / sqrt(n) upward and sqrt(n) / |b| downward.  The phases (b/|b|)^n
    are running products, so a real b keeps real amplitudes.  The vector is
    divided by the state's norm over the basis and the levels up to
    COHERENT_SPAN past k; the levels beyond hold less than e^-80 of it.
    """
    beta = complex(beta)
    size = abs(beta)
    span = COHERENT_SPAN * (size + 3.0)
    vec = np.zeros(dim, dtype=complex)
    if size * size - span < dim:  # else (or if beta is not finite) the vector stays 0 and fails the guard
        peak = math.floor(size * size)
        up = size / np.sqrt(np.arange(peak + 1.0, max(dim, peak + math.ceil(span))))
        down = np.sqrt(np.arange(peak, 0.0, -1.0)) / size
        magnitudes = np.concatenate((np.cumprod(down)[::-1], [1.0], np.cumprod(up)))
        phases = np.cumprod(np.concatenate(([1.0 + 0j], np.full(dim - 1, beta / size if size else 1.0))))
        vec = magnitudes[:dim] * phases
        vec /= math.sqrt(float(np.vdot(vec, vec).real + magnitudes[dim:] @ magnitudes[dim:]))
    loss = 1.0 - float(np.vdot(vec, vec).real)
    if not loss <= TRACE_LOSS_TOL:  # NaN fails too
        raise TruncationOverflow(
            f"coherent state |beta|={abs(beta):.3g} loses {loss:.3e} of its trace at dim={dim}"
        )
    return vec


def coherent_dm(beta: complex, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Truncated coherent-state density matrix |beta><beta|, with coherent_vector's trace-loss guard."""
    vec = coherent_vector(beta, dim)
    return np.outer(vec, np.conj(vec))


def validate_density_matrix(
    rho: np.ndarray,
    hermiticity_tol: float = 1e-12,
    trace_tol: float = 1e-10,
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
    if smallest < -EIGENVALUE_TOL:
        raise ValueError(f"density matrix has eigenvalue {smallest:.3e}")


def passive_amplitudes(c0: complex | np.ndarray) -> np.ndarray:
    """c0 as a 1-D complex stack, once every amplitude in it is passive.

    |c0| may exceed 1 only by rounding, by at most 1e-12; NaN fails.  One
    amplitude is a stack of one; NonPassiveAmplitude names the first
    amplitude that fails by its row.
    """
    amplitudes = np.asarray(c0, dtype=complex)
    if amplitudes.ndim > 1:
        raise ValueError(f"c0 must be one amplitude or a 1-D stack, got shape {amplitudes.shape}")
    amplitudes = amplitudes.reshape(-1)
    bad = np.flatnonzero(~(np.abs(amplitudes) <= 1.0 + 1e-12))  # NaN fails too
    if bad.size:
        row = int(bad[0])
        raise NonPassiveAmplitude(f"|c0| = {abs(amplitudes[row]):.6f} exceeds 1", row)
    return amplitudes


def _channel_input(rho_in: np.ndarray, c0: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_in as a complex array and c0 as a 1-D complex stack, once both pass the channel guards.

    Every amplitude must be passive (see passive_amplitudes), and the top
    two levels of the truncated basis must stay (nearly) empty.
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    dim = rho_in.shape[0]
    amplitudes = passive_amplitudes(c0)
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
    with T = r^2.  The weighted shifts (slice l of a dim^3 tensor holds
    rho_in[l:, l:], zero past the basis) do not depend on c0, so a stack of
    k amplitudes costs one (k, dim^2) product of the powers T^l against
    them, then the two phases in place.  One amplitude is a stack of one:
    a scalar c0 gives one (dim, dim) matrix, a stack of k gives (k, dim,
    dim), and each member equals the one-amplitude result bit for bit.
    """
    rho_in, amplitudes = _channel_input(rho_in, c0)
    dim = rho_in.shape[0]
    levels = np.arange(dim)

    shifted = np.zeros((dim, dim, dim), dtype=complex)  # rho_in[m+l, n+l] at [l, m, n], 0 past the basis
    for lost in range(dim):
        shifted[lost, : dim - lost, : dim - lost] = rho_in[lost:, lost:]
    shifted *= _shift_weights(dim)
    # |c0| may exceed 1 by rounding (see passive_amplitudes): clamp T at 0
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
    as array algebra: one stack of the powers a^k, every moment in one
    contraction, and the sum over l < dim in one broadcast.  The stack
    runs on to k = 2 dim - 2 as zeros, which is exact: a^k = 0 from
    k = dim on, so every term past l = dim - 1 - max(m, n) vanishes, and
    the series is exact on the truncated space.  Equivalent to a pure-loss
    channel of transmissivity |c0|^2 with phase conj(c0) on the coherences.
    """
    rho_in, amplitudes = _channel_input(rho_in, c0)
    (c0,) = amplitudes.tolist()
    dim = rho_in.shape[0]

    a = destroy(dim)
    powers = np.zeros((2 * dim - 1, dim, dim))  # a^k at [k]
    powers[0] = np.eye(dim)
    for k in range(1, dim):
        powers[k] = a @ powers[k - 1]
    # Tr[(a^+)^j a^k rho_in] = sum(a^j * (a^k rho_in)) elementwise, as a^j is real
    moments = powers.reshape(2 * dim - 1, -1) @ (powers @ rho_in).reshape(2 * dim - 1, -1).T
    lost, m, n = np.arange(dim)[:, None, None], np.arange(dim)[:, None], np.arange(dim)
    fact = _factorials(dim)
    terms = (-1.0) ** lost / fact[lost] * c0 ** (lost + n) * np.conj(c0) ** (lost + m) * moments[lost + n, lost + m]
    return terms.sum(axis=0) / np.sqrt(fact[m] * fact[n])


@functools.lru_cache(maxsize=16)
def _beam_splitter_columns(transmissivity: float, dim: int) -> np.ndarray:
    """Columns |m, 0> (index m*dim) of exp[theta (a^+ b - a b^+)], theta = arccos(sqrt(transmissivity)).

    The generator keeps N = m + n (Campos, Saleh & Teich, PRA 40, 1371 (1989)), so |N, 0> needs only
    the block on |k, N-k>: B[k+1, k] = -B[k, k+1] = theta sqrt((k+1)(N-k)), and exp(B) = V e^{-i lambda}
    V^+ from the eigenpairs of the Hermitian i B.  The result is read-only.
    """
    theta = math.acos(math.sqrt(transmissivity))
    columns = np.zeros((dim * dim, dim), dtype=complex)
    for total in range(dim):
        coupling = theta * np.sqrt(np.arange(1, total + 1) * np.arange(total, 0, -1))
        eigenvalues, vectors = np.linalg.eigh(1j * (np.diag(coupling, -1) - np.diag(coupling, 1)))
        rows = np.arange(total + 1) * (dim - 1) + total  # |k, total - k>
        columns[rows, total] = vectors @ (np.exp(-1j * eigenvalues) * vectors[-1].conj())
    columns.setflags(write=False)
    return columns


def beam_splitter_oracle(rho_in: np.ndarray, transmissivity: float) -> np.ndarray:
    """Independent loss-channel construction via a two-mode beam splitter, on rho_in's own basis.

    Couples the input to vacuum, applies exp[theta (a^+ b - a b^+)] with
    theta = arccos(sqrt(transmissivity)) and traces out the ancilla.  It is
    exact for any input on the basis: |m, 0> lies in the complete block of
    N = m photons, which the unitary maps into itself.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    rho = np.asarray(rho_in, dtype=complex)
    dim = rho.shape[0]

    # rho (x) |0><0| is supported on the ancilla-vacuum columns |m, 0>,
    # so applying U to those columns suffices.
    columns = _beam_splitter_columns(float(transmissivity), dim)
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
    overlap |<beta|conj(C_0) beta>| of the ideal converted state, and
    |beta> must fit the basis (coherent_vector's trace-loss guard).
    """
    rho_out = np.asarray(rho_out, dtype=complex)
    stack = rho_out.reshape((-1,) + rho_out.shape[-2:])
    dim = stack.shape[-1]
    if isinstance(state, Fock):
        n = _fock_level(state.n, dim)
        overlap = stack[:, n, n].real
    elif isinstance(state, Coherent):
        vec = coherent_vector(state.beta, dim)
        # a row sum, not a product with vec: that would round a stack of one differently from its members
        overlap = ((np.conj(vec) @ stack) * vec).sum(axis=-1).real
    else:
        raise TypeError(f"fidelity is not defined for {type(state).__name__} inputs")
    fidelities = np.sqrt(np.where(overlap < 0.0, 0.0, overlap))
    return float(fidelities[0]) if rho_out.ndim == 2 else fidelities


def coherent_fidelity(nbar: float, ce: float | np.ndarray, phase: float | np.ndarray) -> float | np.ndarray:
    """Conversion fidelity exp(-nbar |1 - C_0|^2 / 2) of a coherent input of mean photon number nbar.

    ce = |C_0|^2 and phase = arg C_0 give |1 - C_0|^2 as
    (1 - sqrt(ce))^2 + 4 sqrt(ce) sin^2(phase/2), whose second term is 0 at phase 0.
    Numbers or arrays that broadcast; numbers give a float, and errors name the first bad entry.  Each
    square is one rounded product, and the exp is math.exp per value: np.exp rounds 1 in 20 otherwise.
    """
    nbars, coeffs, phases = np.broadcast_arrays(nbar, ce, phase)
    bad = np.flatnonzero(~((0 <= nbars) & (nbars < math.inf) & (0.0 <= coeffs) & (coeffs <= 1.0)))[:1]  # NaN too
    if bad.size:
        raise ValueError(f"need nbar >= 0 and ce in [0, 1], got {nbars.flat[bad].item()}, {coeffs.flat[bad].item()}")
    not_finite = np.flatnonzero(~np.isfinite(phases))
    if not_finite.size:
        raise ValueError(f"phase must be finite, got {phases.flat[not_finite[0]].item()}")
    root = np.sqrt(coeffs)
    distance = np.square(1.0 - root) + 4.0 * root * np.square(np.sin(phases / 2.0))
    fidelities = np.frompyfunc(math.exp, 1, 1)(-nbars * distance / 2.0)  # a float, or an object array
    return fidelities if isinstance(fidelities, float) else fidelities.astype(float)


def fock_fidelity(n: int, c0: complex | np.ndarray) -> float | np.ndarray:
    """Conversion fidelity |c0|^n of the Fock input |n>, for one amplitude or each amplitude in a 1-D stack.

    It equals fidelity(Fock(n), apply_loss_channel(fock_dm(n), c0)) bit for
    bit, without building the channel's output: for |n><n| the channel's
    shifted-diagonal sum leaves exactly 1 on the [n, n] entry, and its two
    phases turn that into kept * conj(kept) with kept = conj(c0)^n.  The
    exponent is an integer array, as in the channel's phases: numpy rounds
    a power with a scalar integer exponent by another route.  The
    population is a sum of squares, so it needs no clamp at 0.  One
    amplitude gives a float; NonPassiveAmplitude names the first amplitude
    of a stack that is not passive (see passive_amplitudes).
    """
    n = _fock_level(n)
    amplitudes = passive_amplitudes(c0)
    kept = np.conj(amplitudes) ** np.full(amplitudes.shape, n)
    fidelities = np.sqrt((kept * np.conj(kept)).real)
    return float(fidelities[0]) if np.ndim(c0) == 0 else fidelities


def output_variances(state: InputState, ce: float | np.ndarray, phase: float | np.ndarray) -> QuadratureStats:
    """Both quadrature variances of the converted mode conj(C_0) a + vacuum, ce = |C_0|^2 and phase = arg C_0.

    ce and phase are numbers or arrays.  The input covariance is rotated by
    arg conj(C_0), scaled by ce and topped up with the vacuum's (1 - ce)/4:
    var_x' = var_x + sin^2(phase) (var_y - var_x) + sin(2 phase) cov_xy, and
    var_y' with both signs flipped.  The rotation adds exactly 0 at phase 0
    and to inputs with cov_xy = 0 and var_x = var_y (Fock, coherent, squeezed
    with r = 0): it is skipped for them.  Errors name the first bad ce or phase.
    """
    cov_xy = 0.0
    if isinstance(state, Squeezed):
        try:
            ch, sh = math.cosh(2 * state.r), math.sinh(2 * state.r)
        except OverflowError:  # past |r| = 355 the anti-squeezed variance is infinite, and the check below says so
            ch, sh = math.inf, 0.0
        var_x, var_y = (ch + sh * math.cos(state.theta)) / 4.0, (ch - sh * math.cos(state.theta)) / 4.0
        cov_xy = sh * math.sin(state.theta) / 4.0
    elif isinstance(state, (Fock, Coherent)):
        var_x = var_y = 0.25 if isinstance(state, Coherent) else (2 * _fock_level(state.n) + 1) / 4.0
    else:
        raise TypeError(f"unknown input state {type(state).__name__}")
    for var in (var_x, var_y):
        if not 0 <= var < math.inf:  # also rejects NaN
            raise ValueError(f"variance must be >= 0, got {var}")
    coeffs, phases = np.asarray(ce), np.asarray(phase)
    outside = np.flatnonzero(~((0.0 <= coeffs) & (coeffs <= 1.0)))  # NaN is outside too
    if outside.size:
        raise ValueError(f"power coefficient must lie in [0, 1], got {coeffs.flat[outside[0]].item()}")
    not_finite = np.flatnonzero(~np.isfinite(phases))
    if not_finite.size:
        raise ValueError(f"phase must be finite, got {phases.flat[not_finite[0]].item()}")
    if cov_xy == 0 and var_x == var_y and phases.shape in ((), coeffs.shape):  # the result keeps ce's shape
        rotated = (var_x, var_y)  # the rotation adds sin^2 * 0 and sin * 0: the pair bit for bit
    else:
        turn, shear = np.sin(phases) ** 2, np.sin(2 * phases) * cov_xy
        rotated = (var_x + turn * (var_y - var_x) + shear, var_y + turn * (var_x - var_y) - shear)
    return QuadratureStats(*(coeffs * var + (1.0 - coeffs) / 4.0 for var in rotated))
