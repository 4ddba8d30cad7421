"""Quantum frequency conversion through a resonant backward FWM medium.

A numpy library that models the conversion of a weak probe field
into a counter-propagating signal field inside an EIT-supported
four-wave-mixing medium: per-frequency propagation coefficients, the
backward-boundary transfer matrix, vacuum-reservoir noise accounting,
converted-state density matrices, fidelities and quadrature variances.
scipy is loaded only by one independent oracle, on first use:
scipy.linalg by beam_splitter_oracle.  The semiclassical oracle behind
fig2's semiclassical columns is numpy alone.
"""

from . import errors
from .params import GAMMA, LENGTH, SystemParams, is_symmetric, symmetric_params, validate
from .spectral import (
    NOISE_INDICES,
    SpectralStack,
    build_first_order_system,
    closed_form_coefficients,
    eit_denominator,
    solve_susceptibilities,
    solve_susceptibility_stack,
)
from .transfer import (
    NoiseKernels,
    PropagationSweep,
    SemiclassicalSweep,
    conversion_efficiency,
    coupling_matrix,
    expm2,
    noise_kernel_block,
    noise_kernels,
    propagation_sweep,
    resolved_coefficients,
    semiclassical_solve,
    semiclassical_sweep,
    transmittance,
)
from .noise import (
    DiffusionMatrix,
    default_window,
    diffusion_matrix,
    eta1,
    eta2,
    gauss_legendre_grid,
    langevin_photon_noise,
)
from .states import (
    DEFAULT_DIM,
    Coherent,
    Fock,
    InputState,
    QuadratureStats,
    Squeezed,
    apply_loss_channel,
    beam_splitter_oracle,
    coherent_dm,
    coherent_fidelity,
    coherent_vector,
    destroy,
    fidelity,
    fock_dm,
    input_variances,
    output_variance,
    output_variances,
    projector_series_oracle,
    trace_distance,
    validate_density_matrix,
)

__version__ = "0.1.0"

