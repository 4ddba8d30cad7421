"""Quantum frequency conversion through a resonant backward FWM medium.

A numpy library that models the conversion of a weak probe field
into a counter-propagating signal field inside an EIT-supported
four-wave-mixing medium: per-frequency propagation coefficients, the
backward-boundary transfer matrix, vacuum-reservoir noise accounting,
converted-state density matrices, fidelities and quadrature variances.
Its one runtime dependency is numpy, the independent oracles included.
"""

from . import errors
from .params import GAMMA, LENGTH, SystemParams, is_symmetric, symmetric_params, validate
from .spectral import (
    NOISE_INDICES,
    SpectralStack,
    build_first_order_system,
    eit_denominator,
    solve_susceptibility_stack,
)
from .transfer import (
    PropagationSweep,
    SemiclassicalSweep,
    noise_kernel_block,
    propagation_sweep,
    semiclassical_sweep,
)
from .noise import (
    DiffusionMatrix,
    default_window,
    diffusion_matrix,
    eta1,
    eta2,
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
    coherent_dm,
    coherent_fidelity,
    coherent_vector,
    destroy,
    fidelity,
    fock_dm,
    fock_fidelity,
    input_variances,
    output_variance,
    output_variances,
    trace_distance,
    validate_density_matrix,
)

__version__ = "0.1.0"

