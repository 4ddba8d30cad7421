"""The public names of the eitqfc package, pinned so that any removal or addition shows in a diff."""

from types import ModuleType

import eitqfc

#: Every name ``import eitqfc`` binds that is neither private nor a submodule.
EXPORTS = [
    "Coherent",
    "DEFAULT_DIM",
    "DiffusionMatrix",
    "Fock",
    "GAMMA",
    "InputState",
    "LENGTH",
    "NOISE_INDICES",
    "PropagationSweep",
    "QuadratureStats",
    "SpectralStack",
    "Squeezed",
    "SystemParams",
    "apply_loss_channel",
    "build_first_order_system",
    "coherent_dm",
    "coherent_fidelity",
    "coherent_vector",
    "default_window",
    "destroy",
    "diffusion_matrix",
    "eit_denominator",
    "eta1",
    "eta2",
    "fidelity",
    "fock_dm",
    "fock_fidelity",
    "is_symmetric",
    "langevin_photon_noise",
    "output_variances",
    "propagation_sweep",
    "semiclassical_sweep",
    "solve_susceptibility_stack",
    "symmetric_params",
    "trace_distance",
    "validate_density_matrix",
]

#: The submodules the package imports itself; ``eitqfc.cli`` becomes an attribute only once imported.
SUBMODULES = ["errors", "noise", "params", "spectral", "states", "transfer"]


def test_exported_names_are_pinned():
    names = vars(eitqfc).items()
    public = sorted(name for name, value in names if not name.startswith("_") and not isinstance(value, ModuleType))
    assert public == EXPORTS


def test_package_import_loads_its_submodules():
    assert all(isinstance(getattr(eitqfc, name, None), ModuleType) for name in SUBMODULES)
