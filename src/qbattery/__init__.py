"""Charging quench dynamics of cavity-array and collective quantum batteries.

The package prepares every cavity with m photons and every two-level
system in its ground state, quenches on the light-matter coupling, and
tracks the stored energy E(t) to extract the maximum charging power
P_max = max_t E(t)/t.  Two Hamiltonians are covered: a chain/ring/complete
graph of coupled cavities (photon-number-conserving couplings plus
hopping) and a single-mode collective model with rotating and
counter-rotating terms on a truncated photon ladder.
"""

from .basis import (
    DEFAULT_MAX_DIM,
    BasisIndex,
    CapacityError,
    DickeBasis,
    JchBasis,
    build_dicke_basis,
    build_jch_sector,
    dicke_dim,
    jch_sector_dim,
    total_excitations,
)
from .battery import (
    DENSE_LIMIT_DEFAULT,
    DegenerateRabiError,
    PowerResult,
    QuenchSystem,
    RabiParams,
    SearchConfig,
    SearchNotice,
    charge,
    default_horizon,
    energy_series,
    max_power,
    rabi_oracle,
)
from .dynamics import ChebyshevEngine, EigenEngine, Spectrum, diagonalize
from .hamiltonians import (
    BasisMismatchError,
    MissingStateError,
    Model,
    ModelParams,
    Normalization,
    Topology,
    build_basis,
    build_csr,
    initial_index,
    initial_state,
    jz_diagonal,
)
from .sweeps import (
    CONVERGENCE_THRESHOLD,
    Axis,
    InsufficientDataError,
    NonpositiveValueError,
    Scaling,
    SweepRow,
    SweepSpec,
    convergence_check,
    fit_power_law,
    preset_names,
    preset_specs,
    run_sweep,
    scaled_power,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis
    "DEFAULT_MAX_DIM",
    "BasisIndex",
    "CapacityError",
    "DickeBasis",
    "JchBasis",
    "build_dicke_basis",
    "build_jch_sector",
    "dicke_dim",
    "jch_sector_dim",
    "total_excitations",
    # hamiltonians
    "BasisMismatchError",
    "MissingStateError",
    "Model",
    "ModelParams",
    "Normalization",
    "Topology",
    "build_basis",
    "build_csr",
    "initial_index",
    "initial_state",
    "jz_diagonal",
    # dynamics
    "ChebyshevEngine",
    "EigenEngine",
    "Spectrum",
    "diagonalize",
    # battery
    "DENSE_LIMIT_DEFAULT",
    "DegenerateRabiError",
    "PowerResult",
    "QuenchSystem",
    "RabiParams",
    "SearchConfig",
    "SearchNotice",
    "charge",
    "default_horizon",
    "energy_series",
    "max_power",
    "rabi_oracle",
    # sweeps
    "CONVERGENCE_THRESHOLD",
    "Axis",
    "InsufficientDataError",
    "NonpositiveValueError",
    "Scaling",
    "SweepRow",
    "SweepSpec",
    "convergence_check",
    "fit_power_law",
    "preset_names",
    "preset_specs",
    "run_sweep",
    "scaled_power",
]
