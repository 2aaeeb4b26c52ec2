"""qregsim: exact dissipative dynamics of a qubit register in a bosonic bath.

The register-bath coupling conserves the total excitation number, so the
one-excitation sector (dimension N + N_b) carries the full zero-temperature
dynamics: build the Hamiltonian, diagonalize it once, and evaluate fidelity,
decoherence function, populations, and entropies on any time grid. Sector
combinatorics, the secular-equation spectrum of the permutation-symmetric
sector, scenario presets, and an acceptance suite round out the package.
"""

from .config import (
    BellMixPrep,
    ConfigError,
    ExplicitPrep,
    MomentumPrep,
    MSuperpositionPrep,
    RunConfig,
    SymmetricPrep,
    format_config,
    parse_config,
    parse_config_file,
    prep_vector,
)
from .dynamics import (
    Observables,
    RelaxationFit,
    RelaxationFitError,
    TimeGrid,
    TimeSeries,
    binary_entropy_bits,
    evolve,
    fit_relaxation_time,
    initial_amplitudes,
    observables,
    quadratic_decay_coefficient,
    run_time_series,
    series_to_csv,
    spin_spectrum,
)
from .matexp import expm, expm_evolve
from .model import (
    CosineCoupling,
    ExplicitCoupling,
    ExplicitDispersion,
    LinearDispersion,
    ModelParams,
    UniformCoupling,
    build_h1,
    coupling_matrix,
    mode_frequencies,
)
from .presets import PRESET_NAMES, build_preset
from .sector import (
    BasisLabel,
    RegisterShape,
    SectorBasis,
    dimension,
    enumerate_basis,
    m_superposition,
    momentum_state,
    su2_multiplicity,
    su2_spin_ladder,
    symmetric_state,
)
from .spectral import (
    DiagonalizationError,
    SpectralDecomposition,
    diagonalize,
    secular_function,
    secular_roots,
    sector_energies,
    symmetric_spectrum,
    uses_secular_route,
)

__version__ = "0.1.0"
