"""qregsim: exact dissipative dynamics of a qubit register in a bosonic bath.

The register-bath coupling conserves the total excitation number, so the
one-excitation sector (dimension N + N_b) carries the full zero-temperature
dynamics: build the Hamiltonian, take its spectrum once (`spin_spectrum`;
`dynamics` picks the route in one place and describes it), and evaluate fidelity,
decoherence function, populations, and entropies on any time grid. Sector
combinatorics, the secular-equation spectrum of the permutation-symmetric
sector, scenario presets, and an acceptance suite round out the package.
"""

from .config import *
from .dynamics import *
from .matexp import *
from .model import *
from .presets import *
from .sector import *
from .selfenergy import *
from .spectral import *

__version__ = "0.1.0"
