"""Charging quench dynamics of cavity-array and collective quantum batteries.

The package prepares every cavity with m photons and every two-level
system in its ground state, quenches on the light-matter coupling, and
tracks the stored energy E(t) to extract the maximum charging power
P_max = max_t E(t)/t.  Two Hamiltonians are covered: a chain/ring/complete
graph of coupled cavities (photon-number-conserving couplings plus
hopping) and a single-mode collective model with rotating and
counter-rotating terms on a truncated photon ladder.

Each module's ``__all__`` is the only list of its public names; the
package re-exports them all, in module order.  The command line lives in
``qbattery.cli`` and is not re-exported.
"""

# This relies on each of the submodules having an __all__ variable.
from .hamiltonians import *
from .dynamics import *
from .battery import *
from .sweeps import *
from . import battery, dynamics, hamiltonians, sweeps

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *hamiltonians.__all__,
    *dynamics.__all__,
    *battery.__all__,
    *sweeps.__all__,
]
