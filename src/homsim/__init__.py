"""Time-resolved Hong-Ou-Mandel interference from dephasing photon sources.

All quantities are dimensionless, in units of the bath cutoff frequency:
times are omega_c * t, rates are gamma / omega_c, temperatures enter as
theta = omega_c * beta.

The public names are those of the four modules' ``__all__``, re-exported
here in module order; each is declared in its module only.
"""

from . import bath, dynamics, interference, trajectories
from .bath import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .interference import *  # noqa: F403
from .trajectories import *  # noqa: F403

__all__ = [*bath.__all__, *dynamics.__all__, *interference.__all__,
           *trajectories.__all__]

__version__ = "0.1.0"
