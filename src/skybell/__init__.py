"""skybell: polarization-entanglement detection for photon pairs from two sky sources.

The package models a pair of point sources observed by two polarizing
detectors: entangled-pair CHSH correlators, scalar path amplitudes and
intensity interference, a partially polarized unentangled background,
rate-weighted signal/background mixtures over two viewing scenarios,
counter-based Monte Carlo sampling, and a small CLI.

The supported API is ``__all__``: the version plus the ``__all__`` of each
library module, which lists that module's public names.
"""

__version__ = "0.1.0"

from . import background, errors, montecarlo, polarization, propagation, scenarios
from .background import *  # noqa: F403
from .errors import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .polarization import *  # noqa: F403
from .propagation import *  # noqa: F403
from .scenarios import *  # noqa: F403

__all__ = [
    "__version__",
    *background.__all__,
    *errors.__all__,
    *montecarlo.__all__,
    *polarization.__all__,
    *propagation.__all__,
    *scenarios.__all__,
]
