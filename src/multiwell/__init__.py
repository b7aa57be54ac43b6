"""Multi-well polynomial potentials in 1D: spectra, avoided level
crossings, and relocalization catastrophes."""

__version__ = "0.1.0"

from . import crossings, polynomial, spectrum, wells
from .crossings import *  # noqa: F401,F403
from .polynomial import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .wells import *  # noqa: F401,F403

__all__ = ["__version__", *polynomial.__all__, *wells.__all__,
           *spectrum.__all__, *crossings.__all__]
