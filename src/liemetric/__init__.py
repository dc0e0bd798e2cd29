"""liemetric: curvature and Ricci classification for metric Lie algebras.

A module's ``__all__`` is what the package exports.
"""

from . import classify, constructions, errors, geometry, lie, linalg
from .classify import *
from .constructions import *
from .geometry import *
from .lie import *
from .linalg import *

__version__ = "0.1.0"

__all__ = ["errors", "__version__", *linalg.__all__, *lie.__all__, *geometry.__all__, *classify.__all__,
           *constructions.__all__]
