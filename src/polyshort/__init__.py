"""Polygon shortening flows: geometry predicates, three flows, spectral
solution of the linear one, fixed-step integration, invariant checks, and
deterministic artifact generation.  Each public name is declared once, in its
module's ``__all__``; the command line, :mod:`polyshort.cli`, is not imported."""

from . import analysis, artifacts, flows, generators, geometry, simulate, spectral
from .analysis import *  # noqa: F401,F403
from .artifacts import *  # noqa: F401,F403
from .flows import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (geometry, flows, spectral, simulate, analysis, generators, artifacts)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
