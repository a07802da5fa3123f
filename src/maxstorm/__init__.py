"""Space-time max-stable fields: simulation, dependence, pairwise fitting.

The field of interest is a max-autoregression driven by iid max-stable
spatial innovations: each date takes the pointwise maximum of the shifted,
damped previous date and a fresh innovation field.  The package simulates
it exactly on the plane (Smith or Schlather innovations) and on the sphere
(von Mises-Fisher innovations), evaluates its exact joint distributions
and extremal dependence measures, and estimates its parameters by
space-time pairwise likelihood.
"""

from .errors import *
from .geometry import *
from .point_process import *
from .spatial import *
from .spacetime import *
from .dependence import *
from .inference import *
from .fieldio import *
from .config import *
from .study import *

__version__ = "0.1.0"

# Each library module's __all__ is what the package exports; cli is the
# command line, not API.
__all__: list[str] = []
__all__ += errors.__all__
__all__ += geometry.__all__
__all__ += point_process.__all__
__all__ += spatial.__all__
__all__ += spacetime.__all__
__all__ += dependence.__all__
__all__ += inference.__all__
__all__ += fieldio.__all__
__all__ += config.__all__
__all__ += study.__all__
