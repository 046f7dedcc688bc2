"""Mechanical verification of pre/postselection contextuality arguments.

The package builds finite quantum scenarios (a preselected state, a
postselected state, labeled rank-1 projectors, and the contexts they
form), derives the values the selections force on those projectors, and
decides by exhaustive enumeration whether any noncontextual 0/1
assignment survives.  Optimizers locate the parameter choices that
maximize the selection probabilities of the built-in constructions.

The public names are those of the six layers; each layer's ``__all__``
is the one place they are listed.
"""

from . import constructions, hilbert, nchv, optimizer, prepost, scenario
from .constructions import *
from .hilbert import *
from .nchv import *
from .optimizer import *
from .prepost import *
from .scenario import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += hilbert.__all__
__all__ += scenario.__all__
__all__ += constructions.__all__
__all__ += prepost.__all__
__all__ += nchv.__all__
__all__ += optimizer.__all__
