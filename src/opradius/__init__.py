"""opradius: numerical radii, rho-radii, and distance to the unitary group
for dense complex matrices, with machine-checked certificates for an extremal
matrix family."""

from . import bounds, extremal, linalg, radii, unitary
from .bounds import *  # noqa: F401,F403
from .extremal import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .radii import *  # noqa: F401,F403
from .unitary import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *extremal.__all__, *linalg.__all__, *radii.__all__,
           *unitary.__all__, "__version__"]
