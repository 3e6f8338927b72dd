"""Finite-volume tools for soft-congestion Brinkman flow.

A transported density drives a semi-stationary velocity through singular
pressure and bulk-viscosity laws that blow up at the packing density.  The
package integrates the coupled system on periodic staggered grids, monitors
the exact discrete structure (effective-flux identity, energy balance,
congestion measures), and runs parameter sweeps that expose how the stiff
(epsilon -> 0) and truncation (delta -> 0) limits behave.

Each module's ``__all__`` is its public API; the package re-exports those
names and nothing else besides ``__version__``.
"""

from .errors import *  # noqa: F401,F403
from .laws import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .momentum import *  # noqa: F401,F403
from .transport import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (errors.__all__ + laws.__all__ + grid.__all__  # noqa: F405
           + momentum.__all__ + transport.__all__  # noqa: F405
           + diagnostics.__all__ + harness.__all__  # noqa: F405
           + ["__version__"])
