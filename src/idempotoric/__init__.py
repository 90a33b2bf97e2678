"""Exact idempotent structure of commutative monoids.

The layers, bottom to top:

- ``lattices``: integer matrices, Hermite and Smith forms, kernels,
  saturation.
- ``cones``: rational polyhedral cones from generators, faces, signed
  circuits and the face test they give, and a face oracle kept as the
  reference, on one certified exact simplex that also proves each
  cone's lineality face linear.
- ``monoids``: weight monoids, their idempotent posets, and envelope
  reports.
- ``eigen``: from a nonzero rational spectrum to the idempotent poset of
  the monoid its diagonal matrix generates.
- ``finite``: brute-force facts about finite semigroup multiplication
  tables, used as an oracle layer.
- ``cli``: versioned JSON jobs, reports, DOT export, and the command line.
"""

from . import cones, eigen, finite, lattices, monoids
from .cli import SCHEMA, export_dot, run, run_selftest
from .cones import *
from .eigen import *
from .errors import InputError, InternalCheckError
from .finite import *
from .lattices import *
from .monoids import *

__version__ = "0.1.0"

# each layer lists its public names once, in its own __all__
__all__ = [
    *lattices.__all__,
    *cones.__all__,
    *monoids.__all__,
    *eigen.__all__,
    *finite.__all__,
    "SCHEMA",
    "export_dot",
    "run",
    "run_selftest",
    "InputError",
    "InternalCheckError",
    "__version__",
]
