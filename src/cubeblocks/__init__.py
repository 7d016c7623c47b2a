"""Exact verification of cubic-block decompositions over finite fields.

The package assembles lattice blocks from bricks, verifies their direct
sum structure symbolically and at random specializations, and counts
permitted spin configurations under linear boundary conditions.
"""

__version__ = "1.0.0"

# ``import cubeblocks`` loads every module, as bench/spans.py's tracer
# expects; nothing is re-exported, so names come from the submodules
from . import fields, polys, matrices, lattice, census
from . import pointmap, identity, decomp3d, dim4
