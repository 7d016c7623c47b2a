"""Exact verification of cubic-block decompositions over finite fields.

The package assembles lattice blocks from bricks, verifies their direct
sum structure symbolically and at random specializations, and counts
permitted spin configurations under linear boundary conditions.
"""

__version__ = "1.0.0"

from .fields import FiniteField
from .polys import MultiPoly, PolyRing
from .matrices import RingMatrix
from .lattice import LatticeSpec, BrickSpec, assemble_block, evolve
from .census import BoundaryConditions, ConfigCount, count_configs
from .pointmap import brute_force_census
from .identity import Verdict, random_identity_check
from .decomp3d import (
    RESOLVED_LINE_ORDERING,
    DecompositionReport,
    EvolutionCensus,
    verify_decomposition_2d,
    verify_decomposition_3d,
    verify_scalar_structure,
    verify_triple_product_spectrum,
    verify_symmetric_decomposition,
    evolution_census_closed_form,
)
from .dim4 import reduce_chain_4d, nondegeneracy_4d, verify_stratification

__all__ = [
    "FiniteField",
    "MultiPoly", "PolyRing", "RingMatrix",
    "LatticeSpec", "BrickSpec", "assemble_block", "evolve",
    "BoundaryConditions", "ConfigCount", "count_configs",
    "brute_force_census",
    "Verdict", "random_identity_check",
    "RESOLVED_LINE_ORDERING", "DecompositionReport", "EvolutionCensus",
    "verify_decomposition_2d", "verify_decomposition_3d",
    "verify_scalar_structure", "verify_triple_product_spectrum",
    "verify_symmetric_decomposition", "evolution_census_closed_form",
    "reduce_chain_4d", "nondegeneracy_4d", "verify_stratification",
]
