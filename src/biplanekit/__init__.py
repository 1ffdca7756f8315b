"""Biplane geometric graphs on planar point sets.

Recognition (two-layer decomposition or odd-cycle witness), augmentation of
any biplane graph to a maximal one by colorblind flips, generators for the
known tight constructions, and brute-force oracles that verify the fast
algorithms on small instances.
"""

from .analysis import brute_force_maximum, maximality_oracle, vertex_connectivity
from .augmentation import AugmentResult, maximal_augment
from .constructions import bounds, gen_convex, gen_grid
from .fileio import format_graph
from .geometry import PointSet, Strictness, validate
from .graphs import GeometricGraph
from .recognition import (
    BiplaneDecomposition,
    NotBiplaneError,
    OddCycleWitness,
    TooManyEdges,
    test_biplane,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentResult",
    "BiplaneDecomposition",
    "GeometricGraph",
    "NotBiplaneError",
    "OddCycleWitness",
    "PointSet",
    "Strictness",
    "TooManyEdges",
    "bounds",
    "brute_force_maximum",
    "format_graph",
    "gen_convex",
    "gen_grid",
    "maximal_augment",
    "maximality_oracle",
    "test_biplane",
    "validate",
    "vertex_connectivity",
]
