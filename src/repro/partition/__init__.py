"""Input-space partitioning: hyper-rectangles, quad-trees, leaf cells, signatures."""

from repro.partition.bounds import HyperRect
from repro.partition.cells import CellRange, LeafCell
from repro.partition.quadtree import (
    DEFAULT_CAPACITY,
    Partitioning,
    partitioning_of,
    quadtree_partition,
)
from repro.partition.signatures import (
    signature_of,
    signatures_for_side,
    signatures_intersect,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "CellRange",
    "HyperRect",
    "LeafCell",
    "Partitioning",
    "partitioning_of",
    "quadtree_partition",
    "signature_of",
    "signatures_for_side",
    "signatures_intersect",
]
