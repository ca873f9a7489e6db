"""Shared query plans: subspace lattice and the min-max cuboid (Section 4.1)."""

from repro.plan.lattice import LatticeNode, SubspaceLattice
from repro.plan.minmax_cuboid import CuboidNode, MinMaxCuboid, build_minmax_cuboid
from repro.plan.report import SharingReport, sharing_report
from repro.plan.shared_plan import SharedCuboidPlan, WorkloadPlan
from repro.plan.subspace import SubspaceTable

__all__ = [
    "CuboidNode",
    "LatticeNode",
    "MinMaxCuboid",
    "SharedCuboidPlan",
    "SharingReport",
    "SubspaceLattice",
    "sharing_report",
    "SubspaceTable",
    "WorkloadPlan",
    "build_minmax_cuboid",
]
