"""Skyline substrate: dominance, windows, BNL/SFS, skycube, estimation."""

from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import (
    ComparisonCounter,
    Dominance,
    compare,
    dominance_broadcast,
    dominance_mask,
    dominates,
)
from repro.skyline.estimate import buchta_skyline_size
from repro.skyline.sfs import sfs_order, sfs_skyline
from repro.skyline.skycube import Skycube, all_subspaces, compute_naive, compute_shared
from repro.skyline.window import InsertOutcome, SkylineWindow, WindowEntry

__all__ = [
    "ComparisonCounter",
    "Dominance",
    "InsertOutcome",
    "Skycube",
    "SkylineWindow",
    "WindowEntry",
    "all_subspaces",
    "bnl_skyline",
    "buchta_skyline_size",
    "compare",
    "compute_naive",
    "compute_shared",
    "dominance_broadcast",
    "dominance_mask",
    "dominates",
    "sfs_order",
    "sfs_skyline",
]
