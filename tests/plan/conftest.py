"""The plan tests' oracle: a tuple-at-a-time walk of the min-max cuboid."""

import pytest

from repro.skyline.window import SkylineWindow


class CuboidWalk:
    """Section 4.1's shared evaluation, one tuple and one node at a time.

    Owns its windows, so a :class:`~repro.plan.SharedCuboidPlan` fed the
    same tuples must end with the same admissions, evictions, window
    contents and charged comparisons.
    """

    def __init__(self, cuboid, attribute_order, counter=None, assume_dva=True):
        self.cuboid, self.assume_dva = cuboid, assume_dva
        names = cuboid.lattice.table.names
        self.windows = {
            mask: SkylineWindow(
                dims=tuple(attribute_order.index(d) for d in names(mask)),
                counter=counter,
            )
            for mask in cuboid.masks
        }

    def insert(self, key, vector, serve_mask=None):
        """Returns ``(admitted masks, {mask: evicted keys})`` of one tuple."""
        admitted, evicted = set(), {}
        for mask in self.cuboid.masks:  # bottom-up
            node = self.cuboid.node(mask)
            if serve_mask is not None and not (node.qserve & serve_mask):
                continue
            window = self.windows[mask]
            # Theorem 1: admitted at a child => member here (under DVA).
            seeded = self.assume_dva and any(c in admitted for c in node.children)
            insert = window.insert_known_member if seeded else window.insert
            outcome = insert(key, vector)
            if outcome.admitted:
                admitted.add(mask)
            if outcome.evicted:
                evicted[mask] = [e.key for e in outcome.evicted]
        return admitted, evicted


@pytest.fixture(scope="session")
def cuboid_walk():
    return CuboidWalk
