"""Skyline cardinality estimation.

:func:`buchta_skyline_size` backs CAQE's benefit model: the closed form of
Buchta [4] the paper's Equation 9 uses — for ``n`` independently
distributed ``d``-dimensional points the expected skyline size is
``ln(n)^(d-1) / (d-1)!``.
"""

from __future__ import annotations

import math

from repro.errors import ReproError


def buchta_skyline_size(n: float, d: int) -> float:
    """Expected skyline cardinality of ``n`` independent ``d``-d points."""
    if d < 1:
        raise ReproError(f"dimensionality must be >= 1, got {d}")
    if n <= 1.0:
        return max(0.0, float(n))
    return math.log(n) ** (d - 1) / math.factorial(d - 1)


__all__ = [
    "buchta_skyline_size",
]
