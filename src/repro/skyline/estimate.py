"""Skyline cardinality estimation.

Two estimators back CAQE's benefit model:

* :func:`buchta_skyline_size` — the closed form of Buchta [4] the paper's
  Equation 9 uses: for ``n`` independently distributed ``d``-dimensional
  points the expected skyline size is ``ln(n)^(d-1) / (d-1)!``.
* :class:`SampledSkylineEstimator` — the robust log-sampling approach of
  Chaudhuri et al. [5] (cited by the paper when noting that "cardinality
  estimation is very error prone" for skylines): fit ``s = A * ln(n)^B``
  from skyline sizes measured on nested samples of the actual data, which
  adapts to correlated and anti-correlated distributions where the
  independence assumption behind Buchta's formula fails badly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ReproError
from repro.rng import ensure_rng


def buchta_skyline_size(n: float, d: int) -> float:
    """Expected skyline cardinality of ``n`` independent ``d``-d points."""
    if d < 1:
        raise ReproError(f"dimensionality must be >= 1, got {d}")
    if n <= 1.0:
        return max(0.0, float(n))
    return math.log(n) ** (d - 1) / math.factorial(d - 1)


class SampledSkylineEstimator:
    """Log-sampling skyline-cardinality model (after Chaudhuri et al. [5]).

    Fitted once per dataset/subspace from skyline sizes of nested random
    samples; :meth:`predict` then extrapolates ``s(n) = A * ln(n)^B`` to
    any input size.  ``B`` is clamped to ``[0, d]`` and ``A >= 0`` so the
    model stays sane on degenerate fits.
    """

    def __init__(self, coefficient: float, exponent: float) -> None:
        if coefficient < 0:
            raise ReproError(f"coefficient must be >= 0, got {coefficient}")
        self.coefficient = float(coefficient)
        self.exponent = float(exponent)

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        dims: "tuple[int, ...] | None" = None,
        *,
        sample_sizes: "tuple[int, ...] | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> "SampledSkylineEstimator":
        """Fit from nested samples of ``points`` over ``dims``."""
        from repro.skyline.bnl import bnl_skyline

        matrix = np.asarray(points, dtype=float)
        if matrix.ndim != 2 or len(matrix) < 4:
            raise ReproError("need a 2-d matrix with at least 4 rows to fit")
        d = len(dims) if dims is not None else matrix.shape[1]
        rng = ensure_rng(seed)
        order = rng.permutation(len(matrix))
        n = len(matrix)
        if sample_sizes is None:
            sizes, size = [], n
            while size >= 4 and len(sizes) < 5:
                sizes.append(size)
                size //= 2
            sample_sizes = tuple(reversed(sizes))
        xs, ys = [], []
        for size in sample_sizes:
            if size < 2 or size > n:
                continue
            sample = matrix[order[:size]]
            sky = len(bnl_skyline(sample, dims=dims))
            xs.append(math.log(math.log(max(size, 3))))
            ys.append(math.log(max(sky, 1)))
        if len(xs) < 2 or len(set(xs)) < 2:
            raise ReproError("not enough distinct sample sizes to fit")
        slope, intercept = np.polyfit(xs, ys, 1)
        exponent = float(np.clip(slope, 0.0, d))
        coefficient = float(math.exp(intercept))
        return cls(coefficient, exponent)

    def predict(self, n: float) -> float:
        """Estimated skyline size of an ``n``-point input."""
        if n <= 1.0:
            return max(0.0, float(n))
        return self.coefficient * math.log(n) ** self.exponent

    def __repr__(self) -> str:
        return (
            f"SampledSkylineEstimator(s(n) ~ {self.coefficient:.3g} "
            f"* ln(n)^{self.exponent:.3g})"
        )


__all__ = [
    "SampledSkylineEstimator",
    "buchta_skyline_size",
]
