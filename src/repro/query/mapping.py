"""Scalar mapping functions (the PROJECT operator's ``F``, Section 2.2).

A :class:`MappingFunction` ``f_j`` transforms each join tuple into one
output attribute ``x_j`` (Example 5: total trip price from nightly rate,
WiFi charges and air fare).  CAQE's coarse-level look-ahead needs to map
whole *cells* (hyper-rectangles of input values) into output-space bounds,
which is only sound when the function is monotone in every input; the
constructors here therefore record monotonicity, and
:meth:`MappingFunction.apply_bounds` refuses to run for non-monotone
functions.

All built-in factories (:func:`add`, :func:`weighted_sum`, :func:`left_only`,
:func:`right_only`) produce functions that are non-decreasing in each input,
so ``f(lower_L, lower_R) <= f(v_L, v_R) <= f(upper_L, upper_R)`` holds for
any tuple drawn from the cells — exactly the property Section 5.1's output
regions rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class MappingFunction:
    """One output dimension computed from left- and right-side attributes.

    ``fn`` receives one numpy array per input attribute (left inputs first,
    then right inputs) and must return an array of the same length, which
    lets the executor evaluate a whole batch of join results at once.
    """

    output: str
    left_inputs: tuple[str, ...]
    right_inputs: tuple[str, ...]
    fn: Callable[..., np.ndarray]
    monotone: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if not self.output:
            raise QueryError("mapping function needs an output attribute name")
        if not self.left_inputs and not self.right_inputs:
            raise QueryError(f"mapping function {self.output!r} consumes no attributes")

    @property
    def name(self) -> str:
        return self.label or f"f[{self.output}]"

    def arity(self) -> int:
        return len(self.left_inputs) + len(self.right_inputs)

    def apply(
        self,
        left_columns: "dict[str, np.ndarray]",
        right_columns: "dict[str, np.ndarray]",
    ) -> np.ndarray:
        """Vectorised evaluation over aligned join-result columns."""
        args = [np.asarray(left_columns[a]) for a in self.left_inputs]
        args += [np.asarray(right_columns[a]) for a in self.right_inputs]
        return np.asarray(self.fn(*args))

    def apply_scalar(self, left_row: "dict[str, float]", right_row: "dict[str, float]") -> float:
        """Single-tuple evaluation (used by examples and tests)."""
        args = [np.asarray([left_row[a]], dtype=float) for a in self.left_inputs]
        args += [np.asarray([right_row[a]], dtype=float) for a in self.right_inputs]
        return float(np.asarray(self.fn(*args))[0])

    def apply_bounds(
        self,
        left_lower: "dict[str, np.ndarray | float]",
        left_upper: "dict[str, np.ndarray | float]",
        right_lower: "dict[str, np.ndarray | float]",
        right_upper: "dict[str, np.ndarray | float]",
    ) -> "tuple[np.ndarray | float, np.ndarray | float]":
        """Map input-cell bounds to an output interval (coarse join step).

        Each map holds one cell corner per attribute, giving a
        ``(float, float)`` interval — or one aligned column of corners per
        attribute, giving one interval per row (columns that may alias the
        inputs; a constant ``fn`` may return fewer elements than rows).
        """
        if not self.monotone:
            raise QueryError(
                f"mapping function {self.name} is not monotone; cannot derive "
                "output-region bounds from cell bounds"
            )
        # `[()]` unboxes a 0-d result to a float and leaves columns alone.
        low = self.apply(left_lower, right_lower)[()]
        high = self.apply(left_upper, right_upper)[()]
        return (low, high)


def add(left_attr: str, right_attr: str, output: str) -> MappingFunction:
    """``output = left_attr + right_attr`` — the workhorse of the benchmarks."""
    return MappingFunction(
        output=output,
        left_inputs=(left_attr,),
        right_inputs=(right_attr,),
        fn=lambda a, b: a + b,
        monotone=True,
        label=f"{left_attr}+{right_attr}",
    )


def weighted_sum(
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
    weights: Sequence[float],
    output: str,
) -> MappingFunction:
    """Non-negative weighted sum across attributes from both sides."""
    left_attrs = tuple(left_attrs)
    right_attrs = tuple(right_attrs)
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(left_attrs) + len(right_attrs):
        raise QueryError(
            f"weighted_sum for {output!r}: {len(weights)} weights for "
            f"{len(left_attrs) + len(right_attrs)} inputs"
        )
    if any(w < 0 for w in weights):
        raise QueryError(f"weighted_sum for {output!r}: weights must be non-negative")

    def _fn(*arrays: np.ndarray) -> np.ndarray:
        total = np.zeros_like(np.asarray(arrays[0], dtype=float))
        for w, arr in zip(weights, arrays):
            total = total + w * np.asarray(arr, dtype=float)
        return total

    return MappingFunction(
        output=output,
        left_inputs=left_attrs,
        right_inputs=right_attrs,
        fn=_fn,
        monotone=True,
        label=f"wsum[{output}]",
    )


def left_only(attr: str, output: "str | None" = None) -> MappingFunction:
    """Pass a left-side attribute straight through."""
    out = output or attr
    return MappingFunction(
        output=out,
        left_inputs=(attr,),
        right_inputs=(),
        fn=lambda a: a,
        monotone=True,
        label=f"L.{attr}",
    )


def right_only(attr: str, output: "str | None" = None) -> MappingFunction:
    """Pass a right-side attribute straight through."""
    out = output or attr
    return MappingFunction(
        output=out,
        left_inputs=(),
        right_inputs=(attr,),
        fn=lambda a: a,
        monotone=True,
        label=f"R.{attr}",
    )


def scaled(base: MappingFunction, factor: float, offset: float = 0.0) -> MappingFunction:
    """``factor * base + offset`` with ``factor >= 0`` (keeps monotonicity).

    Example 5's ``(price + WiFi) * 10 + air_fare`` is ``scaled(add(...), 10)``
    composed with a further :func:`weighted_sum`.
    """
    if factor < 0:
        raise QueryError("scaled() requires a non-negative factor to stay monotone")
    return MappingFunction(
        output=base.output,
        left_inputs=base.left_inputs,
        right_inputs=base.right_inputs,
        fn=lambda *args: factor * np.asarray(base.fn(*args), dtype=float) + offset,
        monotone=base.monotone,
        label=f"{factor}*{base.name}+{offset}",
    )


__all__ = [
    "MappingFunction",
    "add",
    "left_only",
    "right_only",
    "scaled",
    "weighted_sum",
]
