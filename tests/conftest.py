"""Shared fixtures: the Figure-1 workload, small table pairs, helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import figures
from repro.datagen import generate_pair
from repro.query import add, subspace_workload


@pytest.fixture(scope="session")
def figure1_functions():
    return tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in range(1, 5))


@pytest.fixture(scope="session")
def figure1_workload():
    """The paper's running workload (Figure 1) on a single join condition.

    The original uses two join conditions; most plan-level tests only need
    the skyline-dimension structure, which is unchanged by the condition.
    """
    return figures.figure1_workload()


@pytest.fixture(scope="session")
def eleven_query_workload():
    """The experiments' |S_Q| = 11 workload (all 2..4-dim subspaces)."""
    return subspace_workload(4, priority_scheme="uniform")


@pytest.fixture(scope="session")
def small_pair():
    """A small independent benchmark pair usable across integration tests."""
    return generate_pair("independent", 200, 4, selectivity=0.05, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
