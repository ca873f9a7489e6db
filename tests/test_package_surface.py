"""Tests for the package surfaces, errors, rng helpers, and CLI."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro import errors
from repro.rng import DEFAULT_SEED, ensure_rng, spawn

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


class TestPublicApi:
    def test_all_exports_resolve(self):
        """Every package's ``__all__`` names only what the package has, so
        a re-export left behind by a deleted module fails here."""
        assert len(PACKAGES) > 1
        for package in PACKAGES:
            module = importlib.import_module(package)
            assert module.__all__, package
            for name in module.__all__:
                assert hasattr(module, name), f"{package}.{name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_workflow_via_top_level_names(self):
        pair = repro.generate_pair("independent", 60, 3, selectivity=0.1, seed=1)
        workload = repro.subspace_workload(3)
        contracts = {q.name: repro.c1(1e9) for q in workload}
        result = repro.run_caqe(pair.left, pair.right, workload, contracts)
        assert result.average_satisfaction() == 1.0  # infinite deadline


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SchemaError,
            errors.QueryError,
            errors.ContractError,
            errors.PartitionError,
            errors.PlanError,
            errors.ExecutionError,
            errors.BenchmarkError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            raise errors.PlanError("x")


class TestRng:
    def test_none_uses_default_seed(self):
        a = ensure_rng(None).random(3)
        b = np.random.default_rng(DEFAULT_SEED).random(3)
        np.testing.assert_array_equal(a, b)

    def test_int_seed(self):
        np.testing.assert_array_equal(
            ensure_rng(5).random(3), np.random.default_rng(5).random(3)
        )

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_spawn_independence(self):
        children = spawn(ensure_rng(7), 3)
        assert len(children) == 3
        draws = [c.random(4).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_deterministic(self):
        a = [c.random(2).tolist() for c in spawn(ensure_rng(7), 2)]
        b = [c.random(2).tolist() for c in spawn(ensure_rng(7), 2)]
        assert a == b


class TestCli:
    def test_parser_builds(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        args = parser.parse_args(["figure9", "independent", "--contracts", "C1"])
        assert args.distribution == "independent"

    def test_table3_command(self, capsys):
        from repro.__main__ import main

        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "CAQE" in out and "Progressive" in out

    def test_cuboid_command(self, capsys):
        from repro.__main__ import main

        assert main(["cuboid"]) == 0
        assert "min-max cuboid" in capsys.readouterr().out

    def test_rejects_unknown_distribution(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9", "zipf"])
