"""Tests for SJ query specs, preferences, priorities, and workloads."""

import pytest

from repro.errors import QueryError
from repro.query import (
    JoinCondition,
    Preference,
    PriorityClass,
    SkylineJoinQuery,
    Workload,
    add,
    assign_priorities,
    subspace_workload,
)


@pytest.fixture
def functions():
    return tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3))


@pytest.fixture
def query(functions):
    return SkylineJoinQuery(
        "Q", JoinCondition.on("jc1"), functions, Preference.over("d1", "d2")
    )


class TestPreference:
    def test_positions(self):
        pref = Preference.over("d2", "d3")
        assert pref.positions(("d1", "d2", "d3")) == (1, 2)

    def test_positions_missing_raises(self):
        with pytest.raises(QueryError):
            Preference.over("d9").positions(("d1",))

    def test_subspace_check(self):
        assert Preference.over("d1").is_subspace_of(Preference.over("d1", "d2"))
        assert not Preference.over("d3").is_subspace_of(["d1", "d2"])

    def test_rejects_empty(self):
        with pytest.raises(QueryError):
            Preference(())

    def test_rejects_duplicates(self):
        with pytest.raises(QueryError):
            Preference(("d1", "d1"))

    def test_container_protocol(self):
        pref = Preference.over("d1", "d2")
        assert len(pref) == 2 and "d1" in pref and list(pref) == ["d1", "d2"]


class TestSkylineJoinQuery:
    def test_output_names(self, query):
        assert query.output_names == ("d1", "d2", "d3")
        assert query.skyline_dims == ("d1", "d2")

    def test_function_for(self, query):
        assert query.function_for("d2").output == "d2"
        with pytest.raises(QueryError):
            query.function_for("zzz")

    def test_preference_must_be_produced(self, functions):
        with pytest.raises(QueryError, match="not"):
            SkylineJoinQuery(
                "Q", JoinCondition.on("jc1"), functions, Preference.over("d9")
            )

    def test_duplicate_outputs_rejected(self):
        fns = (add("m1", "m1", "d1"), add("m2", "m2", "d1"))
        with pytest.raises(QueryError, match="duplicate"):
            SkylineJoinQuery("Q", JoinCondition.on("jc1"), fns, Preference.over("d1"))

    def test_priority_range(self, functions):
        with pytest.raises(QueryError):
            SkylineJoinQuery(
                "Q", JoinCondition.on("jc1"), functions,
                Preference.over("d1"), priority=1.5,
            )

    def test_with_priority(self, query):
        changed = query.with_priority(0.3)
        assert changed.priority == 0.3 and query.priority == 1.0

    @pytest.mark.parametrize(
        "pr,cls",
        [(1.0, PriorityClass.HIGH), (0.7, PriorityClass.HIGH),
         (0.69, PriorityClass.MEDIUM), (0.4, PriorityClass.MEDIUM),
         (0.39, PriorityClass.LOW), (0.0, PriorityClass.LOW)],
    )
    def test_priority_classes(self, pr, cls, functions):
        """Section 7.1's HIGH/MEDIUM/LOW bands."""
        q = SkylineJoinQuery(
            "Q", JoinCondition.on("jc1"), functions,
            Preference.over("d1"), priority=pr,
        )
        assert q.priority_class is cls

    def test_validate_against_tables(self, query, small_pair):
        query.validate(small_pair.left, small_pair.right)

    def test_validate_missing_attr(self, functions, small_pair):
        q = SkylineJoinQuery(
            "Q", JoinCondition.on("jc1"),
            (add("bogus", "m1", "d1"),), Preference.over("d1"),
        )
        with pytest.raises(QueryError, match="bogus"):
            q.validate(small_pair.left, small_pair.right)


class TestWorkload:
    def test_eleven_query_benchmark(self, eleven_query_workload):
        """|S_Q| = C(4,2) + C(4,3) + C(4,4) = 11 (Section 7)."""
        assert len(eleven_query_workload) == 11
        sizes = sorted(len(q.preference) for q in eleven_query_workload)
        assert sizes == [2] * 6 + [3] * 4 + [4]

    def test_output_dims_union(self, figure1_workload):
        assert figure1_workload.output_dims == ("d1", "d2", "d3", "d4")
        assert figure1_workload.skyline_dims == ("d1", "d2", "d3", "d4")

    def test_output_dims_are_computed_once(self, functions, monkeypatch):
        """The union is fixed at construction, in first-seen order, and
        every later read returns that same tuple without visiting the
        queries again."""
        extra = add("m4", "m4", "d4")
        workload = Workload(
            [
                SkylineJoinQuery(
                    "A", JoinCondition.on("jc1"), (functions[2], functions[0]),
                    Preference.over("d3", "d1"),
                ),
                SkylineJoinQuery(
                    "B", JoinCondition.on("jc1"), (functions[0], extra, functions[1]),
                    Preference.over("d4", "d2"),
                ),
            ]
        )
        first = workload.output_dims
        assert first == ("d3", "d1", "d4", "d2")

        def visited(self):
            raise AssertionError("output_dims visited a query after construction")

        monkeypatch.setattr(SkylineJoinQuery, "output_names", property(visited))
        assert workload.output_dims is first
        assert workload.skyline_dims == ("d3", "d1", "d4", "d2")

    def test_lookup(self, figure1_workload):
        assert figure1_workload["Q3"].name == "Q3"
        with pytest.raises(QueryError):
            figure1_workload["Q99"]

    def test_rejects_duplicates_names(self, query):
        with pytest.raises(QueryError, match="duplicate"):
            Workload([query, query])

    def test_rejects_empty(self):
        with pytest.raises(QueryError):
            Workload([])

    def test_conflicting_functions_rejected(self):
        q1 = SkylineJoinQuery(
            "Q1", JoinCondition.on("jc1"),
            (add("m1", "m1", "d1"),), Preference.over("d1"),
        )
        q2 = SkylineJoinQuery(
            "Q2", JoinCondition.on("jc1"),
            (add("m2", "m2", "d1"),), Preference.over("d1"),
        )
        with pytest.raises(QueryError, match="conflicting"):
            Workload([q1, q2])

    def test_join_conditions_deduplicated(self, figure1_workload):
        assert [c.name for c in figure1_workload.join_conditions] == ["JC1"]

    def test_by_priority_descending(self):
        wl = subspace_workload(3, priority_scheme="uniform")
        priorities = [q.priority for q in wl.by_priority()]
        assert priorities == sorted(priorities, reverse=True)

    def test_with_priorities(self, figure1_workload):
        changed = figure1_workload.with_priorities({"Q1": 0.2})
        assert changed["Q1"].priority == 0.2
        assert changed["Q2"].priority == figure1_workload["Q2"].priority

    def test_subset(self, eleven_query_workload):
        sub = eleven_query_workload.subset(["Q1", "Q5"])
        assert sub.names == ("Q1", "Q5")


class TestPriorityAssignment:
    def test_dims_asc_gives_high_priority_to_many_dims(self):
        wl = subspace_workload(4, priority_scheme="dims_asc")
        full = next(q for q in wl if len(q.preference) == 4)
        smallest = [q for q in wl if len(q.preference) == 2]
        assert full.priority > max(q.priority for q in smallest)

    def test_dims_desc_reverses(self):
        wl = subspace_workload(4, priority_scheme="dims_desc")
        full = next(q for q in wl if len(q.preference) == 4)
        assert full.priority == min(q.priority for q in wl)

    def test_uniform_spreads(self):
        wl = subspace_workload(4, priority_scheme="uniform")
        priorities = sorted(q.priority for q in wl)
        assert priorities[0] == pytest.approx(0.05)
        assert priorities[-1] == pytest.approx(1.0)
        assert len(set(priorities)) == len(priorities)

    def test_single_query_gets_full_priority(self):
        wl = subspace_workload(2, min_size=2)
        assert wl.queries[0].priority == 1.0

    def test_unknown_scheme(self):
        with pytest.raises(QueryError):
            assign_priorities([], "zipf")

    def test_invalid_sizes(self):
        with pytest.raises(QueryError):
            subspace_workload(3, min_size=0)
        with pytest.raises(QueryError):
            subspace_workload(3, min_size=2, max_size=5)
