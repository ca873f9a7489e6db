"""Span recording, self times and target installation."""

import types

from perfbench import trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_direct_children():
    tracer = trace.Tracer(clock=FakeClock())
    with tracer.span("outer"):          # starts at 1
        with tracer.span("inner"):      # 2 .. 5
            with tracer.span("leaf"):   # 3 .. 4
                pass
        with tracer.span("inner"):      # 6 .. 7
            pass
    # outer ends at 8
    table = trace.summarize(tracer.spans)
    assert table["outer"] == {"self_s": 7 - 3 - 1, "total_s": 7.0, "calls": 1}
    assert table["inner"] == {"self_s": 3 - 1 + 1, "total_s": 4.0, "calls": 2}
    assert table["leaf"]["self_s"] == 1.0
    assert sum(trace.self_times(tracer.spans)) == 7.0
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 1, 0]


def test_installed_wraps_counts_and_restores():
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def work(self, rows):
            return list(rows)

    module.Engine = Engine
    module.helper = lambda: 7
    import sys

    sys.modules[module.__name__] = module
    try:
        targets = (
            ("fake.work", "perfbench_fake_layer:Engine.work",
             {"fake.rows": lambda args, kwargs, result: len(result)}),
            # Written for an older return shape of ``helper``: must not
            # raise inside the engine's call path.
            ("fake.helper", "perfbench_fake_layer:helper",
             {"fake.cells": lambda args, kwargs, result: result.cell_count,
              "fake.first": lambda args, kwargs, result: len(args[0])}),
            ("fake.gone", "perfbench_fake_layer:Engine.moved_away", {}),
            ("fake.nomodule", "perfbench_no_such_module:f", {}),
        )
        original = Engine.work
        tracer = trace.Tracer()
        with trace.installed(tracer, targets):
            assert Engine().work(range(3)) == [0, 1, 2]
            assert Engine().work(range(2)) == [0, 1]
            assert module.helper() == 7
        assert Engine.work is original
        assert [name for name, _target in tracer.missing] == [
            "fake.gone", "fake.nomodule",
        ]
        assert tracer.counters == {"fake.rows": 5}
        assert tracer.unreadable == {
            "fake.cells": "perfbench_fake_layer:helper",
            "fake.first": "perfbench_fake_layer:helper",
        }
        assert [span[0] for span in tracer.spans] == [
            "fake.work", "fake.work", "fake.helper",
        ]
    finally:
        del sys.modules[module.__name__]


def test_every_real_target_resolves():
    tracer = trace.Tracer()
    with trace.installed(tracer):
        pass
    assert tracer.missing == []
