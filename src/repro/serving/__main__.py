"""Serving-layer quickstart: ``python -m repro.serving``.

Stands up a :class:`~repro.serving.CAQEServer` over a generated table
pair, pushes the paper's Figure-1 workload through it three times, and
prints each submission's terminal status — including a deliberately
tight deadline (degraded answer) and a cancellation.
``examples/server_demo.py`` is the richer walkthrough with overload
shedding and circuit-breaker behaviour.
"""

from __future__ import annotations

import argparse

from repro.bench.figures import figure1_workload
from repro.contracts.presets import c2
from repro.core.caqe import CAQEConfig
from repro.datagen import generate_pair
from repro.serving import CAQEServer, CancellationToken


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving", description=__doc__
    )
    parser.add_argument(
        "--mode",
        choices=("fifo", "interleaved"),
        default="fifo",
        help="scheduler policy: 'fifo' runs whole submissions in arrival "
        "order, 'interleaved' multiplexes live submissions region by "
        "region under the cross-tenant benefit ranking",
    )
    args = parser.parse_args(argv)

    pair = generate_pair("independent", 120, 4, selectivity=0.05, seed=23)
    workload = figure1_workload()
    contracts = {q.name: c2(scale=100.0) for q in workload}

    config = CAQEConfig(server_mode=args.mode, server_queue_limit=4)
    with CAQEServer(pair.left, pair.right, config) as server:
        normal = server.submit(workload, contracts)
        tight = server.submit(workload, contracts, deadline=5_000.0)
        token = CancellationToken()
        doomed = server.submit(workload, contracts, cancel_token=token)
        token.cancel()

        for label, ticket in (
            ("normal   ", normal),
            ("deadline ", tight),
            ("cancelled", doomed),
        ):
            if not ticket:
                print(f"{label}: rejected ({ticket.reason})")
                continue
            outcome = ticket.result(timeout=120)
            line = f"{label}: {outcome.status}"
            if outcome.result is not None:
                reported = sum(len(v) for v in outcome.result.reported.values())
                line += (
                    f"  reported={reported}"
                    f"  degraded_reports={outcome.result.stats.degraded_reports}"
                    f"  t={outcome.result.horizon:g}"
                )
            if outcome.error:
                line += f"  ({outcome.error})"
            print(line)
        print("metrics:", {k: v for k, v in server.metrics.items() if v})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
