#!/usr/bin/env python
"""Fleet-scale load generator: ``jpg loadgen`` runnable from a checkout.

Replays a zipf-skewed synthetic request stream against a spawned loopback
fleet (a single node and an N-node fleet, each client routing through
:class:`repro.cluster.FleetClient`) — or against any already-running
endpoint via ``--target`` — and reports throughput, p50/p95/p99 latency,
per-tier cache-hit ratios, and a byte-identity verdict.  Exit code 1
means served bytes diverged from direct generation; speed never excuses
that.  The arguments are ``jpg loadgen``'s.

Run from the repo root::

    python tools/load_gen.py -n 1000 --nodes 3 --out report.json
    python tools/load_gen.py --target 127.0.0.1:4000 -n 100000

``tools/perf_gate.py`` embeds the same harness for the BENCH_10
cluster-vs-single-node gate.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["loadgen", *sys.argv[1:]]))
