"""The repository benchmark: one command, every workload, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-scale --seed 1 --seconds 20 --trace 0

It builds nothing: the program is the pure-Python package under
``src/``, imported from the checkout.  It prints a table of the metrics
and, as its last line, one JSON object::

    {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {"value", "unit"}}}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced and then with every
layer's public functions wrapped (in this process and, through
``node.py``, in the ``jpg serve`` node), and reports the per-layer
metrics plus the tracing overhead.  ``--smoke`` shrinks every size so a
run takes seconds (the benchmark's own tests use it).

Exit status: 0 when every output matched direct generation, 1 when
anything failed or a traced-run self-check did not hold, 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _spec() -> dict:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _table(rows: list[tuple[str, float, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"  {name:<{width}}  {value:>12.4f}  {unit}" for name, value, unit in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks that every metric is emitted")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {root}/src/repro is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import suite

    table = suite.SMOKE if args.smoke else suite.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(table)})", file=sys.stderr)
        return 2
    wl = table[args.workload]
    spec = _spec()
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.environ["TMPDIR"] = workdir
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = traced(wl, args, root, workdir)
            declared = spec["per_layer"]
        else:
            result = suite.run_pass(wl, seed=args.seed, seconds=args.seconds, root=root,
                                    workdir=workdir, trace=False, setup_reps=wl.setup_reps,
                                    rounds=wl.rounds)
            declared = spec["end_to_end"]
            result["metrics"]["ok_frac"] = 1.0 - result["failures"].count / result["attempted"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # still in use by another run
            os.rmdir(os.path.dirname(workdir))

    failures = result["failures"]
    problems = result.get("problems", [])
    metrics = result["metrics"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    rows = [(d["name"], metrics[d["name"]], d["unit"]) for d in declared
            if d["name"] in metrics]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {result['attempted']} operations, "
          f"{failures.count} failed")
    print(_table(rows))
    for line in result.get("extra", []):
        print(line)
    for reason in failures.reasons + problems:
        print(f"FAILED: {reason}")
    correct = failures.count == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failures.count,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in rows},
    }))
    return 0 if correct else 1


def traced(wl, args, root: str, workdir: str) -> dict:
    """The untraced pass, then the traced one; per-layer metrics from the
    traced pass, tracing overhead from the two."""
    import layers
    import suite
    from spans import SERVER_SPANS, LAYER_WRAPPERS, Tracer, install_layer_wrappers, load_spans

    # half the rounds in each pass: both fit in one run's time limit
    sized = {"seed": args.seed, "seconds": args.seconds / 2, "root": root, "setup_reps": 1,
             "rounds": max(2, wl.rounds // 2)}
    plain = suite.run_pass(wl, workdir=os.path.join(workdir, "plain"), trace=False, **sized)
    tracer = Tracer()
    client_side = {name for _, _, _, name in LAYER_WRAPPERS} - set(SERVER_SPANS)
    install_layer_wrappers(tracer, client_side)
    try:
        run = suite.run_pass(wl, workdir=os.path.join(workdir, "traced"), trace=True,
                             quiet=tracer.paused, **sized)
    finally:
        tracer.uninstall()
    server = load_spans(run["env"].node.trace_path)
    metrics, problems = layers.layer_metrics(tracer.spans, server, run["env"].sent,
                                             run["stats"])
    silent = [loc for loc in tracer.wrapped if not tracer.calls[loc]]
    problems += [f"wrapper {loc} never fired" for loc in silent]
    a, b = plain["metrics"], run["metrics"]
    # the serve tails swing too much from run to run on a shared host to
    # hold an end-to-end bound; they are reported here, from the untraced pass
    for name in ("serve_p99_ms.low", "serve_p99_ms.high"):
        metrics[name] = a[name]
    metrics["trace.overhead.batch"] = a["batch_partials_per_s"] / b["batch_partials_per_s"] - 1
    metrics["trace.overhead.serve"] = b["serve_p50_ms.low"] / a["serve_p50_ms.low"] - 1
    metrics["trace.overhead.edit"] = b["edit_p50_ms"] / a["edit_p50_ms"] - 1
    plain["failures"].count += run["failures"].count
    plain["failures"].reasons += run["failures"].reasons
    extra = ["end-to-end, untraced -> traced:"]
    extra += [f"  {name:<22} {a[name]:>12.4f} -> {b[name]:>12.4f}"
              for name in sorted(a) if name in b]
    return {"metrics": metrics, "attempted": plain["attempted"] + run["attempted"],
            "failures": plain["failures"], "problems": problems, "extra": extra}


if __name__ == "__main__":
    sys.exit(main())
