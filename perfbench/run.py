#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload prove-cold --seed 1 --seconds 20 --trace 0

Workloads: ``prove-cold``, ``edit-recheck``, ``serve-check`` (see
README.md).  The seed fixes the operations; a run repeats whole rounds
of them until ``--seconds`` of timed work have passed, then checks every
verdict outside the timing.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones plus the tracing overhead.

Run it from the root of a checkout: the program is imported from
``src/``.  Scratch files go under ``.bench_out/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: Every process the benchmark starts runs with this hash seed, so set
#: and dict iteration orders (and with them BDD variable orders) repeat.
HASH_SEED = "0"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prove-cold", "edit-recheck", "serve-check")


@dataclass
class Context:
    seed: int
    work: Path
    env: dict
    trace: bool


def _workload(name: str, ctx: Context):
    if name == "prove-cold":
        from prove_cold import ProveCold

        return ProveCold(ctx)
    if name == "edit-recheck":
        from edit_recheck import EditRecheck

        return EditRecheck(ctx)
    from serve_check import ServeCheck

    return ServeCheck(ctx)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds for ``seconds`` of timed work, verify."""
    import layers
    import stats
    import tracing

    if trace:
        # untraced runs leave the parent with only the workload's own
        # imports: a forked child's collector scans what it inherits
        tracing.preload()
    workload.setup()
    latencies: list[float] = []
    attempted = failed = 0
    by_mode = {True: [0, 0.0], False: [0, 0.0]}  # traced → [ops, seconds]
    traced_summaries: list[dict] = []
    traced_seconds = 0.0
    timed = 0.0
    index = 0
    # a traced run needs at least one round of each kind
    while timed < seconds or (trace and index < 2):
        traced = trace and index % 2 == 1
        workload.before_round(index, traced)
        ops = workload.round(index)
        start = time.perf_counter()
        for op in ops:
            attempted += 1
            ok, result = workload.run(op, traced)
            if not ok:
                failed += 1
                continue
            latencies.append(result.seconds)
            if traced:
                traced_seconds += result.seconds
                if "trace" in result.value:
                    traced_summaries.append(result.value["trace"])
        elapsed = time.perf_counter() - start
        timed += elapsed
        by_mode[traced][0] += len(ops)
        by_mode[traced][1] += elapsed
        index += 1
    peak_rss_mb = workload.peak_rss_mb
    problems = workload.verify()
    for problem in problems:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": index,
    }
    if trace:
        metrics = workload.layer_metrics(
            traced_summaries, by_mode[True][0], traced_seconds
        )
        metrics["trace.overhead_pct"] = layers.overhead_pct(
            tuple(by_mode[True]), tuple(by_mode[False])
        )
        out["metrics"] = layers.render(metrics)
        out["note"] = f"{by_mode[True][0]} traced and {by_mode[False][0]} untraced operations"
    else:
        metrics, note = stats.end_to_end(
            latencies, timed, workload.setup_samples, peak_rss_mb
        )
        out["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        }
        out["note"] = note
    return out


def _terminate(signum, frame):
    # unwind, so that ``close`` stops the service and the scratch
    # directory is removed
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    signal.signal(signal.SIGTERM, _terminate)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    import cold

    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=HASH_SEED)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    workload = _workload(args.workload, Context(args.seed, work, env, bool(args.trace)))
    try:
        out = measure(workload, args.seconds, bool(args.trace))
    finally:
        cold.stop_all()
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"PYTHONHASHSEED={HASH_SEED} rounds={out.pop('rounds')}: "
        f"{out.pop('note')}"
    )
    for name, metric in out["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
