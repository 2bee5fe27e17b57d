#!/usr/bin/env python3
"""Steadiness of the benchmark: k runs of a workload, then two sets compared.

    python3 perfbench/steady.py run --workload prove-cold --runs 10 \\
        --first-seed 1 --out set-a.json
    python3 perfbench/steady.py compare set-a.json set-b.json

``run`` runs ``perfbench/run.py`` once per seed for BENCHMARK.json's
``run_seconds`` and prints each end-to-end metric's median, quartiles
and spread (quartile distance over median) next to its bound; a spread
above a third of the bound is flagged.  ``compare`` checks two sets
against each other: no metric's median may differ from the first
set's, in either direction, by more than its bound, and the share of
failed operations must be the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bounds() -> dict:
    return {m["name"]: m for m in _spec()["end_to_end"]}


def _summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def run_set(workload: str, runs: int, first_seed: int) -> dict:
    seconds = _spec()["run_seconds"]
    results = []
    for seed in range(first_seed, first_seed + runs):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"] = seed
        results.append(line)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()
        ), flush=True)
    return {"workload": workload, "seconds": seconds, "runs": results}


def report(data: dict) -> None:
    runs = data["runs"]
    print(f"{data['workload']}: {len(runs)} runs of {data['seconds']} s")
    for name, spec in _bounds().items():
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3 = _summary(values)
        spread = (q3 - q1) / median
        bound = spec["bound"]
        print(f"  {name:16s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
              f"  spread {spread:.3f}  bound {bound}"
              + ("  WIDE" if spread > bound / 3 else ""))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share(s): {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in runs)}")


def compare(first: dict, second: dict) -> bool:
    bounds = _bounds()
    ok = True
    print(f"{first['workload']}: second set against first")
    for name, spec in bounds.items():
        a = statistics.median(r["metrics"][name]["value"] for r in first["runs"])
        b = statistics.median(r["metrics"][name]["value"] for r in second["runs"])
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        verdict = "ok" if abs(worse) <= spec["bound"] else "APART"
        ok &= verdict == "ok"
        print(f"  {name:16s} {a:.5g} -> {b:.5g}  worse by {worse:+.3f}"
              f"  bound {spec['bound']}  {verdict}")
    shares = [
        {r["failed"] / r["attempted"] for r in data["runs"]}
        for data in (first, second)
    ]
    same = len(shares[0] | shares[1]) == 1
    ok &= same
    print(f"  failed share identical: {same}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        data = run_set(args.workload, args.runs, args.first_seed)
        Path(args.out).write_text(json.dumps(data, indent=1))
        report(data)
        return 0
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    report(first)
    report(second)
    return 0 if compare(first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
