"""Summaries of one run's samples."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.  Coarse on purpose: the
#: chosen one must not change between runs whose sample counts differ
#: by a few rounds.  p70 catches an ``edit-recheck`` run that falls just
#: short of the 40 samples p75 needs, and lands in the same cluster.
TAIL_CANDIDATES = (0.99, 0.90, 0.75, 0.70, 0.50)
#: A tail needs this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest candidate percentile with ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, samples beyond)`` by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_CANDIDATES:
        rank = math.ceil(p * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    raise ValueError(f"{n} samples are too few for a tail")


def end_to_end(
    latencies: list[float],
    timed_seconds: float,
    setup_samples: list[float],
    peak_rss_mb: float,
) -> tuple[dict, str]:
    """The five end-to-end metrics and a one-line note on the tail."""
    value, p, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(latencies) / timed_seconds, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = (
        f"latency_tail_s is p{round(p * 100)} of {len(latencies)} samples "
        f"({beyond} beyond it); setup_s is the median of "
        f"{len(setup_samples)} set-ups"
    )
    return metrics, note
