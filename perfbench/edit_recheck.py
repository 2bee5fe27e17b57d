"""``edit-recheck``: the incremental loop on the AFS-2 proof, four clients.

Each operation proves ``Afs2(4, store=..., variant_client=k)`` in a
fresh forked process against one on-disk store, then seals the proof.
The seed orders the four clients ``a, b, c, d``; a round edits client
``a`` (switches it to ``client_source_variant``), then client ``b``
instead, reverts, and does the same with ``c`` and ``d``.  An edit
re-checks exactly one obligation and a revert none.  Every round edits
every client once, whatever the seed: editing some clients costs more
than others.  The store is reset to its cold fill before each round,
outside the timing, so every round does the same work.

Two edits per revert keep the median inside the edit cluster rather
than on the boundary between edits and reverts.  Most of an operation
is store, parse, elaborate and compile: a fresh process replaying from
the store still compiles every component before probing it.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import layers
from cold import WIDTH, ColdResult, run_cold, run_cold_all

CLIENTS = 4
SETUP_SAMPLES = 5


def _prove(store_dir: str, variant: int | None) -> dict:
    from repro.casestudies.afs2 import Afs2
    from repro.store import ResultStore

    study = Afs2(CLIENTS, store=ResultStore(store_dir), variant_client=variant)
    pf, proven = study.prove_safety()
    ledger = pf.cache_ledger()
    pf.seal_cache({"variant_client": variant})
    return {
        "hits": ledger["hits"],
        "misses": ledger["misses"],
        "conclusion": str(proven),
    }


def _monolithic(variant: int | None) -> dict:
    """The proof's conclusion re-checked on the product of all components."""
    from repro.casestudies.afs2 import Afs2
    from repro.checking.symbolic import SymbolicChecker
    from repro.systems.symbolic import symbolic_compose_all

    pf, proven = Afs2(CLIENTS, variant_client=variant).prove_safety()
    product = symbolic_compose_all(list(pf.components.values()))
    result = SymbolicChecker(product).holds(proven.formula, proven.restriction)
    return {"holds": result.holds, "conclusion": str(proven)}


class EditRecheck:
    name = "edit-recheck"

    def __init__(self, ctx):
        self.ctx = ctx
        self.order = random.Random(f"edit-recheck:{ctx.seed}").sample(
            range(1, CLIENTS + 1), CLIENTS
        )
        self.base = ctx.work / "base-store"
        self.store = ctx.work / "store"
        self.conclusions: dict[int | None, set[str]] = {}
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.lookups = [0, 0]  # traced hits, misses
        # configurations still to be checked on the product → results
        self.unchecked = [None, *range(1, CLIENTS + 1)]
        self.products: dict[int | None, ColdResult] = {}
        self.setup_samples: list[float] = []

    def setup(self) -> None:
        """A cold fill of an empty store in a fresh process forked after
        the imports; it becomes the base store.  The other fills of
        ``setup_s`` run between the first rounds (``before_round``)."""
        import repro.casestudies.afs2  # noqa: F401
        import repro.checking.symbolic  # noqa: F401
        import repro.store  # noqa: F401

        self._fill().rename(self.base)

    def _fill(self) -> Path:
        """A cold fill of an empty store, timed for ``setup_s``."""
        target = self.ctx.work / "fill"
        result = run_cold(_prove, str(target), None)
        self.setup_samples.append(result.seconds)
        if not result.ok or (result.value["hits"], result.value["misses"]) != (
            0,
            CLIENTS + 1,
        ):
            self.problems.append(f"cold fill: {result.value}")
        return target

    def round(self, index: int) -> list:
        a, b, c, d = self.order
        return [a, b, None, c, d, None]

    def before_round(self, index: int, traced: bool) -> None:
        # The product checks and the set-up's later cold fills run
        # between the first rounds rather than before or after all of
        # them: the timed rounds and the set-up samples then spread over
        # most of the run's wall time, which evens out a machine whose
        # speed drifts from one second to the next, at no extra cost.
        if index:
            self._check_products()
            if len(self.setup_samples) < SETUP_SAMPLES:
                shutil.rmtree(self._fill())
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.base, self.store)

    def run(self, variant, traced: bool):
        result = run_cold(_prove, str(self.store), variant, trace=traced)
        self.peak_rss_mb = max(self.peak_rss_mb, result.max_rss_mb)
        if not result.ok:
            return False, result
        value = result.value
        expected = (CLIENTS, 1) if variant is not None else (CLIENTS + 1, 0)
        if (value["hits"], value["misses"]) != expected:
            self.problems.append(
                f"variant {variant}: ledger {value['hits']} hits "
                f"{value['misses']} misses, planned {expected}"
            )
        self.conclusions.setdefault(variant, set()).add(value["conclusion"])
        if traced:
            self.lookups[0] += value["hits"]
            self.lookups[1] += value["misses"]
        return True, result

    def _check_products(self) -> None:
        batch, self.unchecked = self.unchecked[:WIDTH], self.unchecked[WIDTH:]
        checks = run_cold_all([(_monolithic, v) for v in batch])
        self.products.update(zip(batch, checks))

    def verify(self) -> list[str]:
        while len(self.setup_samples) < SETUP_SAMPLES:
            shutil.rmtree(self._fill())
        while self.unchecked:
            self._check_products()
        problems = list(self.problems)
        for variant, result in self.products.items():
            if not result.ok or not result.value["holds"]:
                problems.append(f"variant {variant}: fails on the product")
                continue
            seen = self.conclusions.get(variant, set())
            if seen != {result.value["conclusion"]}:
                problems.append(f"variant {variant}: timed runs concluded {seen}")
        return problems

    def layer_metrics(self, summaries: list[dict], ops: int, seconds: float) -> dict:
        metrics = layers.from_recorder(layers.merge(summaries), ops, seconds)
        hits, misses = self.lookups
        metrics["store.hit_ratio"] = hits / (hits + misses)
        return metrics

    def close(self) -> None:
        pass
