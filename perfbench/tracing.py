"""Layer spans recorded from outside the program.

The benchmark times calls into each layer's public functions and
methods by wrapping them; it changes no program file.  A wrapper is
installed on the class for methods, and for functions under every name
a caller looks the function up by: ``from x import f`` copies the
binding at import time, so patching ``x.f`` alone would miss that
caller.

Spans live in memory as a stack.  When a span closes, its duration
minus the time its child spans cover is added to its layer's *self*
time, so the layer times of one operation never overlap and their sum
is the time covered by the outermost spans.  What the operation's wall
time leaves uncovered is its ``unaccounted_s``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


class Recorder:
    """Per-layer self time, call counts and counters of one process."""

    def __init__(self) -> None:
        self.active = True
        #: Only this thread records: one stack cannot follow two threads.
        self.thread = threading.get_ident()
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self.managers: list = []
        self.proofs: list = []

    def open(self, layer: str) -> None:
        self.stack.append([layer, time.perf_counter(), 0.0])

    def close(self) -> float:
        layer, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.covered_s += duration
        return duration

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self.stack)

    def summary(self) -> dict:
        """JSON-safe totals, including the BDD managers' own counters."""
        lookups = hits = nodes = 0
        for bdd in self.managers:
            lookups += bdd.stats.cache_lookups
            hits += bdd.stats.cache_hits
            nodes += bdd.nodes_allocated
        obligations = {
            id(o)
            for proof in self.proofs
            for step in proof.log
            for leaf in step.leaves()
            for o in leaf.obligations
        }
        counts = dict(self.counts)
        counts["bdd.cache_lookups"] = lookups
        counts["bdd.cache_hits"] = hits
        counts["bdd.nodes_allocated"] = nodes
        counts["compositional.obligations"] = len(obligations)
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": counts,
            "covered_s": self.covered_s,
        }


def _wrap(rec: Recorder, layer: str | None, original, post=None):
    """A wrapper timing ``original`` as a span of ``layer``.

    ``layer=None`` records no span and only runs ``post``.  ``post(rec,
    result, args, outer, duration)`` sees the call's result; ``outer``
    says no span of the same layer encloses this one.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not rec.active or threading.get_ident() != rec.thread:
            return original(*args, **kwargs)
        if layer is None:
            result = original(*args, **kwargs)
            if post is not None:
                post(rec, result, args, True, 0.0)
            return result
        outer = not rec.inside(layer)
        rec.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            duration = rec.close()
        if post is not None:
            post(rec, result, args, outer, duration)
        return result

    return wrapper


def _patch(rec: Recorder, target: str, layer: str | None, post=None) -> None:
    """Wrap ``module:attr`` or ``module:Class.method`` in place."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if outer else getattr(owner, attr)
    if isinstance(original, classmethod):
        raise TypeError(f"cannot wrap classmethod {target}")
    setattr(owner, attr, _wrap(rec, layer, original, post))


# -- post hooks: counters read from what the layers return --------------
def _transition_nodes(rec, sym, args, outer, duration):
    rec.counts["smv.transition_nodes"] += sym.node_count()


def _fixpoints(rec, result, args, outer, duration):
    if outer:
        rec.counts["checking.fixpoint_iterations"] += (
            result.stats.fixpoint_iterations
        )


def _register_manager(rec, result, args, outer, duration):
    rec.managers.append(args[0])


def _register_proof(rec, result, args, outer, duration):
    rec.proofs.append(args[0])


def _dispatch(rec, outcomes, args, outer, duration):
    """Split a pool batch into worker time and dispatch overhead.

    Items of one batch run on several workers at once, so the batch's
    worker time is its critical path: the busiest worker's total.
    """
    busy: dict[int, float] = defaultdict(float)
    for outcome in outcomes:
        busy[outcome.pid] += outcome.compile_seconds + outcome.check_seconds
    critical = max(busy.values(), default=0.0)
    rec.counts["parallel.batch_worker_s"] += critical
    rec.counts["parallel.dispatch_overhead_s"] += max(duration - critical, 0.0)


#: Names under which each layer's functions are looked up by callers.
SMV_PARSE = (
    "repro.smv.parser:parse_module",
    "repro.smv.parser:parse_program",
    "repro.smv.run:parse_module",
    "repro.casestudies.afs_common:parse_module",
)
SMV_COMPILE = (
    "repro.smv.compile_symbolic:to_symbolic",
    "repro.smv.run:to_symbolic",
    "repro.cli:to_symbolic",
    "repro.casestudies.afs_common:to_symbolic",
)
STORE_FINGERPRINT = (
    "repro.store.fingerprint:spec_fingerprint",
    "repro.store.fingerprint:report_fingerprint",
    "repro.store.fingerprint:component_fingerprint",
    "repro.store.fingerprint:obligation_fingerprint",
    "repro.store.fingerprint:proof_fingerprint",
    "repro.store.cached:spec_fingerprint",
    "repro.store.cached:report_fingerprint",
    "repro.store.obligations:component_fingerprint",
    "repro.store.obligations:obligation_fingerprint",
    "repro.store.obligations:proof_fingerprint",
)
#: The proof calculus's rules: their self time is deduction work.
PROOF_RULES = (
    "universal", "existential", "guarantee_rule4", "guarantee_rule5",
    "apply_guarantee", "discharge", "invariant", "conjoin", "project",
    "strengthen_fairness", "strengthen_fairness_to", "align_fairness",
    "strengthen_init", "to_initial", "implication_cases", "au_to_af",
    "af_weaken", "af_reflexive", "af_conjoin_stable", "leads_to", "chain",
    "ag_weaken", "extend",
)


#: Every module a wrapper is installed in.
MODULES = (
    "repro.bdd.manager", "repro.casestudies.afs_common",
    "repro.checking.explicit", "repro.checking.symbolic", "repro.cli",
    "repro.compositional.proof", "repro.parallel.pool", "repro.serve.jobs",
    "repro.smv.compile_symbolic", "repro.smv.elaborate", "repro.smv.parser",
    "repro.smv.run", "repro.store.cached", "repro.store.fingerprint",
    "repro.store.obligations", "repro.store.store", "repro.systems.encode",
)


def preload() -> None:
    """Import the wrapped modules, so a child forked afterwards that
    installs the wrappers pays no import inside its timing."""
    for name in MODULES:
        importlib.import_module(name)


def install_program(rec: Recorder) -> None:
    """Wrap every layer an in-process proof or check passes through."""
    for target in SMV_PARSE:
        _patch(rec, target, "smv.parse")
    _patch(rec, "repro.smv.elaborate:SmvModel.__init__", "smv.elaborate")
    for target in SMV_COMPILE:
        _patch(rec, target, "smv.compile", _transition_nodes)
    _patch(rec, "repro.checking.symbolic:SymbolicChecker.holds",
           "checking.holds", _fixpoints)
    _patch(rec, "repro.checking.explicit:ExplicitChecker.holds",
           "checking.holds", _fixpoints)
    _patch(rec, "repro.bdd.manager:BDD.and_exists", "bdd.and_exists")
    _patch(rec, "repro.bdd.manager:BDD.__init__", None, _register_manager)
    _patch(rec, "repro.compositional.proof:CompositionProof.__init__", None,
           _register_proof)
    for rule in PROOF_RULES:
        _patch(rec, f"repro.compositional.proof:CompositionProof.{rule}",
               "compositional.deduction")
    _patch(rec, "repro.systems.encode:Encoding.describe", "systems.describe")
    for target in STORE_FINGERPRINT:
        _patch(rec, target, "store.fingerprint")
    _patch(rec, "repro.store.store:ResultStore.get", "store.read")
    _patch(rec, "repro.store.store:ResultStore.put", "store.write")


def install_server(rec: Recorder, flag_path) -> None:
    """Wrap the layers the check service runs in its own process.

    Pool workers are not traced: their compile and check seconds come
    from the service's ``/metrics``.  ``flag_path`` switches recording
    per request: it is looked at once when a check starts, so a round
    of requests is traced or untraced as a whole.
    """
    for target in SMV_PARSE:
        _patch(rec, target, "smv.parse")
    _patch(rec, "repro.smv.elaborate:SmvModel.__init__", "smv.elaborate")
    for target in STORE_FINGERPRINT:
        _patch(rec, target, "store.fingerprint")
    _patch(rec, "repro.store.store:ResultStore.get", "store.read")
    _patch(rec, "repro.store.store:ResultStore.put", "store.write")
    _patch(rec, "repro.parallel.pool:ObligationScheduler.run",
           "parallel.dispatch", _dispatch)

    import os

    import repro.serve.jobs as jobs

    # pool workers fork from the service and never pass `switched`
    os.register_at_fork(after_in_child=lambda: setattr(rec, "active", False))

    check = _wrap(rec, "serve.check", jobs.cached_check)

    @functools.wraps(jobs.cached_check)
    def switched(*args, **kwargs):
        rec.active = flag_path.exists()
        rec.thread = threading.get_ident()
        return check(*args, **kwargs)

    jobs.cached_check = switched
