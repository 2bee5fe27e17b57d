"""``serve-check``: the check service under one closed-loop client.

``python -m repro serve --cache-dir D`` runs in its own process with its
default two pool workers.  The benchmark process is the only client: it
submits one generated SMV module per request through
``ServeClient.check`` (what ``repro submit`` does) and sends the next
request when the verdict is in hand.  Each round submits two new modules
(the cold path: pool dispatch, fixpoints, store writes) and re-submits
one already seen (the warm path: store reads replaying the cold payload
byte for byte).  With two cold requests per warm one the median lies
inside the cold cluster; the client's 50 ms poll quantizes latencies,
so a median on the warm/cold boundary would jump.

Verdicts are checked after the timed phase against the explicit engine
and, for modules small enough, the networkx oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import json
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from cold import ColdResult, run_cold_all
from gen import generate
from repro.serve.client import ServeClient

SETUP_SAMPLES = 9
WARMUP_MODULES = 2
#: The oracle materializes the state graph and its path queries grow
#: fast: it cross-checks the explicit engine on the first specs of the
#: first modules of a run that have at most this many atoms.
ORACLE_MAX_ATOMS = 8
ORACLE_MODULES = 4
ORACLE_SPECS = 8
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _scrape(client) -> dict[str, float]:
    """``/metrics`` as ``{sample name: value}`` (label-free samples)."""
    out = {}
    for line in client.metrics_text().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            out[name] = float(value)
    return out


def _comparable(report: dict) -> str:
    """A report payload without its per-run cache markers."""
    report = dict(report)
    report.pop("cache", None)
    report["specs"] = [
        {k: v for k, v in spec.items() if k != "cached"}
        for spec in report["specs"]
    ]
    return json.dumps(report, sort_keys=True)


def _process_tree(pid: int) -> list[int]:
    """``pid`` and its descendants.  Each thread lists its own children,
    and the pool workers are forked from the service's job thread, so
    every thread's list is read."""
    pids = [pid]
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in children:
            pids += _process_tree(int(child))
    return pids


def _rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of ``pid`` and its descendants, in
    MB: the service and its pool workers."""
    total = 0.0
    for each in _process_tree(pid):
        try:
            for line in Path(f"/proc/{each}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024
        except OSError:
            continue
    return total


def reference_verdicts(source: str, use_oracle: bool) -> tuple[list[bool], bool]:
    """Each spec's verdict from the explicit engine, cross-checked by the
    networkx oracle when asked and the model is small enough; the flag
    says whether the oracle ran."""
    import oracle
    from repro.checking.explicit import ExplicitChecker
    from repro.logic.ctl import TRUE
    from repro.logic.restriction import Restriction
    from repro.smv.compile_explicit import to_system
    from repro.smv.run import load_model

    model = load_model(source)
    system = to_system(model, reflexive=False)
    init = model.initial_formula()
    fairness = tuple(model.fairness) or (TRUE,)
    checker = ExplicitChecker(system)
    verdicts = [
        checker.holds(spec, Restriction(init=init, fairness=fairness)).holds
        for spec in model.specs
    ]
    small = use_oracle and len(system.sigma) <= ORACLE_MAX_ATOMS
    if small:
        specs = model.specs[:ORACLE_SPECS]
        expected = [oracle.holds(system, s, init, fairness) for s in specs]
        if expected != verdicts[:ORACLE_SPECS]:
            raise AssertionError("explicit engine and oracle disagree")
    return verdicts, small


def _references(seed: int, indices: list[int], oracle_budget: int) -> dict:
    verdicts, errors = {}, {}
    for index in indices:
        try:
            verdicts[index], used = reference_verdicts(
                generate(seed, index), oracle_budget > 0
            )
            oracle_budget -= used
        except AssertionError as exc:
            errors[index] = str(exc)
    return {"verdicts": verdicts, "errors": errors}


class ServeCheck:
    name = "serve-check"

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = random.Random(f"serve-check:{ctx.seed}")
        self.flag = ctx.work / "trace-on"
        self.dump = ctx.work / "server-trace.json"
        self.server = None
        self.cold: dict[int, dict] = {}
        self.warm: list[tuple[int, dict]] = []
        self.samples: list[dict] = []  # traced operations
        self.problems: list[str] = []
        self._peak = None

    # -- server lifecycle ----------------------------------------------
    def _start(self, index: int) -> float:
        port = _free_port()
        cache = self.cache = self.ctx.work / f"cache-{index}"
        args = ["serve", "--host", "127.0.0.1", "--port", str(port),
                "--cache-dir", str(cache)]
        if self.ctx.trace:
            cmd = [sys.executable, str(HERE / "serve_launch.py"),
                   str(self.flag), str(self.dump), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        log = open(self.ctx.work / f"server-{index}.log", "w")
        start = time.perf_counter()
        self.server = subprocess.Popen(
            cmd, env=self.ctx.env, stdout=subprocess.DEVNULL, stderr=log
        )
        log.close()
        self.client = ServeClient(f"http://127.0.0.1:{port}", retries=0)
        while True:
            try:
                self.client.healthz(request_timeout=1.0)
                return time.perf_counter() - start
            except Exception:
                if self.server.poll() is not None:
                    raise RuntimeError("repro serve exited during start-up")
                if time.perf_counter() - start > 60:
                    raise RuntimeError("repro serve did not answer /healthz")
                time.sleep(0.005)

    def _stop(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None

    def setup(self) -> None:
        """Start the service until ``/healthz`` answers, several times;
        the last one stays up.  Two warm-up requests then start the
        pool workers, outside every timing."""
        samples = []
        for i in range(SETUP_SAMPLES):
            if i:
                self._stop()
            samples.append(self._start(i))
        for i in range(WARMUP_MODULES):
            self.client.check({"source": generate(self.ctx.seed, -1 - i)})
        from repro.store import ResultStore

        self.store = ResultStore(self.cache)
        self.before = _scrape(self.client)
        if self.ctx.trace:
            self.client.submit = self._submit(self.client.submit)
        self.setup_samples = samples

    def _submit(self, submit):
        """Time ``POST /v1/check`` inside ``ServeClient.check``."""

        def timed(*args, **kwargs):
            start = time.perf_counter()
            accepted = submit(*args, **kwargs)
            self.submit_s = time.perf_counter() - start
            return accepted

        return timed

    # -- operations ------------------------------------------------------
    def round(self, index: int) -> list:
        again = 2 * index + self.rng.randrange(2)
        return [("new", 2 * index), ("new", 2 * index + 1), ("again", again)]

    def before_round(self, index: int, traced: bool) -> None:
        # Each round starts from an empty store, so every round does the
        # same work: without this, each write's eviction scan over every
        # record (ResultStore._evict) makes late rounds slower than early
        # ones and the latencies drift across the client's poll steps.
        self.store.clear()
        if traced:
            self.flag.touch()
        else:
            self.flag.unlink(missing_ok=True)

    def run(self, op, traced: bool):
        kind, index = op
        source = generate(self.ctx.seed, index)
        start = time.perf_counter()
        job = self.client.check({"source": source, "label": f"m{index}"})
        seconds = time.perf_counter() - start
        result = ColdResult(True, {}, seconds, 0.0)
        if job.get("state") != "done":
            self.problems.append(f"module {index}: job {job.get('state')}")
            return False, result
        (report,) = job["reports"]
        if kind == "new":
            self.cold[index] = report
        else:
            self.warm.append((index, report))
        if traced:
            while not job.get("timings"):
                # a finished job can be read before its timings are set
                job = self.client.job(job["id"])
            self.samples.append(
                {
                    "seconds": seconds,
                    "submit_s": self.submit_s,
                    "timings": job["timings"],
                    "resources": report["resources"] if kind == "new" else None,
                }
            )
        return True, result

    @property
    def peak_rss_mb(self) -> float:
        """Read once, right after the timed phase, while the service is
        up; the closing ``/metrics`` scrape is taken at the same time."""
        if self._peak is None:
            self._peak = _rss_mb(self.server.pid)
            self.after = _scrape(self.client)
        return self._peak

    # -- checks ----------------------------------------------------------
    def verify(self) -> list[str]:
        _ = self.peak_rss_mb  # read the live service before it stops
        self._stop()
        problems = list(self.problems)
        indices = sorted(self.cold)
        chunks = [indices[0::2], indices[1::2]]
        references, errors = {}, set()
        for result in run_cold_all(
            [(_references, self.ctx.seed, c, ORACLE_MODULES // 2) for c in chunks]
        ):
            if not result.ok:
                return problems + ["reference verdicts could not be computed"]
            for index, error in result.value["errors"].items():
                problems.append(f"module {index}: {error}")
                errors.add(index)
            references.update(result.value["verdicts"])
        for index in indices:
            report = self.cold[index]
            if report["cache"]["hits"]:
                problems.append(f"module {index}: a new module hit the store")
            got = [spec["holds"] for spec in report["specs"]]
            expected = references.get(str(index))
            if str(index) not in errors and got != expected:
                problems.append(f"module {index}: verdicts {got} != {expected}")
        for index, report in self.warm:
            if report["cache"]["misses"]:
                problems.append(f"module {index}: re-submission missed the store")
            if _comparable(report) != _comparable(self.cold[index]):
                problems.append(f"module {index}: warm payload differs from cold")
        return problems

    def layer_metrics(self, summaries: list[dict], ops: int, seconds: float) -> dict:
        import layers

        metrics = {name: 0.0 for name, _, _ in layers.PER_LAYER}
        samples = self.samples
        n = len(samples)
        server = json.loads(self.dump.read_text())
        own = server["self_s"]
        for layer in ("smv.parse", "smv.elaborate", "store.fingerprint",
                      "store.read", "store.write"):
            metrics[layers.SELF_TIME[layer]] = own.get(layer, 0.0) / n
        metrics["serve.check_s"] = own.get("serve.check", 0.0) / n
        metrics["parallel.dispatch_overhead_s"] = (
            server["counts"].get("parallel.dispatch_overhead_s", 0.0) / n
        )

        def mean(key):
            return sum(s["timings"][key] for s in samples) / n

        metrics["serve.submit_s"] = sum(s["submit_s"] for s in samples) / n
        metrics["serve.queue_wait_s"] = mean("queue_wait_seconds")
        metrics["serve.serialize_s"] = mean("serialize_seconds")
        metrics["serve.client_wait_s"] = (
            sum(s["seconds"] for s in samples) / n - mean("total_seconds")
        )
        metrics["unaccounted_s"] = (
            mean("total_seconds")
            - metrics["serve.queue_wait_s"]
            - metrics["serve.serialize_s"]
            - server["covered_s"] / n
        )
        cold = [s["resources"] for s in samples if s["resources"]]
        metrics["smv.transition_nodes"] = sum(r["transition_nodes"] for r in cold) / n
        metrics["bdd.nodes_allocated"] = sum(r["bdd_nodes_allocated"] for r in cold) / n

        # the pool workers' own counters, over every operation of the run
        total_ops = len(self.cold) + len(self.warm)

        def delta(name):
            return self.after.get(name, 0.0) - self.before.get(name, 0.0)

        compile_s = delta("repro_parallel_compile_seconds")
        check_s = delta("repro_parallel_check_seconds")
        metrics["parallel.items"] = delta("repro_parallel_items") / total_ops
        metrics["parallel.worker_s"] = (compile_s + check_s) / total_ops
        metrics["smv.compile_s"] = compile_s / total_ops
        metrics["checking.holds_s"] = check_s / total_ops
        metrics["checking.fixpoint_iterations"] = (
            delta("repro_parallel_check_fixpoint_iterations") / total_ops
        )
        lookups = delta("repro_parallel_check_bdd_cache_lookups")
        if lookups:
            metrics["bdd.cache_hit_rate"] = (
                delta("repro_parallel_check_bdd_cache_hits") / lookups
            )
        hits, misses = delta("repro_store_hits"), delta("repro_store_misses")
        if hits + misses:
            metrics["store.hit_ratio"] = hits / (hits + misses)
        return metrics

    def close(self) -> None:
        self._stop()
