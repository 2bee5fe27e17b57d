"""``prove-cold``: the six built-in proofs through the CLI, each cold.

Each operation is ``repro.cli.main(["demo", name])`` in a process forked
after the imports, with no store: the CLI user's time to a decoded
verdict.  Its work is in smv, bdd, checking, compositional and
``systems.encode``; none of it is in store, parallel or serve.

The proofs take about 20 ms (``mutex``), 30 ms (``afs1-safety``), 45 ms
(``2pc-atomicity``), 90 ms (``afs1-liveness``, ``2pc-termination``) and
300 ms (``afs2-safety``).  The weights put the median in the middle of
one proof's samples (``2pc-atomicity``, ranks 31-60 of every 100) and the
p90 tail in the middle of the slowest proof's (ranks 81-100); a
percentile on the boundary between two proofs would jump with noise.
"""

from __future__ import annotations

import io
import os
import random
import re
from contextlib import redirect_stdout

import layers
from cold import run_cold

#: proof → operations per round (10 per round).
MIX = {
    "mutex": 2,
    "afs1-safety": 1,
    "2pc-atomicity": 3,
    "afs1-liveness": 1,
    "2pc-termination": 1,
    "afs2-safety": 2,
}
#: Clients in the CLI's AFS-2 demo; its proof has one obligation more.
AFS2_DEMO_CLIENTS = 2
IMPORTS = (
    "import repro.cli, repro.casestudies.afs1, repro.casestudies.afs2, "
    "repro.casestudies.mutex, repro.casestudies.twophase"
)
SETUP_SAMPLES = 15


def _import() -> dict:
    exec(IMPORTS, {})
    return {}


def _demo(name: str, verify: bool = False) -> dict:
    from repro.cli import main

    argv = ["demo", name] + (["--verify"] if verify else [])
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


class _CleanProcess:
    """A process forked before the program is imported.  Asked through a
    pipe, it times the imports in a child of its own (``run_cold``) and
    sends back the seconds."""

    def __init__(self):
        request_r, self.requests = os.pipe()
        result_r, result_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self.requests)
                os.close(result_r)
                while os.read(request_r, 1):
                    result = run_cold(_import)
                    seconds = result.seconds if result.ok else -1.0
                    os.write(result_w, f"{seconds}\n".encode())
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(result_w)
        self.results = os.fdopen(result_r)

    def time_import(self) -> float:
        os.write(self.requests, b"?")
        seconds = float(self.results.readline())
        if seconds < 0:
            raise RuntimeError("importing the program failed")
        return seconds

    def close(self) -> None:
        os.close(self.requests)
        self.results.close()
        os.waitpid(self.pid, 0)


class ProveCold:
    name = "prove-cold"

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = random.Random(f"prove-cold:{ctx.seed}")
        self.outputs: dict[str, set[str]] = {}
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        """The imports a CLI run does, timed in a child forked from a
        process that has not imported the program, so interpreter
        start-up is left out as in the timed operations.

        That process is forked here, before the benchmark process
        imports the program; it times one import per round too, so the
        samples of ``setup_s`` spread over the run rather than all
        falling in its first seconds.  The first import is not counted:
        it may write the bytecode cache of a fresh checkout, which only
        the first run there pays.
        """
        self.clean = _CleanProcess()
        self.clean.time_import()
        self.setup_samples = [self.clean.time_import()]
        exec(IMPORTS, {})

    def round(self, index: int) -> list:
        ops = [name for name, weight in MIX.items() for _ in range(weight)]
        self.rng.shuffle(ops)
        return ops

    def before_round(self, index: int, traced: bool) -> None:
        if len(self.setup_samples) < SETUP_SAMPLES:
            self.setup_samples.append(self.clean.time_import())

    def run(self, op: str, traced: bool):
        result = run_cold(_demo, op, trace=traced)
        self.peak_rss_mb = max(self.peak_rss_mb, result.max_rss_mb)
        ok = result.ok and result.value.get("code") == 0
        if ok:
            self.outputs.setdefault(op, set()).add(result.value["stdout"])
        return ok, result

    def verify(self) -> list[str]:
        """Every conclusion holds on the monolithic product.

        ``demo --verify`` re-checks each recorded conclusion on the
        product system; the timed runs must have printed exactly what
        the verified run printed before its cross-check.
        """
        while len(self.setup_samples) < SETUP_SAMPLES:
            self.setup_samples.append(self.clean.time_import())
        problems = []
        for name in MIX:
            result = run_cold(_demo, name, True)
            text = result.value.get("stdout", "")
            match = re.search(
                r"monolithic cross-check: (\d+) conclusions, (\d+) failures", text
            )
            if not result.ok or not match or match.group(2) != "0":
                problems.append(f"{name}: monolithic cross-check failed")
                continue
            if int(match.group(1)) < 1:
                problems.append(f"{name}: no conclusion was checked")
            decoded = text[: text.index("\nmonolithic cross-check")]
            if self.outputs.get(name, {decoded}) != {decoded}:
                problems.append(f"{name}: a timed run printed another verdict")
            if name == "afs2-safety":
                found = re.search(r"model-checking obligations: (\d+)", text)
                if not found or int(found.group(1)) != AFS2_DEMO_CLIENTS + 1:
                    problems.append("afs2-safety: expected n+1 obligations")
        return problems

    def layer_metrics(self, summaries: list[dict], ops: int, seconds: float) -> dict:
        return layers.from_recorder(layers.merge(summaries), ops, seconds)

    def close(self) -> None:
        if hasattr(self, "clean"):
            self.clean.close()
