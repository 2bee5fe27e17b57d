"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python perfbench/serve_launch.py FLAG DUMP serve --port ... --cache-dir ...

Requests are traced while the file FLAG exists.  When the service has
drained and stopped, the span totals are written to DUMP as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    flag, dump, *argv = sys.argv[1:]
    import tracing

    recorder = tracing.Recorder()
    recorder.active = False
    tracing.install_server(recorder, Path(flag))
    from repro.cli import main as cli

    code = cli(argv)
    Path(dump).write_text(json.dumps(recorder.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
