"""Run ``repro serve`` with the benchmark's span wrappers installed.

::

    python3 -m perfbench.serve_launcher SPANS.json serve --port 0 --cache-dir D

installs :func:`perfbench.tracing.install` in this process, then hands
the remaining arguments to the ``repro`` CLI entry point. When the
server has drained, every span and counter event, and the process's I/O
retry count, are written to ``SPANS.json``.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from perfbench import tracing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = tracing.Recorder()
    tracing.install(rec)
    from repro.faults import retry_count
    from repro.flow.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dataclasses.asdict(s) for s in rec.spans],
                       "events": rec.events, "retries": retry_count()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
