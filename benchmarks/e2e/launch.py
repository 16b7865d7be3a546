"""Start a ``mimdmap`` server, optionally with the span recorder installed.

Usage (from the repository root)::

    python benchmarks/e2e/launch.py ROLE TRACE_DIR -- serve --port 0 ...
    python benchmarks/e2e/launch.py gateway "" -- gateway --shards ...

``ROLE`` names the process in span files (``shard`` or ``gateway``); an
empty ``TRACE_DIR`` runs the server untraced.  With a trace directory the
layer wrappers are installed before ``repro.cli.main`` starts, forked pool
workers inherit them, and the spans are written when the server exits
(SIGTERM drains and returns normally, so ``atexit`` runs).
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    role, trace_dir, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from repro import cli

    if trace_dir:
        import layers
        import spans

        recorder = layers.install(spans.Recorder(trace_dir, role), role)
        atexit.register(recorder.flush)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
