"""Traced ``repro-serve``: install the layer wrappers, then run the CLI.

The traced ``serve-http`` iteration starts the server through this
launcher instead of ``python -m repro.serve.cli``; untraced iterations
start the real CLI.  On exit the launcher writes the server's span
summary (JSON) to ``FILE`` and its spans under ``.perfbench/spans/``::

    python -m perfbench.serve_traced --summary-out FILE -- <repro-serve args>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

from perfbench.layers import SERVER_ROOT, Tracer, install


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--summary-out" or argv[2] != "--":
        print("usage: serve_traced --summary-out FILE -- <repro-serve args>", file=sys.stderr)
        return 2
    summary_out, cli_args = argv[1], argv[3:]
    tracer = Tracer(roots=(SERVER_ROOT,))
    install(tracer)
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(cli_args)
    finally:
        spans = Path(__file__).resolve().parent.parent / ".perfbench" / "spans"
        tracer.write_spans(str(spans / "serve-http-server.npz"))
        with open(summary_out, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
