"""``repro serve`` with the benchmark's recording wrappers installed.

    python3 rotbench/traced_serve.py SPANS_OUT serve --port 8765 ...

Runs the same ``repro`` command-line entry point as ``python3 -m repro
serve`` after patching the server and flow entry points (the forked pool
workers inherit the patches).  When the server is interrupted, the
recorded spans, including those the workers returned with their jobs,
are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    from layers import install_server_layers
    from spans import Tracer

    from repro.cli import main as repro_main

    spans_out, serve_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install_server_layers(tracer)
    code = repro_main(serve_args)
    spans_out.write_text(json.dumps({
        "spans": [span.to_dict() for span in tracer.spans],
        "seen": tracer.seen,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
