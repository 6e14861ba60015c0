"""Run one voablocks CLI command under the layer tracer.

    python3 perfbench/clitrace.py --spans PREFIX -- <voablocks cli args>

Behaves like ``python -m voablocks.cli <args>`` (same stdout, same exit
code, an escaping exception still ends in a traceback) and, on the way
out, writes the tracer's summary to ``stats-<pid>.json`` in the working
directory and its spans to ``PREFIX-<pid>.spans``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import layertrace


def main() -> int:
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    prefix = Path(opts[opts.index("--spans") + 1])
    tracer = layertrace.Tracer()
    tracer.install()
    import voablocks.cli

    try:
        return voablocks.cli.main(argv)
    finally:
        pid = os.getpid()
        Path(f"stats-{pid}.json").write_text(json.dumps(tracer.summary()))
        prefix.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(prefix.parent / f"{prefix.name}-{pid}.spans")


if __name__ == "__main__":
    sys.exit(main())
