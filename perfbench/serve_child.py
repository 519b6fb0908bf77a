"""Start ``repro serve`` in this process, optionally traced.

Usage (from the repository root)::

    python3 perfbench/serve_child.py [--spans OUT.json] serve --port 0 ...

Everything after the optional ``--spans OUT.json`` is passed to the
``repro`` command line unchanged. With ``--spans`` the layer harness is
installed before the server is built, and its spans are written to
``OUT.json`` once the server has shut down (on SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    from repro.cli import main as cli_main

    if argv[:1] != ["--spans"]:
        return cli_main(argv)
    spans_path, argv = argv[1], argv[2:]
    from harness import Harness, SpanRecorder, layer_targets

    recorder = SpanRecorder()
    with Harness(recorder, layer_targets()) as harness:
        code = cli_main(argv)
    recorder.dump(spans_path, absent=harness.absent)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
