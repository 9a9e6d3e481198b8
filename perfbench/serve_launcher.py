"""Start ``deeprh serve`` with the benchmark's layer wrappers installed.

``python3 perfbench/serve_launcher.py serve --socket S --trace DIR ...``
wraps the layer functions (see :mod:`layers`) and then hands the
arguments to the CLI entry point unchanged.  Requests sent with
``trace: true`` record each wrapped call into that request's own tracer,
which the service writes to ``DIR/trace.jsonl``.
"""

from __future__ import annotations

import sys

import layers


def main(argv) -> int:
    from repro import cli

    layers.install()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
