"""Fresh-interpreter set-up probe.

``python3 perfbench/ready.py campaign WORKERS`` imports what a campaign
needs, builds the runner the benchmark's first op would build, and
prints ``ready``; the parent times it from process start to that line.
``python3 perfbench/ready.py imports`` prints how long
``import repro.runner, repro.serve`` takes in this interpreter.
"""

from __future__ import annotations

import sys
import tempfile
import time


def main(argv) -> int:
    if argv[:1] == ["imports"]:
        start = time.perf_counter()
        import repro.runner  # noqa: F401
        import repro.serve  # noqa: F401
        print(f"imports {time.perf_counter() - start!r}", flush=True)
        return 0
    if argv[:1] == ["campaign"] and len(argv) == 2:
        from repro.core.config import PRESETS
        from repro.runner import CampaignRunner

        workers = int(argv[1])
        checkpoint_dir = tempfile.gettempdir() if workers > 1 else None
        CampaignRunner(PRESETS["quick"], workers=workers,
                       checkpoint_dir=checkpoint_dir)
        print("ready", flush=True)
        return 0
    print("usage: ready.py imports | ready.py campaign WORKERS",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
