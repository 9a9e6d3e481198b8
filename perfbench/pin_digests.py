#!/usr/bin/env python3
"""Rewrite ``expected.json``: digests of every op the default seed makes.

Each digest comes from the serial in-process path (``CampaignRunner``
with one worker, no checkpoints).  Changing a pinned digest changes what
the benchmark accepts as a correct result, so rerun this only when a
result is meant to change, and say why where the change is recorded.

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import sys

import measure

measure.use_checkout_environment()
import workloads  # noqa: E402


def default_ops():
    seed = workloads.DEFAULT_SEED
    for workload in (workloads.SPATIAL_SERIAL, workloads.TEMPERATURE_W2):
        yield from workload.ops(seed)
    serve = workloads.SERVE_MIXED
    period = len(workloads.SERVE_PATTERN) * workloads.SERVE_COLD
    yield from (serve.op(seed, index) for index in range(period))


def main() -> int:
    digests = measure.reference_digests(default_ops(), known={})
    measure.PINNED.write_text(json.dumps(digests, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} digests in {measure.PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
