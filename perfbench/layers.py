"""Per-layer attribution from outside the program.

:func:`install` wraps the public functions each layer exposes so that
every call opens a span on :func:`repro.obs.get_tracer`.  The wrappers
sit on the attribute callers resolve at call time (a module global or a
class attribute), so the program itself carries no new spans.  With the
no-op tracer active a wrapper costs one extra call and an attribute
check.

:func:`layer_metrics` turns the spans of a set of traced ops (plus the
program's own counters) into the per-layer numbers the benchmark prints.
A span's *self time* is its duration minus the union of its children's
intervals; worker spans adopted under ``w<n>`` keep their own trees.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: (module path, owner attribute or "", function attribute, span name).
#: Owner "" means a module-level function.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.rng", "", "derive", "rng.derive"),
    ("repro.faultmodel.population", "CellPopulation", "cells_for",
     "population.cells_for"),
    ("repro.faultmodel.temperature", "", "sample_ranges",
     "temperature.sample_ranges"),
    ("repro.faultmodel.batch", "", "threshold_parts",
     "oracle.threshold_parts"),
    ("repro.faultmodel.shared_arena", "SharedArena", "store",
     "oracle.arena.store"),
    ("repro.faultmodel.shared_arena", "SharedArena", "fetch",
     "oracle.arena.fetch"),
    ("repro.testing.hammer", "HammerTester", "ber_grid", "hammer.ber_grid"),
    ("repro.testing.hammer", "HammerTester", "hcfirst_grid",
     "hammer.hcfirst_grid"),
    ("repro.testing.hammer", "HammerTester", "hcfirst_min_grid",
     "hammer.hcfirst_min_grid"),
    ("repro.runner.adapters", "StudyAdapter", "prepare", "study.prepare"),
    ("repro.runner.adapters", "StudyAdapter", "run_point",
     "study.run_point"),
    ("repro.runner.adapters", "StudyAdapter", "finalize", "study.finalize"),
    ("repro.runner.adapters", "StudyAdapter", "make_result",
     "study.make_result"),
    ("repro.runner.adapters", "StudyAdapter", "to_dict", "study.to_dict"),
    ("repro.runner.adapters", "StudyAdapter", "from_dict",
     "study.from_dict"),
    ("repro.runner.checkpoint", "CheckpointStore", "save",
     "checkpoint.save"),
    ("repro.runner.checkpoint", "CheckpointStore", "save_blob",
     "checkpoint.save_blob"),
    ("repro.runner.shm", "", "publish", "shm.publish"),
    ("repro.runner.shm", "", "reclaim", "shm.reclaim"),
    ("repro.runner.gridblob", "", "encode_module", "gridblob.encode"),
    ("repro.runner.gridblob", "", "decode_module", "gridblob.decode"),
    ("repro.runner.campaign", "CampaignRunner", "run", "runner.run"),
)

#: Spans that only give structure: time under them that no other span
#: covers is *unattributed*.
STRUCTURAL = frozenset({"runner.run", "campaign.run", "campaign.module",
                        "campaign.unit", "serve.request"})

#: Checkpoint-layer spans (the program's own ``checkpoint.publish`` too).
CHECKPOINT = frozenset({"checkpoint.save", "checkpoint.save_blob",
                        "checkpoint.publish"})


def _traced(original: Callable, name: str) -> Callable:
    from repro.obs import get_tracer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return original(*args, **kwargs)
        with tracer.span(name):
            return original(*args, **kwargs)
    return wrapper


def install() -> Callable[[], None]:
    """Wrap every target; returns a function that restores them."""
    import importlib

    restore: List[Tuple[object, str, object]] = []
    for module_name, owner_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr] if owner_name else getattr(owner,
                                                                   attr)
        setattr(owner, attr, _traced(original, span))
        restore.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _in_worker(span_id: str) -> bool:
    """Whether a span was recorded in a pool worker (``w<n>`` prefix)."""
    return any(part[:1] == "w" and part[1:].isdigit()
               for part in span_id.split("."))


class OpTrace:
    """The spans of one traced op, indexed for self-time queries."""

    def __init__(self, spans: Sequence[dict]) -> None:
        self.spans = list(spans)
        self.by_id = {span["span_id"]: span for span in self.spans}
        self.children: Dict[str, List[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent_id"]:
                self.children[span["parent_id"]].append(span)

    def _clipped_children(self, span: dict):
        """``(child, interval)`` pairs, each interval clipped to ``span``."""
        lo = span["start_ns"]
        hi = lo + span["duration_ns"]
        for child in self.children.get(span["span_id"], ()):
            a = max(lo, child["start_ns"])
            b = min(hi, child["start_ns"] + child["duration_ns"])
            if b > a:
                yield child, (a, b)

    def self_ns(self, span: dict) -> int:
        """Duration minus the union of the child intervals."""
        return span["duration_ns"] - _union_ns(
            interval for _, interval in self._clipped_children(span))

    def parent_name(self, span: dict) -> str:
        parent = self.by_id.get(span["parent_id"])
        return parent["name"] if parent is not None else ""

    def roots(self) -> List[dict]:
        return [s for s in self.spans if s["parent_id"] not in self.by_id]

    def _uncovered_ns(self, span: dict) -> int:
        """Time under a structural span that no layer span covers."""
        if span["name"] not in STRUCTURAL:
            return 0
        return self.self_ns(span) + sum(
            self._uncovered_ns(child)
            for child, _ in self._clipped_children(span))

    def unattributed(self) -> Tuple[int, int]:
        """``(uncovered ns, total ns)`` over every root tree of the op."""
        roots = self.roots()
        return (sum(self._uncovered_ns(r) for r in roots),
                sum(r["duration_ns"] for r in roots))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(ops: Sequence[OpTrace], counters: Dict[str, int],
                  workers: int) -> Dict[str, float]:
    """Per-op layer metrics for a set of traced ops.

    Times and counts are means per op; ratios carry their base as a
    separate per-op count.  ``counters`` are the program's own counters
    summed over the ops.
    """
    n_ops = max(1, len(ops))
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    supervisor_s = worker_module_s = 0.0
    transport_worker = transport_parent = 0.0
    checkpoint_s = 0.0
    checkpoint_calls = 0
    uncovered = covered_total = 0
    for op in ops:
        gap, whole = op.unattributed()
        uncovered += gap
        covered_total += whole
        for span in op.spans:
            name = span["name"]
            own = op.self_ns(span) / 1e9
            self_s[name] += own
            calls[name] += 1
            worker = _in_worker(span["span_id"])
            parent = op.parent_name(span)
            if name == "supervisor.run":
                supervisor_s += span["duration_ns"] / 1e9
            if name == "campaign.module" and worker:
                worker_module_s += span["duration_ns"] / 1e9
            if name in CHECKPOINT or (name == "gridblob.encode"
                                      and parent == "checkpoint.save"):
                checkpoint_s += own
                if name in ("checkpoint.save", "checkpoint.save_blob") \
                        and parent != "checkpoint.save":
                    checkpoint_calls += 1
            elif name in ("gridblob.encode", "shm.publish") and worker:
                transport_worker += own
            elif name in ("shm.reclaim", "gridblob.decode") and not worker:
                transport_parent += own

    def count(name: str) -> int:
        return counters.get(name, 0)

    row_lookups = count("population.row_cache.hit") \
        + count("population.row_cache.miss")
    lru_lookups = count("oracle.cache.hit") + count("oracle.cache.miss")
    shared_lookups = count("oracle.shared_cache.hit") \
        + count("oracle.shared_cache.miss")
    arena_fetches = calls["oracle.arena.fetch"]
    return {
        "rng.derive.calls": calls["rng.derive"] / n_ops,
        "rng.derive.self_s": self_s["rng.derive"] / n_ops,
        "population.cells_for.calls": calls["population.cells_for"] / n_ops,
        "population.cells_for.self_s":
            self_s["population.cells_for"] / n_ops,
        "population.row_cache.hit_ratio":
            _ratio(count("population.row_cache.hit"), row_lookups),
        "population.row_cache.lookups": row_lookups / n_ops,
        "temperature.sample_ranges.self_s":
            self_s["temperature.sample_ranges"] / n_ops,
        "oracle.threshold_parts.calls":
            calls["oracle.threshold_parts"] / n_ops,
        "oracle.threshold_parts.self_s":
            self_s["oracle.threshold_parts"] / n_ops,
        "oracle.cache.hit_ratio": _ratio(count("oracle.cache.hit"),
                                         lru_lookups),
        "oracle.cache.lookups": lru_lookups / n_ops,
        "oracle.shared_cache.hit_ratio":
            _ratio(count("oracle.shared_cache.hit"), shared_lookups),
        "oracle.shared_cache.lookups": shared_lookups / n_ops,
        "oracle.arena.self_s": (self_s["oracle.arena.store"]
                                + self_s["oracle.arena.fetch"]) / n_ops,
        "oracle.arena.hit_ratio": _ratio(count("oracle.arena.attach"),
                                         arena_fetches),
        "oracle.arena.fetches": arena_fetches / n_ops,
        "hammer.grid.calls": (calls["hammer.ber_grid"]
                              + calls["hammer.hcfirst_grid"]) / n_ops,
        "hammer.ber_grid.self_s": self_s["hammer.ber_grid"] / n_ops,
        "hammer.hcfirst_grid.self_s": self_s["hammer.hcfirst_grid"] / n_ops,
        "hammer.hcfirst_min_grid.self_s":
            self_s["hammer.hcfirst_min_grid"] / n_ops,
        "study.prepare.self_s": self_s["study.prepare"] / n_ops,
        "study.to_dict.self_s": self_s["study.to_dict"] / n_ops,
        "supervisor.run_s": supervisor_s / n_ops,
        "supervisor.dispatches": count("supervisor.dispatch") / n_ops,
        "supervisor.pool_utilization":
            _ratio(worker_module_s, workers * supervisor_s),
        "transport.worker_s": transport_worker / n_ops,
        "transport.parent_s": transport_parent / n_ops,
        "checkpoint.save.calls": checkpoint_calls / n_ops,
        "checkpoint.save.self_s": checkpoint_s / n_ops,
        "trace.unattributed_frac": _ratio(uncovered, covered_total),
    }


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
