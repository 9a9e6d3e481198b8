"""The benchmark's three workloads, and why each one exists.

Every workload is a closed loop driven from this process: a client sends
its next op only after the previous one concluded.  Op seeds are drawn
from the workload seed (``--seed``), so the same seed always gives the
same ops.  One untimed warm-up precedes timing.

Predicted layer shares below are from traced probes on a 2-core
container at the commit that introduced this benchmark; the traced run
(``--trace 1``) prints the measured ones.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import measure
from measure import now

#: Workload seed whose expected digests are pinned in ``expected.json``.
DEFAULT_SEED = 2021

#: Seeds the in-process workloads cycle through.
CYCLE = 4

Overrides = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class Op:
    """One campaign: a study at preset ``quick`` with a seed."""

    study: str
    seed: int
    overrides: Overrides = ()

    @property
    def key(self) -> str:
        """Identity of the op's result: study, seed and overrides."""
        return " ".join([self.study, f"seed={self.seed}",
                         *(f"{k}={v}" for k, v in self.overrides)])

    def config(self):
        from repro.core.config import PRESETS

        return PRESETS["quick"].scaled(seed=self.seed, **dict(self.overrides))


@dataclass
class OpRecord:
    """One executed op: its timing and what came back."""

    op: Op
    start: float
    end: float
    result: Optional[dict] = None
    error: str = ""
    reply_bytes: int = 0
    request_id: str = ""
    digest: str = field(default="", init=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class RunOutput:
    """What one workload run hands back to ``run.py``."""

    timed: List[OpRecord]
    setup_s: List[float]
    peak_rss_mb: float
    cpu_per_wall: float
    traced: List[OpRecord] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    import_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Expected digests already computed on the serial in-process path.
    references: Dict[str, str] = field(default_factory=dict)


def draw_seeds(name: str, seed: int, count: int) -> List[int]:
    """``count`` distinct op seeds, a pure function of (workload, seed)."""
    gen = random.Random(f"{name}/{seed}")
    drawn: List[int] = []
    while len(drawn) < count:
        value = gen.randrange(1, 2 ** 31)
        if value not in drawn:
            drawn.append(value)
    return drawn


def _trace_dir(name: str):
    path = measure.TRACES / name
    shutil.rmtree(path, ignore_errors=True)
    return path


# ----------------------------------------------------------------------
# In-process campaigns: CampaignRunner.run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    study: str
    workers: int
    overrides: Overrides
    #: Fresh checkpoint directory per op, removed after it.
    checkpoints: bool
    why: str
    predicted: Dict[str, str]

    def ops(self, seed: int) -> List[Op]:
        """The cycle of ops; the untimed warm-up runs the first of them."""
        return [Op(self.study, s, self.overrides)
                for s in draw_seeds(self.name, seed, CYCLE)]

    def execute(self, op: Op) -> OpRecord:
        """Run one campaign; with checkpoints, check what it left behind."""
        from repro.core.serialize import result_to_dict
        from repro.runner import CampaignRunner

        op_dir = tempfile.mkdtemp(prefix="op-", dir=measure.WORK) \
            if self.checkpoints else None
        before = measure.shm_segments()
        record = OpRecord(op, now(), 0.0)
        try:
            outcome = CampaignRunner(
                op.config(), workers=self.workers,
                checkpoint_dir=f"{op_dir}/checkpoints" if op_dir else None,
            ).run(op.study)
            record.end = now()
            record.result = result_to_dict(outcome.result)
            if not outcome.ok:
                record.error = f"{len(outcome.quarantined)} module(s) " \
                               "quarantined"
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            record.end = record.end or now()
            record.error = f"{type(error).__name__}: {error}"
        if op_dir is not None:
            shutil.rmtree(op_dir)
            leaked = sorted(measure.shm_segments() - before)
            arenas = sorted(p.name for p in
                            measure.WORK.glob("tmp/deeprh-arena-*"))
            if (leaked or arenas) and not record.error:
                record.error = f"left behind: {leaked + arenas}"
        return record

    def run(self, seed: int, seconds: float, trace: bool) -> RunOutput:
        cycle = self.ops(seed)
        warm = self.execute(cycle[0])
        cpu0, wall0 = measure.cpu_s(), now()
        timed: List[OpRecord] = []
        while not timed or now() - wall0 < seconds:
            timed.append(self.execute(cycle[len(timed) % len(cycle)]))
        cpu_per_wall = (measure.cpu_s() - cpu0) / (now() - wall0)
        out = RunOutput(timed=timed, setup_s=[],
                        peak_rss_mb=measure.peak_rss_mb(),
                        cpu_per_wall=cpu_per_wall)
        if warm.error:
            out.problems.append(f"warm-up op failed: {warm.error}")
        elif self.workers == 1 and not self.checkpoints:
            # One worker and no checkpoints is the serial in-process
            # path itself, so the warm-up's digest is the reference.
            out.references[warm.op.key] = measure.digest(warm.result)
        if trace:
            self._traced_replay(out)
        out.setup_s = measure.campaign_setup_s(self.workers)
        return out

    def _traced_replay(self, out: RunOutput) -> None:
        """Re-run the timed ops with every layer wrapped and traced."""
        from repro.obs import MetricsRegistry, SpanRecord, Tracer, observed
        from repro.obs.trace import TRACE_FILENAME, reroot_spans

        registry = MetricsRegistry()
        export = Tracer()
        op_traces = []
        uninstall = layers.install()
        try:
            for k, timed in enumerate(out.timed, start=1):
                tracer = Tracer()
                with observed(tracer=tracer, metrics=registry):
                    out.traced.append(self.execute(timed.op))
                spans = tracer.to_dicts()
                op_traces.append(layers.OpTrace(spans))
                export.records.extend(SpanRecord(**span) for span in
                                      reroot_spans(spans, f"op{k}"))
        finally:
            uninstall()
        export.write_jsonl(_trace_dir(self.name) / TRACE_FILENAME)
        out.layer = layers.layer_metrics(
            op_traces, registry.to_dict()["counters"], self.workers)
        out.import_s = measure.import_s()


SPATIAL_SERIAL = CampaignWorkload(
    name="spatial-serial",
    study="spatial",
    workers=1,
    overrides=(),
    checkpoints=False,
    why=("Population generation, the ROADMAP hot path, does most of the "
         "work; supervisor, transport, checkpoints, arena and serve never "
         "run, so changes to them must read 'no change' here."),
    predicted={
        "population.cells_for self": "3.09 s of an 8.4 s op (37 %)",
        "temperature.sample_ranges self": "1.55 s (18 %)",
        "rng.derive self": "1.10 s (13 %); ~25k calls per op",
        "population total (cells_for + sample_ranges + derive)": "~69 %",
        "supervisor / transport / checkpoint / arena / serve": "0",
    },
)

TEMPERATURE_W2 = CampaignWorkload(
    name="temperature-w2",
    study="temperature",
    workers=2,
    # The full quick campaign takes ~26-33 s per op under the arena.  At
    # 15 rows per region an op takes ~7-9 s and the arena still
    # dominates (pickle plane: ~0.6 s); smaller ops were noisier here,
    # because pool start-up and host hiccups weigh more in a short op.
    overrides=(("rows_per_region", 15),),
    checkpoints=True,
    why=("The parallel path (supervisor, shm transport, gridblob, "
         "SharedArena, checkpoint publish) does most of the work; long "
         "parallel campaigns run with checkpoints, so each op gets a "
         "fresh checkpoint dir."),
    predicted={
        "oracle.arena (SharedArena.store + fetch)":
            "50.4 of 54 s worker busy time on the full quick campaign "
            "(zero cross-worker hits, oracle.arena.full 307); at 15 rows "
            "per region 13.6 of ~15.1 s (~90 %), 1078 fetches, 0 hits",
        "population (cells_for + sample_ranges + derive)":
            "~2 % of worker time on the full quick campaign; 0.53 of "
            "~15 s (~3.5 %) at 15 rows per region",
        "checkpoint.save": "~8-10 ms per module (8 modules per op)",
        "pickle data plane, same op": "~0.6 s, against 6.5-9 s on auto",
    },
)


# ----------------------------------------------------------------------
# deeprh serve driven by ServeClient
# ----------------------------------------------------------------------
#: Small campaigns keep a request near 0.33-0.39 s solo, so latency is
#: unimodal; hot requests skip the oracle matrix builds.
SERVE_OVERRIDES: Overrides = (
    ("acttime_rows_per_region", 10), ("hcfirst_repetitions", 1),
    ("modules_per_manufacturer", 1), ("rows_per_region", 10),
    ("wcdp_sample_rows", 2))
SERVE_HOT = 2
#: Each cold op adds ~359 matrices to the 4096-entry shared cache, so the
#: 15 other cold ops between two uses of one cold op evict it.
SERVE_COLD = 16
#: Request kinds in arrival order: studies alternate, and each study sees
#: hot and cold seeds.
SERVE_PATTERN = (("temperature", True), ("acttime", False),
                 ("temperature", False), ("acttime", True))
SERVE_CLIENTS = 2
#: Safety stop for the warm-up that fills the shared cache.
SERVE_MAX_WARMUP = 64
SERVE_SOCKET = ".perfbench/work/serve.sock"

#: Counters whose totals the per-layer ratios need.
COUNTERS = ("population.row_cache.hit", "population.row_cache.miss",
            "oracle.cache.hit", "oracle.cache.miss",
            "oracle.shared_cache.hit", "oracle.shared_cache.miss",
            "oracle.arena.attach", "supervisor.dispatch")


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    predicted: Dict[str, str]

    def op(self, seed: int, index: int) -> Op:
        """The ``index``-th request of the stream for this workload seed."""
        drawn = draw_seeds(self.name, seed, SERVE_HOT + SERVE_COLD)
        hot_seeds, cold_seeds = drawn[:SERVE_HOT], drawn[SERVE_HOT:]
        study, hot = SERVE_PATTERN[index % len(SERVE_PATTERN)]
        cycle = index // len(SERVE_PATTERN)
        if hot:
            chosen = hot_seeds[cycle % SERVE_HOT]
        else:
            position = 2 * cycle + (index % len(SERVE_PATTERN) == 2)
            chosen = cold_seeds[position % SERVE_COLD]
        return Op(study, chosen, SERVE_OVERRIDES)

    @staticmethod
    def request(client, op: Op, request_id: str,
                trace: bool = False) -> OpRecord:
        from repro.serve import protocol

        record = OpRecord(op, now(), 0.0, request_id=request_id)
        try:
            reply = client.campaign(op.study, request_id=request_id,
                                    preset="quick", seed=op.seed,
                                    overrides=dict(op.overrides),
                                    trace=trace)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            record.end = now()
            record.error = f"{type(error).__name__}: {error}"
            return record
        record.end = now()
        record.reply_bytes = sum(len(protocol.encode(event))
                                 for event in reply.events)
        if not reply.ok:
            record.error = f"{reply.status}: {reply.reason} {reply.detail}"
        elif not reply.events[-1].get("ok", False):
            record.error = "module(s) quarantined"
        else:
            record.result = reply.result
        return record

    def warm_up(self, seed: int) -> int:
        """Run the stream in order until the shared cache is full.

        Returns how many requests that took; timing starts after them.
        """
        from repro.serve.client import ServeClient

        with ServeClient(SERVE_SOCKET) as client:
            index = 0
            while index < SERVE_MAX_WARMUP:
                record = self.request(client, self.op(seed, index),
                                      f"warm{index}")
                index += 1
                if record.error:
                    raise RuntimeError(f"warm-up request failed: "
                                       f"{record.error}")
                status = client.status()
                if status.get("shared_cache_entries", 0) \
                        >= status.get("shared_cache_capacity", 0):
                    break
        return index

    def clients(self, plans: Sequence[List[Op]], seconds: Optional[float],
                trace: bool = False) -> List[List[OpRecord]]:
        """Closed-loop clients, one connection each.

        With ``seconds`` each client keeps sending ops from its plan until
        the window closes; without, it sends exactly its plan.
        """
        from repro.serve.client import ServeClient

        records: List[List[OpRecord]] = [[] for _ in plans]
        start = now()

        def drive(c: int) -> None:
            with ServeClient(SERVE_SOCKET) as client:
                for j, op in enumerate(plans[c]):
                    if seconds is not None and records[c] \
                            and now() - start >= seconds:
                        return
                    records[c].append(self.request(
                        client, op, f"c{c}-{j}", trace=trace))

        threads = [threading.Thread(target=drive, args=(c,))
                   for c in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records

    def run(self, seed: int, seconds: float, trace: bool) -> RunOutput:
        server = measure.start_server(SERVE_SOCKET)
        try:
            warmed = self.warm_up(seed)
            # Client c sends requests warmed + c, warmed + c + 2, ...; the
            # plan is longer than any window can use.
            longest = int(seconds * 20) + 8
            plans = [[self.op(seed, warmed + SERVE_CLIENTS * j + c)
                      for j in range(longest)]
                     for c in range(SERVE_CLIENTS)]
            cpu0, wall0 = measure.cpu_s() + server.cpu_s(), now()
            per_client = self.clients(plans, seconds)
            cpu_per_wall = (measure.cpu_s() + server.cpu_s() - cpu0) \
                / (now() - wall0)
            peak = measure.peak_rss_mb([server.vm_hwm_mb()])
        finally:
            server.stop()
        timed = sorted((r for rs in per_client for r in rs),
                       key=lambda r: r.start)
        out = RunOutput(timed=timed, setup_s=[], peak_rss_mb=peak,
                        cpu_per_wall=cpu_per_wall)
        if trace:
            self._traced_replay(out, seed, [[r.op for r in rs]
                                            for rs in per_client])
        out.setup_s = measure.serve_setup_s(SERVE_SOCKET)
        return out

    def _traced_replay(self, out: RunOutput, seed: int,
                       plans: List[List[Op]]) -> None:
        """Replay the timed requests, traced, on a wrapped server."""
        from repro.obs.expo import parse_prometheus, sanitize_metric_name
        from repro.obs.summary import load_spans
        from repro.serve.client import ServeClient

        trace_dir = _trace_dir(self.name)
        server = measure.start_server(
            SERVE_SOCKET, ["--trace", str(trace_dir.relative_to(
                measure.ROOT)), "--metrics"], launcher=True)

        def counters() -> Dict[str, float]:
            with ServeClient(SERVE_SOCKET) as client:
                samples = parse_prometheus(client.metrics())
            return {name: samples.get(sanitize_metric_name(name) + "_total",
                                      0.0) for name in COUNTERS}
        try:
            self.warm_up(seed)
            before = counters()
            per_client = self.clients(plans, None, trace=True)
            after = counters()
        finally:
            server.stop()
        out.traced = sorted((r for rs in per_client for r in rs),
                            key=lambda r: r.start)
        by_request: Dict[str, List[dict]] = {}
        for span in load_spans(trace_dir):
            by_request.setdefault(span["span_id"].split(".")[0],
                                  []).append(span)
        op_traces = [layers.OpTrace(spans) for spans in by_request.values()]
        if len(op_traces) != len(out.traced):
            # The service rotates its trace file at a size bound; a
            # replay too long for the retained segments loses requests.
            out.problems.append(f"{len(op_traces)} of {len(out.traced)} "
                                "traced requests found in the trace")
        out.layer = layers.layer_metrics(
            op_traces, {name: int(after[name] - before[name])
                        for name in COUNTERS}, workers=1)
        latency = {r.request_id: r.seconds for r in out.traced}
        run_s, waits = [], []
        for op_trace in op_traces:
            for root in op_trace.roots():
                if root["name"] != "serve.request":
                    continue
                spent = [s["duration_ns"] / 1e9 for s in op_trace.spans
                         if s["name"] == "runner.run"]
                run_s.extend(spent)
                request_id = root["attrs"].get("request", "")
                if spent and request_id in latency:
                    waits.append(latency[request_id] - spent[0])
        out.layer["serve.run_p50_s"] = layers.median_or_zero(run_s)
        out.layer["serve.queue_wait_p50_s"] = layers.median_or_zero(waits)
        out.import_s = measure.import_s()


SERVE_MIXED = ServeWorkload(
    name="serve-mixed",
    why=("The only workload that runs serve scheduling (two CPU-bound "
         "requests in asyncio.to_thread share one GIL), the shared matrix "
         "cache's hit path beside its miss/evict path, and acttime's "
         "10-point timing grid."),
    predicted={
        "hot requests (shared-cache hits)":
            "0.34 vs 0.47 s temperature, 0.30 vs 0.36 s acttime solo",
        "shared cache": "full after warm-up; hot ops hit, cold ops miss "
                        "(16 cold seeds outrun 4096 entries)",
        "queue wait": "about one request's run time (2 clients, 1 GIL)",
    },
)

WORKLOADS = {w.name: w for w in (SPATIAL_SERIAL, TEMPERATURE_W2,
                                 SERVE_MIXED)}
