"""Process-level measurement helpers shared by every workload.

Everything here runs outside the timed window: set-up probes in fresh
interpreters, the serve process's start and stop, resident-set and CPU
readings, the reference digests, and the shared-memory hygiene check.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pathlib
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run-time files of one benchmark run (removed when it ends).
WORK = ROOT / ".perfbench" / "work"
#: Trace exports, kept so ``deeprh trace summarize`` can read them.
TRACES = ROOT / ".perfbench" / "trace"

#: Fresh starts per run whose median is ``setup_s``.
SETUP_STARTS = 5

#: Seconds a serve process gets to answer ``ping`` or to drain.
SERVE_TIMEOUT_S = 60.0


def use_checkout_environment() -> None:
    """Settings this process and every process it starts inherit.

    ``src`` goes on the path and bytecode is never written, so each fresh
    interpreter compiles ``repro`` from source on every run (as it does
    in an image that sets ``PYTHONDONTWRITEBYTECODE``) and nothing lands
    in the checkout's source tree.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited
                                      if inherited else "")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True


def now() -> float:
    return time.perf_counter()


def digest(result_dict: dict) -> str:
    """sha256 of the canonical result bytes (the repo's parity form)."""
    from repro.serve.protocol import canonical_result_bytes

    return hashlib.sha256(canonical_result_bytes(result_dict)).hexdigest()


def quantiles(values: Sequence[float]) -> str:
    """``median [q1, q3] (n=...)`` for the human-readable report."""
    if not values:
        return "n=0"
    if len(values) < 2:
        return f"{values[0]:.4f} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4f} [{q1:.4f}, {q3:.4f}] " \
           f"(n={len(values)})"


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def _probe(args: List[str]) -> Tuple[float, str]:
    """Start a fresh interpreter; time it until its first output line."""
    start = now()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = now() - start
    finally:
        proc.stdout.close()
        status = proc.wait(timeout=SERVE_TIMEOUT_S)
    if status != 0 or not line:
        raise RuntimeError(f"set-up probe {args!r} failed")
    return elapsed, line.strip()


def campaign_setup_s(workers: int) -> List[float]:
    """Fresh interpreter -> runner built, ``SETUP_STARTS`` times."""
    return [_probe([str(HERE / "ready.py"), "campaign", str(workers)])[0]
            for _ in range(SETUP_STARTS)]


def import_s() -> List[float]:
    """``import repro.runner, repro.serve`` in fresh interpreters."""
    return [float(_probe([str(HERE / "ready.py"), "imports"])[1].split()[1])
            for _ in range(SETUP_STARTS)]


# ----------------------------------------------------------------------
# The serve process
# ----------------------------------------------------------------------
@dataclass
class Server:
    proc: subprocess.Popen
    socket_path: str
    ready_s: float

    def vm_hwm_mb(self) -> float:
        """The serve process's resident-set high-water mark."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        fields = pathlib.Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for leftover in (self.socket_path,
                         self.socket_path + ".resume.json"):
            pathlib.Path(ROOT, leftover).unlink(missing_ok=True)


def _ping(socket_path: str) -> bool:
    from repro.serve.client import ServeClient

    try:
        with ServeClient(socket_path, timeout=SERVE_TIMEOUT_S) as client:
            return client.ping()
    except (FileNotFoundError, ConnectionRefusedError, socket.timeout):
        return False


def start_server(socket_path: str, extra: Sequence[str] = (),
                 launcher: bool = False) -> Server:
    """Start ``deeprh serve`` and wait until it answers ``ping``.

    The default form is the CLI entry point exactly as a user starts
    it; ``launcher`` goes through :mod:`serve_launcher` instead, which
    installs the layer wrappers first.  ``socket_path`` is relative to
    the checkout root (the working directory of every process).
    """
    entry = [str(HERE / "serve_launcher.py")] if launcher \
        else ["-m", "repro.cli"]
    start = now()
    proc = subprocess.Popen(
        [sys.executable, *entry, "serve", "--socket", socket_path, *extra],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    server = Server(proc, socket_path, 0.0)
    while not _ping(socket_path):
        if proc.poll() is not None or now() - start > SERVE_TIMEOUT_S:
            server.stop()
            raise RuntimeError("deeprh serve did not answer ping")
        time.sleep(0.002)
    server.ready_s = now() - start
    return server


def serve_setup_s(socket_path: str) -> List[float]:
    """Fresh ``deeprh serve`` -> answers ping, ``SETUP_STARTS`` times."""
    times = []
    for _ in range(SETUP_STARTS):
        server = start_server(socket_path)
        server.stop()
        times.append(server.ready_s)
    return times


# ----------------------------------------------------------------------
# Resource readings
# ----------------------------------------------------------------------
def peak_rss_mb(extra_mb: Iterable[float] = ()) -> float:
    """Highest high-water mark of this process and its reaped children.

    Pool workers are reaped when each op's pool shuts down, so they are
    covered by ``RUSAGE_CHILDREN``; a live serve process reports its own
    high-water mark through ``extra_mb``.
    """
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max([kb / 1024.0, *extra_mb])


def cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    The program's first shared-memory call starts it as a child of this
    process; without this it would outlive the run by a moment.  There
    is no public stop, hence the private call.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def shm_segments() -> set:
    """Names of the program's shared-memory segments now in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("drh")}
    except FileNotFoundError:
        return set()


# ----------------------------------------------------------------------
# Expected digests
# ----------------------------------------------------------------------
PINNED = HERE / "expected.json"


def pinned_digests() -> Dict[str, str]:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def _reference_digest(op) -> str:
    from repro.core.serialize import result_to_dict
    from repro.runner import CampaignRunner

    return digest(result_to_dict(CampaignRunner(op.config()).run(op.study)
                                 .result))


def reference_digests(ops: Iterable, known: Dict[str, str]
                      ) -> Dict[str, str]:
    """Expected digest per op key: known, else the serial in-process run.

    Missing ones run two at a time, each in a fresh worker process (the
    container has two cores); each is still ``CampaignRunner`` with one
    worker and no checkpoints.
    """
    expected = dict(known)
    missing = {op.key: op for op in ops if op.key not in expected}
    if missing:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            expected.update(zip(missing, pool.map(_reference_digest,
                                                  missing.values())))
    return expected
