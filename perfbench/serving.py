"""Driving the ``repro serve`` daemon from outside, as a user would.

The daemon runs in its own process, started through the CLI
(``python -m repro --seed S serve SPEC --port 0 --ready-file F``).  Load
comes from this one process with :data:`~perfbench.workloads.CONNECTIONS`
threads, each owning one :class:`repro.serving.ServeClient` connection.
Latency samples are raw ``perf_counter`` differences around each client
call (open-loop samples are taken from the scheduled send time), so every
quantile is an exact order statistic.  Every answer is kept until its load
segment ends and is then checked against an in-process reference oracle.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import numpy

from repro.serving import ProtocolError, ServeClient

from .workloads import PAIRS_PER_REQUEST, ZIPF_EXPONENT, ZIPF_POOL

#: Seconds a daemon may take from spawn to ready-file (gnp build ≈ 8 s).
READY_TIMEOUT = 150.0

#: Thread switch interval of this process while load runs (see _run_threads).
_SWITCH_INTERVAL = 0.0005


class DaemonError(RuntimeError):
    """The daemon exited or never became ready."""


def clean_env(src: Path) -> dict:
    """This process's environment with ``src`` on the path, REPRO_* knobs off.

    ``REPRO_*`` variables switch the BFS kernel, the worker count, tracing
    or profiling; any of them would make the daemon a different program
    from the one measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Daemon:
    """One spawned ``repro serve`` process; use as a context manager."""

    def __init__(self, root: Path, workdir: Path, spec: str, seed: int,
                 trace_path: Path | None = None) -> None:
        self.root = root
        self.spec = spec
        self.seed = seed
        self.trace_path = trace_path
        self.ready_file = workdir / f"ready-{id(self)}.txt"
        self.log_path = workdir / f"daemon-{id(self)}.log"
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.ready_seconds = 0.0
        self._started = 0.0

    def start(self) -> "Daemon":
        """Spawn the daemon and block until its ready-file names the port."""
        return self.spawn().wait_ready()

    def spawn(self) -> "Daemon":
        """Start the daemon process without waiting for it to be ready."""
        self.ready_file.unlink(missing_ok=True)
        command = [sys.executable, "-m", "repro", "--seed", str(self.seed)]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        command += ["serve", self.spec, "--port", "0",
                    "--ready-file", str(self.ready_file)]
        with open(self.log_path, "wb") as log:
            self._started = perf_counter()
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=clean_env(self.root / "src"),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        return self

    def wait_ready(self) -> "Daemon":
        """Block until the spawned daemon's ready-file names the port."""
        while True:
            try:
                text = self.ready_file.read_text(encoding="utf8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None:
                raise DaemonError(
                    f"daemon exited with code {self.proc.returncode} before "
                    f"ready: {self.log_path.read_text(errors='replace')[-2000:]}"
                )
            if perf_counter() - self._started > READY_TIMEOUT:
                self.stop()
                raise DaemonError(f"daemon not ready after {READY_TIMEOUT}s")
            sleep(0.002)
        self.ready_seconds = perf_counter() - self._started
        host, port = text.strip().rsplit(":", 1)
        self.address = (host, int(port))
        return self

    def client(self) -> ServeClient:
        """A new connection to the daemon."""
        return ServeClient(*self.address, timeout=60.0)

    def rss_mb(self) -> float:
        """The daemon's resident set size in MiB (Linux ``/proc``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
        raise DaemonError("no VmRSS line in /proc status")

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it does not exit (idempotent)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        if self.address is not None:
            try:
                with self.client() as client:
                    client.shutdown()
            except (OSError, ProtocolError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Daemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Seeded request streams
# ----------------------------------------------------------------------
def _rng(seed: int, label: str) -> numpy.random.Generator:
    return numpy.random.default_rng([seed, zlib.crc32(label.encode())])


def uniform_pairs(n: int, count: int, seed: int, label: str) -> list[list[int]]:
    """``count`` seeded pairs drawn uniformly from all vertex pairs."""
    return _rng(seed, label).integers(0, n, size=(count, 2)).tolist()


def request_stream(workload, n: int, seed: int, label: str,
                   requests: int) -> list[list[list[int]]]:
    """``requests`` seeded requests of ``PAIRS_PER_REQUEST`` pairs each.

    ``uniform`` draws from all ``n²`` pairs (far more than any answer cache
    holds); ``zipf`` draws from a fixed pool of ``ZIPF_POOL`` pairs with
    rank weights ``1 / rank^ZIPF_EXPONENT``, so hot pairs repeat.
    """
    count = requests * PAIRS_PER_REQUEST
    if workload.pairs == "uniform":
        flat = uniform_pairs(n, count, seed, label)
    else:
        pool = _rng(seed, "pool").integers(0, n, size=(ZIPF_POOL, 2))
        weights = 1.0 / numpy.arange(1, ZIPF_POOL + 1) ** ZIPF_EXPONENT
        picks = _rng(seed, label).choice(ZIPF_POOL, size=count, p=weights / weights.sum())
        flat = pool[picks].tolist()
    return [flat[i:i + PAIRS_PER_REQUEST] for i in range(0, count, PAIRS_PER_REQUEST)]


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------
@dataclass
class LoadPhase:
    """Raw samples of one load phase (merged over its connections)."""

    name: str
    latencies: list = field(default_factory=list)  # seconds per answered request
    late: list = field(default_factory=list)  # open loop: generator lateness
    answered: list = field(default_factory=list)  # (request pairs, answer)
    pairs: int = 0  # answered pairs
    errors: int = 0
    elapsed: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.latencies) + self.errors

    def merge(self, other: "LoadPhase") -> None:
        self.latencies += other.latencies
        self.late += other.late
        self.answered += other.answered
        self.pairs += other.pairs
        self.errors += other.errors
        self.elapsed += other.elapsed


def _run_threads(clients: list, body) -> tuple[list, float]:
    """Run ``body(client, index, start, phase)`` on one thread per client.

    The clients stay connected across phases, so no phase pays for
    connection set-up; the clock starts once every thread is running.
    Two artefacts of the load generator itself are switched off while the
    load runs, so that they do not show up as server latency: the cyclic
    garbage collector (this process holds the reference oracle and
    decomposition results, and a collection pass over them stalls the
    client threads), and the interpreter's default 5 ms thread switch
    interval (a thread whose answer has arrived waits that long for the
    GIL; at 0.5 ms the open-loop p90 on a 2-core VM fell from 6.8 to
    3.5 ms).  Returns the per-thread phases and the elapsed seconds.
    """
    phases = [LoadPhase("part") for _ in clients]
    crashes: list[BaseException] = []
    start = [0.0]

    def begin() -> None:
        start[0] = perf_counter()

    barrier = threading.Barrier(len(clients), action=begin)

    def worker(index: int) -> None:
        try:
            barrier.wait()
            body(clients[index], index, start[0], phases[index])
        except Exception as exc:  # surfaced in the caller below
            crashes.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(clients))]
    switch_interval = sys.getswitchinterval()
    gc.collect()
    gc.disable()
    sys.setswitchinterval(_SWITCH_INTERVAL)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - start[0]
    finally:
        sys.setswitchinterval(switch_interval)
        gc.enable()
    if crashes:
        raise crashes[0]
    return phases, elapsed


def _call(client: ServeClient, op: str, pairs):
    return client.distances(pairs) if op == "distance" else client.routes(pairs)


def closed_loop(clients: list, op: str, stream: list, seconds: float,
                name: str = "closed") -> LoadPhase:
    """Each connection keeps one request in flight until ``seconds`` pass."""
    connections = len(clients)

    def body(client, index, start, out):
        deadline = start + seconds
        i = index
        while perf_counter() < deadline:
            pairs = stream[i % len(stream)]
            i += connections
            sent = perf_counter()
            try:
                answer = _call(client, op, pairs)
            except ProtocolError:
                out.errors += 1
                continue
            out.latencies.append(perf_counter() - sent)
            out.answered.append((pairs, answer))
            out.pairs += len(pairs)

    parts, elapsed = _run_threads(clients, body)
    phase = LoadPhase(name, elapsed=elapsed)
    for part in parts:
        phase.merge(part)
    return phase


def open_loop(clients: list, op: str, stream: list, rate: float,
              seconds: float) -> LoadPhase:
    """Send at ``rate`` requests/s on a fixed schedule for ``seconds``.

    Latency runs from each request's scheduled send time, so a stall shows
    in every request queued behind it.  ``late`` is the generator's own
    lateness: actual send time minus the later of the scheduled time and
    the moment the connection became free.
    """
    slots = max(1, int(rate * seconds))
    connections = len(clients)

    def body(client, index, start, out):
        epoch = start + 0.05
        free_at = start
        for slot in range(index, slots, connections):
            scheduled = epoch + slot / rate
            delay = scheduled - perf_counter()
            if delay > 0:
                sleep(delay)
            pairs = stream[slot % len(stream)]
            sent = perf_counter()
            late = sent - max(scheduled, free_at)
            try:
                answer = _call(client, op, pairs)
            except ProtocolError:
                out.errors += 1
                continue
            free_at = perf_counter()
            out.latencies.append(free_at - scheduled)
            out.late.append(late)
            out.answered.append((pairs, answer))
            out.pairs += len(pairs)

    parts, elapsed = _run_threads(clients, body)
    phase = LoadPhase("open", elapsed=elapsed)
    for part in parts:
        phase.merge(part)
    return phase


def ping_seconds(daemon: Daemon, count: int) -> list[float]:
    """Round-trip seconds of ``count`` ``ping`` ops (no batcher, no query)."""
    samples = []
    with daemon.client() as client:
        for _ in range(count):
            sent = perf_counter()
            client.ping()
            samples.append(perf_counter() - sent)
    return samples


# ----------------------------------------------------------------------
# Checking served answers
# ----------------------------------------------------------------------
def wrong_answers(reference, op: str, answered: list) -> int:
    """Requests whose served answer differs from ``reference`` in any row."""
    if not answered:
        return 0
    if op == "distance":
        flat = [tuple(pair) for pairs, _ in answered for pair in pairs]
        expected: list = []
        for start in range(0, len(flat), 4096):
            expected += reference.distances(flat[start:start + 4096])
        wrong, offset = 0, 0
        for pairs, answer in answered:
            if answer != expected[offset:offset + len(pairs)]:
                wrong += 1
            offset += len(pairs)
        return wrong
    unique = sorted({tuple(pair) for pairs, _ in answered for pair in pairs})
    routes = dict(zip(unique, reference.routes(unique)))
    return sum(
        1 for pairs, answer in answered
        if answer != [routes[tuple(pair)] for pair in pairs]
    )
