"""serve-mixed: open-loop point queries against ``python -m repro serve``.

The store is pre-warmed in-process with the seed-independent tiny key
space (those in-process results are the ground truth for hits).  Then a
server subprocess with one worker serves a seeded schedule: Zipf-popular
store hits, about 10% novel misses that simulate and write the store,
and a share of misses sent on both connections at once to exercise the
server's in-flight dedup.  Each request is timed from its due time to
its ``done`` frame, so a stall also delays the requests queued behind
it.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.grid.spec import RunSpec
from repro.grid.store import ResultStore
from repro.results import RunResult
from repro.serve import protocol
from repro.serve.client import ServeClient

from perfbench import common, layers, specs as specgen
from perfbench.simbench import traced_execute
from perfbench.tracing import Tracer, package_self_shares

#: Seconds a request may stay unanswered after the last one was due.
DRAIN_TIMEOUT_S = 60.0
#: Untimed store hits sent before the window, after the warm-up miss.
WARMUP_HITS = 20


@dataclass
class Pending:
    """One in-flight request and what came back for it."""

    due_ns: int = 0
    done_ns: int = 0
    outcomes: list = field(default_factory=list)
    error: str | None = None


class Server:
    """A ``repro serve start --jobs 1`` subprocess over one store."""

    def __init__(self, store_root: Path, name: str) -> None:
        self.socket = common.WORK / f"{name}.sock"
        self.log = common.WORK / f"{name}.log"
        self.store_root = store_root
        self.proc: subprocess.Popen | None = None

    @property
    def address(self) -> str:
        """Socket path as short as possible (unix paths are length-capped)."""
        return os.path.relpath(self.socket)

    def start(self) -> float:
        """Spawn the server; returns seconds until it answers a ping."""
        with contextlib.suppress(OSError):
            self.socket.unlink()
        start = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "start",
                 "--jobs", "1",
                 "--socket", os.path.relpath(self.socket, common.ROOT),
                 "--store", str(self.store_root)],
                cwd=common.ROOT, env=common.child_env(), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
        with self.client(retry_for_s=60.0) as client:
            client.ping()
        return time.perf_counter() - start

    def client(self, retry_for_s: float = 0.0) -> ServeClient:
        return ServeClient.connect(socket_path=self.address,
                                   retry_for_s=retry_for_s, timeout_s=60.0)

    def tree_pids(self) -> list[int]:
        """The server and every process below it."""
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    frontier += [int(p) for p in
                                 (task / "children").read_text().split()]
                except OSError:
                    pass
        return pids

    def tree_peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server process tree."""
        total_kb = 0
        for pid in self.tree_pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Shut down politely, then make sure the whole tree is gone."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with self.client() as client:
                    client.shutdown()
                self.proc.wait(timeout=20)
        except (OSError, ConnectionError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: server stop: {exc!r}", file=sys.stderr)
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            with contextlib.suppress(OSError):
                os.killpg(self.proc.pid, signal.SIGKILL)   # orphaned workers
            if self.proc.returncode != 0:
                print(self.log.read_text()[-2000:], file=sys.stderr)
            self.log.unlink(missing_ok=True)
            self.proc = None


def _connect(address: str) -> socket.socket:
    """A load connection, past the server's greeting."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(address)
    greeting = b""
    while not greeting.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("server closed before greeting")
        greeting += chunk
    if protocol.decode(greeting).get("type") != "hello":
        raise ConnectionError(f"server did not greet: {greeting!r}")
    return sock


def drive_load(server: Server, schedule, tracer=None):
    """Send ``schedule`` open-loop over two connections; wait for answers.

    One thread both sends and receives: it sleeps in ``select`` until the
    next request is due or a frame arrives, so the generator adds no
    thread hand-offs of its own.  Returns ``(pending by id, window start
    ns, send lags in s)``.
    """
    pending = {f"q{i}": Pending() for i in range(len(schedule))}
    socks = [_connect(server.address)
             for _ in range(specgen.SERVE_CONNECTIONS)]
    buffers = [b""] * len(socks)
    lags = []
    settled = 0
    with selectors.DefaultSelector() as selector:
        for index, sock in enumerate(socks):
            selector.register(sock, selectors.EVENT_READ, index)
        start_ns = time.perf_counter_ns() + 50_000_000
        for i, request in enumerate(schedule):
            pending[f"q{i}"].due_ns = start_ns + int(request.due_s * 1e9)
        sent = 0
        deadline_ns = (start_ns + int(schedule[-1].due_s * 1e9)
                       + int(DRAIN_TIMEOUT_S * 1e9))
        try:
            while settled < len(schedule):
                now = time.perf_counter_ns()
                while sent < len(schedule) \
                        and pending[f"q{sent}"].due_ns <= now:
                    rid = f"q{sent}"
                    request = schedule[sent]
                    lags.append((now - pending[rid].due_ns) / 1e9)
                    with (tracer.span("loadgen.send", rid) if tracer
                          else contextlib.nullcontext()):
                        socks[request.conn].sendall(protocol.encode(
                            {"type": "submit", "id": rid,
                             "specs": [request.spec.to_dict()]}))
                    sent += 1
                    now = time.perf_counter_ns()
                if now >= deadline_ns:
                    break
                wake_ns = (pending[f"q{sent}"].due_ns if sent < len(schedule)
                           else deadline_ns)
                for key, _ in selector.select(max(0, wake_ns - now) / 1e9):
                    index = key.data
                    chunk = socks[index].recv(1 << 16)
                    arrived = time.perf_counter_ns()
                    if not chunk:
                        raise ConnectionError("server closed a connection")
                    *lines, buffers[index] = (buffers[index]
                                              + chunk).split(b"\n")
                    for line in lines:
                        settled += _settle(line, pending, arrived, tracer)
        finally:
            for sock in socks:
                sock.close()
    if tracer is not None:
        for rid, entry in pending.items():
            if entry.done_ns:
                tracer.add("serve.request", entry.due_ns, entry.done_ns, rid)
    return pending, start_ns, lags


def _settle(line: bytes, pending: dict, arrived_ns: int, tracer) -> int:
    """Apply one received frame; returns 1 when it ends a request."""
    with tracer.span("loadgen.decode") if tracer else contextlib.nullcontext():
        frame = protocol.decode(line)
    request = pending.get(frame.get("id"))
    if request is None:
        return 0
    if frame["type"] == "outcome":
        request.outcomes.append(frame)
        return 0
    if frame["type"] in ("done", "error"):
        if frame["type"] == "error":
            request.error = frame.get("message", "error")
        request.done_ns = arrived_ns
        return 1
    return 0


def prewarm(store: ResultStore, keyspace) -> dict[str, RunResult]:
    """Fill the store in-process; returns the results by content key."""
    results = {}
    for spec in keyspace:
        result = spec.execute()
        store.put(spec, result)
        results[spec.content_key()] = result
    return results


def _warm_up(server: Server, keyspace) -> None:
    """Start the worker process and touch the hit path before timing."""
    warm_miss = RunSpec("fir", model="cc", cores=1, preset="tiny",
                        bandwidth_gbps=1.0)
    with server.client() as client:
        client.submit([warm_miss])
        for spec in keyspace[:WARMUP_HITS]:
            client.submit([spec])


def _run_wall_s(stats: dict) -> float:
    """Summed wall seconds of the runs a stats frame has seen finish."""
    progress = stats["progress"]
    runs = progress["completed"] - progress["cache_hits"]
    return runs * progress["run_wall_s"].get("mean_s", 0.0)


def run(seed: int, seconds: float, trace: bool, keyspace=None,
        schedule=None, corrupt=None) -> dict:
    """One serve-mixed run; returns the report (metrics without units).

    ``keyspace``/``schedule`` replace the seeded inputs and ``corrupt``
    (a function of a RunResult) tampers with the ground truth; the
    benchmark's own tests use them.
    """
    keyspace = specgen.serve_keyspace() if keyspace is None else keyspace
    if schedule is None:
        schedule = specgen.serve_schedule(seed, seconds, keyspace)
    for name in common.HATCH_VARS:
        os.environ[name] = "1"
    tag = f"serve-{os.getpid()}"
    store_root = common.WORK / f"{tag}-store"
    shutil.rmtree(store_root, ignore_errors=True)
    servers: list[Server] = []
    tracer = Tracer() if trace else None
    try:
        truth = prewarm(ResultStore(store_root), keyspace)
        setups = []
        for i in range(common.SETUP_PROBES):
            server = Server(store_root, f"{tag}-{i}")
            servers.append(server)
            setups.append(server.start())
            if i + 1 < common.SETUP_PROBES:
                server.stop()
        _warm_up(server, keyspace)
        with server.client() as client:
            before = client.stats()
        pending, start_ns, lags = drive_load(server, schedule, tracer)
        with server.client() as client:
            after = client.stats()
        peak_rss_mb = server.tree_peak_rss_mb()
        server.stop()

        score = _score(schedule, pending, start_ns, truth, corrupt)
        report = {"attempted": len(schedule), "failed": score["failed"]}
        lag_p99_ms = common.percentile(lags, 99) * 1e3
        if not trace:
            report["metrics"] = {**score["end_to_end"],
                                 "setup_s": statistics.median(setups),
                                 "peak_rss_mb": peak_rss_mb}
            report["lag_p99_ms"] = lag_p99_ms
            return report
        metrics = _server_layers(before, after, seconds)
        metrics["loadgen.lag_p99_ms"] = lag_p99_ms
        metrics.update(_sim_layers(score["misses"], tracer))
        copy_root = common.WORK / f"{tag}-replay"
        shutil.rmtree(copy_root, ignore_errors=True)
        shutil.copytree(store_root, copy_root)
        try:
            metrics.update(layers.replay_layers(
                score["served"], copy_root, tracer,
                put_keys=score["novel_keys"]))
        finally:
            shutil.rmtree(copy_root, ignore_errors=True)
        metrics.update(common.identity_counts(score["unique"]))
        report["metrics"] = metrics
        report["tracer"] = tracer
        return report
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(store_root, ignore_errors=True)


def _score(schedule, pending, start_ns, truth, corrupt) -> dict:
    """Latencies, throughput and the served-vs-in-process gate, plus what
    the traced run replays: the misses (re-run in-process), the served
    (spec, result) sequence, the miss keys and the unique results."""
    hit_ms, miss_ms = [], []
    run_ops = run_wall = 0.0
    failed = 0
    served = []               # (spec, result, key) in request order
    novel = {}                # content key -> spec of every miss served
    for i, request in enumerate(schedule):
        entry = pending[f"q{i}"]
        frames = entry.outcomes
        if (not entry.done_ns or entry.error or len(frames) != 1
                or frames[0]["status"] != "ok"):
            failed += 1
            continue
        frame = frames[0]
        result = RunResult.from_dict(frame["result"])
        latency_ms = (entry.done_ns - entry.due_ns) / 1e6
        if frame["source"] == "store":
            hit_ms.append(latency_ms)
        else:
            miss_ms.append(latency_ms)
            novel[frame["key"]] = request.spec
        if frame["source"] == "run":
            run_ops += common.ops_of(result)
            run_wall += frame["wall_s"]
        served.append((request.spec, result, frame["key"]))
    # Ground truth for misses: the same specs run in-process, after the
    # window.  Hits were pre-warmed in-process.
    misses = {}
    for key, spec in novel.items():
        t0 = time.perf_counter()
        truth[key] = spec.execute()
        misses[key] = (spec, truth[key], time.perf_counter() - t0)
    if corrupt is not None:
        truth = {key: corrupt(result) for key, result in truth.items()}
    for spec, result, key in served:
        failed += not common.same_result(result, truth[key])
    done = [pending[f"q{i}"].done_ns for i in range(len(schedule))
            if pending[f"q{i}"].done_ns]
    window_s = (max(done) - start_ns) / 1e9 if done else float("inf")
    unique = {key: result for _spec, result, key in served}
    end_to_end = {
        "hit_p50_ms": common.percentile(hit_ms, 50),
        "hit_p99_ms": common.percentile(hit_ms, 99),
        "miss_p50_ms": common.percentile(miss_ms, 50),
        "miss_p90_ms": common.percentile(miss_ms, 90),
        "served_qps": len(done) / window_s,
        "sim_ops_per_s": run_ops / run_wall if run_wall else 0.0,
    }
    return {"failed": failed, "end_to_end": end_to_end,
            "misses": list(misses.values()),
            "served": [(spec, result) for spec, result, _key in served],
            "novel_keys": set(novel), "unique": list(unique.values())}


def _server_layers(before: dict, after: dict, seconds: float) -> dict:
    """serve.* numbers from the stats frames around the load window."""
    def delta(name: str) -> int:
        return after["server"][name] - before["server"][name]

    hits = delta("store_hits")
    looked_up = delta("unique_specs")
    return {
        "serve.store_hits": hits,
        "serve.hit_ratio": hits / looked_up if looked_up else 0.0,
        "serve.runs_executed": delta("runs_executed"),
        "serve.dedup_joins": delta("dedup_joins"),
        "serve.events_dropped": delta("events_dropped"),
        "serve.worker_utilization": (_run_wall_s(after) - _run_wall_s(before))
                                    / (seconds * after["server"]["jobs"]),
        "serve.run_wall_p50_ms": after["progress"]["run_wall_s"].get(
            "p50_s", 0.0) * 1e3,
    }


def _sim_layers(misses, tracer: Tracer) -> dict:
    """core/sim/workloads numbers from re-running the misses in-process,
    traced and then profiled; the plain in-process runs are the
    untraced side of the tracing overhead."""
    if not misses:
        return {}
    specs = [spec for spec, _result, _wall in misses]
    plain_s = sum(wall for _spec, _result, wall in misses)
    ops = sum(common.ops_of(result) for _spec, result, _wall in misses)
    t0 = time.perf_counter()
    results = [traced_execute(spec, tracer, f"miss{i}")
               for i, spec in enumerate(specs)]
    traced_s = time.perf_counter() - t0
    profile = cProfile.Profile()
    for i, spec in enumerate(specs):
        traced_execute(spec, Tracer(), f"prof{i}", profile)
    core_run_s = sum(tracer.seconds("core.run"))
    metrics = common.engine_counts(results)
    metrics.update({
        "core.run_s": core_run_s,
        "sim.host_us_per_event": core_run_s / metrics["sim.events"] * 1e6,
        "workloads.build_s": sum(tracer.seconds("workloads.build")),
        "core.assemble_s": sum(tracer.seconds("core.assemble")),
        "trace.overhead_ops_per_s": ops / traced_s - ops / plain_s,
    })
    for package, share in package_self_shares(profile).items():
        metrics[f"{package}.self_share"] = share
    return metrics
