"""Helpers shared by the sim and serve workloads of the benchmark."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Checkout root (the benchmark runs from it) and the program's sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, sockets and traces, inside the checkout.
WORK = ROOT / ".perfbench"

#: Every acceleration switch the simulator reads when a system is built.
HATCH_VARS = ("REPRO_FASTPATH", "REPRO_BLOCKS", "REPRO_PHASES",
              "REPRO_STREAMS")
#: Counters of work the acceleration engines retired.  They describe the
#: simulator, not the simulated machine, so the ground-truth comparison
#: leaves them out; every other field must match exactly.
ENGINE_COUNTERS = ("sim.events", "sim.phase_iters", "sim.stream_iters")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 3


def child_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports repro from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(WORK)
    env.update(extra)
    return env


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def comparable(record: dict) -> dict:
    """A RunResult record without the engine counters."""
    record = dict(record)
    record["stats"] = {k: v for k, v in record["stats"].items()
                       if k not in ENGINE_COUNTERS}
    return record


def same_result(result, reference) -> bool:
    """True when two RunResults agree on every simulated quantity."""
    return comparable(result.to_dict()) == comparable(reference.to_dict())


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A fresh interpreter importing repro and readying one spec.
_SETUP_PROBE = """
import json, sys
from repro.grid.spec import RunSpec
from repro.config import MemoryModel
from repro.workloads import get_workload
spec = RunSpec.from_dict(json.loads(sys.argv[1]))
config = spec.to_config()
get_workload(spec.workload).build(MemoryModel.parse(spec.model), config,
                                  preset=spec.preset,
                                  overrides=spec.overrides)
print("ready", flush=True)
"""


def fresh_interpreter_setup_s(spec) -> float:
    """Seconds from launching an interpreter to ``spec`` being built."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, json.dumps(spec.to_dict())],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed for {spec.label()}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed


def ops_of(result) -> int:
    """Simulated work: instructions plus word accesses."""
    return result.instructions + result.word_accesses


def identity_counts(results) -> dict[str, float]:
    """Simulated quantities summed over results; never move under a
    pure-performance change."""
    results = list(results)
    return {
        "sim.ops": sum(ops_of(r) for r in results),
        "sim.exec_time_fs": sum(r.exec_time_fs for r in results),
        "mem.l1_misses": sum(r.l1_misses for r in results),
        "mem.l2_misses": sum(r.l2_misses for r in results),
        "mem.dram_bytes": sum(r.traffic.total_bytes for r in results),
        "mem.dma_commands": sum(r.stats.get("dma.commands", 0)
                                for r in results),
        "mem.dram_wait_fs": sum(r.stats["dram.wait_fs"] for r in results),
        "interconnect.wait_fs": sum(r.stats["bus.wait_fs"]
                                    + r.stats["xbar.wait_fs"]
                                    for r in results),
    }


def engine_counts(results) -> dict[str, float]:
    """Event and closed-form coverage counters summed over results."""
    results = list(results)
    phase_total = sum(r.stats["sim.phase_iters_total"] for r in results)
    stream_total = sum(r.stats["sim.stream_iters_total"] for r in results)
    return {
        "sim.events": sum(r.stats["sim.events"] for r in results),
        "sim.phase_coverage": (sum(r.stats["sim.phase_iters"]
                                   for r in results) / phase_total
                               if phase_total else 0.0),
        "sim.stream_coverage": (sum(r.stats["sim.stream_iters"]
                                    for r in results) / stream_total
                                if stream_total else 0.0),
    }
