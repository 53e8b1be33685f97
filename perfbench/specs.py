"""Seeded input generation: sim sweep spec lists and the serve schedule.

The program under test only ever receives what these functions return
(``RunSpec`` values and the request schedule); the seed decides
everything that varies between runs, so one seed always regenerates
byte-identical inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.grid.spec import RunSpec
from repro.workloads import get_workload, workload_names

#: The barrier-lockstep SPMD shapes shared by both sim workloads.
SIM_APPS = ("fir", "bitonic", "merge", "art", "fem", "mpeg2")
SIM_MODELS = ("cc", "str")
SIM_PRESET = "small"
SIM_CORES = {"sim-multicore": (4, 16), "sim-unicore": (1,)}

#: serve-mixed key space: every app x model x core count x clock, tiny.
SERVE_PRESET = "tiny"
SERVE_CORES = (1, 2, 4, 8, 16)
SERVE_CLOCKS = (0.8, 1.6, 3.2)
#: Offered load, requests per second (open loop).  At the 20 s run
#: length this is 1100 requests: 110 misses, one per (app, model, cores).
SERVE_RATE = 55.0
#: The middle request of each block of this many is a store miss.
SERVE_MISS_EVERY = 10
#: Share of misses requested on both connections at the same time.
SERVE_DEDUP_SHARE = 0.30
#: Zipf exponent of key popularity among store hits.
SERVE_ZIPF_S = 0.9
SERVE_CONNECTIONS = 2


def _seeded_overrides(app: str, preset: str,
                      rng: random.Random) -> dict | None:
    """A fresh ``seed`` override for workloads whose preset takes one."""
    if "seed" not in get_workload(app).presets[preset]:
        return None
    return {"seed": rng.randrange(1, 1 << 20)}


def sim_specs(workload: str, seed: int) -> list[RunSpec]:
    """The seeded sweep of a sim workload, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    specs = [RunSpec(app, model=model, cores=cores, preset=SIM_PRESET,
                     overrides=_seeded_overrides(app, SIM_PRESET, rng))
             for app in SIM_APPS for model in SIM_MODELS
             for cores in SIM_CORES[workload]]
    rng.shuffle(specs)
    return specs


def serve_keyspace() -> list[RunSpec]:
    """Every spec pre-warmed into the store (seed-independent)."""
    return [RunSpec(app, model=model, cores=cores, clock_ghz=clock,
                    preset=SERVE_PRESET)
            for app in workload_names() for model in SIM_MODELS
            for cores in SERVE_CORES for clock in SERVE_CLOCKS]


@dataclass(frozen=True)
class Request:
    """One scheduled point query."""

    due_s: float        # offset from the start of the load window
    conn: int           # which connection sends it
    spec: RunSpec
    novel: bool         # generated as a store miss


def _novel_spec(app: str, model: str, cores: int,
                rng: random.Random) -> RunSpec:
    """A tiny spec outside the warm key space (clock, bandwidth or config)."""
    kind = rng.randrange(3)
    if kind == 0:
        return RunSpec(app, model=model, cores=cores, preset=SERVE_PRESET,
                       clock_ghz=round(rng.uniform(0.5, 3.5), 4))
    if kind == 1:
        return RunSpec(app, model=model, cores=cores, preset=SERVE_PRESET,
                       bandwidth_gbps=round(rng.uniform(2.0, 25.6), 4))
    return RunSpec(app, model=model, cores=cores, preset=SERVE_PRESET,
                   config_overrides={
                       "dram.latency_ns": round(rng.uniform(40, 120), 3)})


def serve_schedule(seed: int, seconds: float,
                   keyspace: list[RunSpec] | None = None,
                   rate: float = SERVE_RATE) -> list[Request]:
    """The open-loop request schedule for one serve-mixed run.

    Request i is due at a seeded point of the middle half of its own
    1/rate slot, so the offered rate is exact and gaps vary from half a
    slot to one and a half; on a 2-core host, fully random gaps made
    the hit tail swing with collisions more than with the server.  The middle
    slot of each block of SERVE_MISS_EVERY is a miss, so misses arrive
    evenly; they walk a seeded order of every (app, model, cores) shape,
    so each run simulates the same mix of shapes with fresh variants.
    """
    keyspace = serve_keyspace() if keyspace is None else keyspace
    rng = random.Random(f"serve-mixed:{seed}")
    popular = list(keyspace)
    rng.shuffle(popular)
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(popular))))
    shapes = sorted({(s.workload, s.model, s.cores) for s in keyspace})
    rng.shuffle(shapes)
    count = max(1, round(rate * seconds))
    requests: list[Request] = []
    misses = 0
    for slot in range(count):
        due = (slot + rng.uniform(0.25, 0.75)) / rate
        conn = rng.randrange(SERVE_CONNECTIONS)
        if slot % SERVE_MISS_EVERY == SERVE_MISS_EVERY // 2:
            spec = _novel_spec(*shapes[misses % len(shapes)], rng)
            misses += 1
            requests.append(Request(due, conn, spec, True))
            if rng.random() < SERVE_DEDUP_SHARE:
                requests.append(Request(
                    due, (conn + 1) % SERVE_CONNECTIONS, spec, True))
        else:
            spec = rng.choices(popular, cum_weights=cum_weights)[0]
            requests.append(Request(due, conn, spec, False))
    return requests
