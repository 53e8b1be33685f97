"""sim-multicore and sim-unicore: serial sweeps through ``RunSpec.execute``.

Each run checks every timed result against the materialized ground
truth (the same spec with every acceleration switch off, run in a child
interpreter before the timed window), then times the sweep's hit path:
the harness ``Runner`` answering an already simulated spec from its
in-process memo, as experiments that share points do.
"""

from __future__ import annotations

import cProfile
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from repro.config import MemoryModel
from repro.core.system import CmpSystem
from repro.grid.spec import RunSpec
from repro.harness.runner import Runner
from repro.results import RunResult
from repro.workloads import get_workload

from perfbench import common, layers, specs as specgen
from perfbench.tracing import Tracer, package_self_shares

#: Memo lookups of each answered spec after every timed run.
HIT_REPEATS = 5
#: Specs (in sweep order) the profiler runs; caps the traced run's length.
PROFILED_SPECS = 12
#: Per-layer metrics of the serve path, which a sweep does not exercise.
SERVE_ONLY = ("serve.store_hits", "serve.hit_ratio", "serve.runs_executed",
              "serve.dedup_joins", "serve.events_dropped",
              "serve.worker_utilization", "serve.run_wall_p50_ms",
              "loadgen.lag_p99_ms")


def reference_main() -> None:
    """Child entry: run the spec dicts on stdin, print result records."""
    for line in sys.stdin:
        spec = RunSpec.from_dict(json.loads(line))
        print(json.dumps(spec.execute().to_dict()), flush=True)


def reference_results(specs: list[RunSpec]) -> list[RunResult]:
    """Ground truth: every spec run with all acceleration switched off."""
    env = common.child_env(**{name: "0" for name in common.HATCH_VARS})
    payload = "".join(json.dumps(s.to_dict()) + "\n" for s in specs)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from perfbench.simbench import reference_main; reference_main()"],
        input=payload, capture_output=True, text=True, env=env,
        cwd=common.ROOT, timeout=150, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != len(specs):
        raise RuntimeError(f"reference run failed:\n{proc.stderr[-2000:]}")
    return [RunResult.from_dict(json.loads(line)) for line in lines]


def timed_sweep(specs, seconds: float, execute=None, after=None):
    """Run the sweep round-robin until ``seconds`` pass and every spec
    ran at least once.  Returns per-spec wall times, every result in
    order as ``(index, result)``, and the count of runs that raised.
    ``execute(i, spec)`` replaces ``spec.execute()`` for the i-th run;
    ``after(slot, result)`` is called, untimed, after each one."""
    times: list[list[float]] = [[] for _ in specs]
    results: list[tuple[int, RunResult]] = []
    errors = 0
    start = time.perf_counter()
    index = 0
    while index < len(specs) or time.perf_counter() - start < seconds:
        slot = index % len(specs)
        t0 = time.perf_counter()
        try:
            result = (specs[slot].execute() if execute is None
                      else execute(index, specs[slot]))
        except Exception as exc:  # a failed run is counted, not fatal
            print(f"perfbench: {specs[slot].label()} raised {exc!r}",
                  file=sys.stderr)
            errors += 1
        else:
            times[slot].append(time.perf_counter() - t0)
            results.append((slot, result))
            if after is not None:
                after(slot, result)
        index += 1
    return times, results, errors


class MemoHits:
    """The sweep's hit path: the harness ``Runner`` answering a spec it
    already simulated from its memo, as experiments sharing points do.

    Called after every timed run, it asks again for every spec answered
    so far, so the lookups are spread over the whole window.
    """

    def __init__(self, specs) -> None:
        self.specs = specs
        self.runner = Runner(preset=specs[0].preset)  # one preset a sweep
        self.answers: dict[int, RunResult] = {}
        self.latencies: list[list[float]] = [[] for _ in specs]
        self.wrong = 0

    def __call__(self, slot: int, result: RunResult) -> None:
        if slot not in self.answers:
            self.answers[slot] = result
            self.runner.cache.put(self.specs[slot], result)
        for answered, expected in self.answers.items():
            spec = self.specs[answered]
            for _ in range(HIT_REPEATS):
                t0 = time.perf_counter()
                got = self.runner.run(
                    spec.workload, model=spec.model, cores=spec.cores,
                    clock_ghz=spec.clock_ghz,
                    bandwidth_gbps=spec.bandwidth_gbps,
                    overrides=spec.overrides)
                self.latencies[answered].append(time.perf_counter() - t0)
                self.wrong += got is not expected

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    @property
    def failed(self) -> int:
        """Wrong answers, plus any lookup that simulated instead."""
        return self.wrong + self.runner.runs

    def per_spec_medians(self) -> list[float]:
        return [statistics.median(t) for t in self.latencies if t]


def traced_execute(spec: RunSpec, tracer: Tracer, rid: str,
                   profile: cProfile.Profile | None = None) -> RunResult:
    """``RunSpec.execute`` split into its public calls, one span each."""
    with tracer.span("sim.request", rid):
        with tracer.span("config.to_config", rid):
            config = spec.to_config()
        with tracer.span("workloads.build", rid):
            program = get_workload(spec.workload).build(
                MemoryModel.parse(spec.model), config, preset=spec.preset,
                overrides=spec.overrides)
        with tracer.span("core.assemble", rid):
            system = CmpSystem(config, program)
        with tracer.span("core.run", rid):
            if profile is not None:
                profile.enable()
            try:
                return system.run()
            finally:
                if profile is not None:
                    profile.disable()


def sweep_metrics(times, results) -> dict:
    """End-to-end sweep numbers from per-spec median wall times."""
    medians = [statistics.median(t) for t in times if t]
    ops: dict[int, int] = {}
    for slot, result in results:
        ops[slot] = common.ops_of(result)
    busy = sum(medians)
    return {
        "sim_ops_per_s": sum(ops.values()) / busy,
        "served_qps": len(medians) / busy,
        "miss_p50_ms": common.percentile(medians, 50) * 1e3,
        "miss_p90_ms": common.percentile(medians, 90) * 1e3,
    }


def _check(specs, results, reference) -> int:
    """Mismatches between timed results and the ground truth."""
    return sum(not common.same_result(result, reference[slot])
               for slot, result in results)


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec_list=None, reference=None) -> dict:
    """One benchmark run; returns the report (metrics without units).

    ``spec_list`` and ``reference`` replace the seeded sweep and the
    ground truth (the benchmark's own tests use small ones).
    """
    spec_list = (specgen.sim_specs(workload, seed) if spec_list is None
                 else spec_list)
    for name in common.HATCH_VARS:
        os.environ[name] = "1"
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(
            common.fresh_interpreter_setup_s(spec_list[0])
            for _ in range(common.SETUP_PROBES))
    if reference is None:
        reference = reference_results(spec_list)

    # A traced run times one untraced pass, then one traced pass.
    hits = None if trace else MemoHits(spec_list)
    times, results, errors = timed_sweep(spec_list, 0 if trace else seconds,
                                         after=hits)
    failed = errors + _check(spec_list, results, reference)
    attempted = errors + len(results)
    untraced = sweep_metrics(times, results)
    first = {}
    for slot, result in results:
        first.setdefault(slot, result)
    answered = [spec_list[slot] for slot in sorted(first)]
    answers = [first[slot] for slot in sorted(first)]

    if not trace:
        attempted += hits.attempted
        failed += hits.failed
        metrics.update(untraced)
        medians = hits.per_spec_medians()
        metrics["hit_p50_ms"] = common.percentile(medians, 50) * 1e3
        metrics["hit_p99_ms"] = common.percentile(medians, 99) * 1e3
        metrics["peak_rss_mb"] = common.self_peak_rss_mb()
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics}

    tracer = Tracer()
    traced_times, traced_results, _ = timed_sweep(
        spec_list, 0,
        execute=lambda i, spec: traced_execute(spec, tracer, f"sim{i}"))
    failed += _check(spec_list, traced_results, reference)
    attempted += len(traced_results)
    traced = sweep_metrics(traced_times, traced_results)

    profile = cProfile.Profile()
    profiled = [traced_execute(spec, Tracer(), f"prof{i}", profile)
                for i, spec in enumerate(spec_list[:PROFILED_SPECS])]
    failed += _check(spec_list, list(enumerate(profiled)), reference)
    attempted += len(profiled)

    scratch = common.WORK / f"sim-replay-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        metrics.update(layers.replay_layers(
            list(zip(answered, answers)), scratch, tracer))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    core_run_s = sum(tracer.seconds("core.run"))   # one pass
    metrics.update(common.engine_counts(answers))
    metrics.update(common.identity_counts(answers))
    metrics.update({
        "core.run_s": core_run_s,
        "sim.host_us_per_event": core_run_s / metrics["sim.events"] * 1e6,
        "workloads.build_s": sum(tracer.seconds("workloads.build")),
        "core.assemble_s": sum(tracer.seconds("core.assemble")),
        "trace.overhead_ops_per_s": (traced["sim_ops_per_s"]
                                     - untraced["sim_ops_per_s"]),
    })
    for package, share in package_self_shares(profile).items():
        metrics[f"{package}.self_share"] = share
    # The sweep never talks to the server, and runs no load generator.
    metrics.update(dict.fromkeys(SERVE_ONLY, 0.0))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "tracer": tracer}
