"""Run one benchmark workload and print its result as a JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-multicore --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run, prints every per-layer
metric and writes its spans to ``.perfbench/trace-<workload>-<seed>.json``.
A human-readable report goes to standard error; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: serve-mixed runs by hand only; BENCHMARK.json leaves it out (see
#: README.md: its latency spread on a 2-vCPU host exceeds any bound).
WORKLOADS = ("sim-multicore", "sim-unicore", "serve-mixed")
#: The seed used while writing the benchmark, and the one held out to
#: confirm a claim made on it.
DEFAULT_SEED = 1
HELDOUT_SEED = 20070609


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """The workload's report: attempted, failed and unit-less metrics."""
    from perfbench import servebench, simbench

    if workload == "serve-mixed":
        return servebench.run(seed, seconds, trace)
    return simbench.run(workload, seed, seconds, trace)


def result_line(report: dict, benchmark: dict, trace: bool) -> dict:
    """The final JSON object; its metrics are exactly BENCHMARK.json's."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    metrics = report["metrics"]
    if trace:
        metrics["error_rate"] = report["failed"] / report["attempted"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(
            f"metrics disagree with BENCHMARK.json: missing "
            f"{sorted(set(names) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(names))}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def write_trace(report: dict, workload: str, seed: int) -> Path:
    """Write the traced run's spans; a document that fails validation
    counts as one failed operation."""
    from perfbench import common
    from repro.obs.chrometrace import save_chrome_trace, validate_chrome_trace

    doc = report.pop("tracer").chrome_trace()
    path = common.WORK / f"trace-{workload}-{seed}.json"
    save_chrome_trace(doc, path)
    problems = validate_chrome_trace(json.loads(path.read_text()))
    for problem in problems[:10]:
        print(f"perfbench: trace: {problem}", file=sys.stderr)
    report["attempted"] += 1
    report["failed"] += bool(problems)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    benchmark = load_benchmark()
    common.WORK.mkdir(exist_ok=True)
    tempfile.tempdir = str(common.WORK)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.trace:
        path = write_trace(report, args.workload, args.seed)
        print(f"perfbench: trace written to {path}", file=sys.stderr)
    line = result_line(report, benchmark, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    if args.trace:
        print(f"perfbench: tracing overhead (traced - untraced "
              f"sim_ops_per_s): "
              f"{line['metrics']['trace.overhead_ops_per_s']['value']:.4g}"
              f" ops/s", file=sys.stderr)
    elif "lag_p99_ms" in report:
        print(f"perfbench: load generator p99 lag "
              f"{report['lag_p99_ms']:.3f} ms", file=sys.stderr)
    print(f"perfbench: {line['attempted']} attempted, {line['failed']} "
          f"failed", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
