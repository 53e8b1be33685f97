"""The simulator benchmark harness and its regression gate."""

import json
import os

import pytest

from repro.perf.bench import (SCHEMA, BenchCase, bench_case, compare_reports,
                              load_report, render_delta_table, render_report,
                              run_bench, save_report)

CASE = BenchCase("fir-cc-c1", "fir", "cc", 1)


def make_report(**case_overrides) -> dict:
    case = {
        "name": "fir-cc-c1", "workload": "fir", "model": "cc", "cores": 1,
        "preset": "tiny", "wall_s": 0.01, "slow_wall_s": 0.03,
        "speedup": 3.0, "events": 100, "slow_events": 900,
        "events_per_s": 30000.0, "sim_ops": 500000,
        "sim_ops_per_s": 5e7, "exec_time_fs": 10**12,
        "phase_iters_retired": 0, "phase_coverage": 0.0,
    }
    case.update(case_overrides)
    return {"schema": SCHEMA, "rev": "test", "preset": "tiny", "repeats": 1,
            "cases": [case]}


class TestBenchCase:
    def test_record_fields_and_consistency(self):
        record = bench_case(CASE, preset="tiny", repeats=1)
        assert record["name"] == "fir-cc-c1"
        assert record["wall_s"] > 0 and record["slow_wall_s"] > 0
        assert record["speedup"] == pytest.approx(
            record["slow_wall_s"] / record["wall_s"])
        # The quantum-extension elision: fast mode dispatches far fewer
        # events for the same simulated execution.
        assert record["slow_events"] >= 3 * record["events"]
        assert record["sim_ops"] > 0
        assert record["exec_time_fs"] > 0

    def test_phase_counters_populated_for_resident_case(self):
        record = bench_case(BenchCase("bitonic-cc-c1", "bitonic", "cc", 1),
                            preset="tiny", repeats=1)
        assert record["phase_iters_retired"] > 0
        assert 0.0 < record["phase_coverage"] <= 1.0

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_bench(cases=[CASE], repeats=0)

    def test_polluted_environment_does_not_cripple_fast_leg(self, monkeypatch):
        # An ambient REPRO_FASTPATH=0 must not leak into the "fast" leg,
        # silently deflating the measured speedup and corrupting the
        # gate.  The bench pins the switch both ways, so the
        # deterministic fast-leg event count is identical under a clean
        # and a polluted caller environment.
        case = BenchCase("bitonic-cc-c1", "bitonic", "cc", 1)
        clean = bench_case(case, preset="tiny", repeats=1)
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        polluted = bench_case(case, preset="tiny", repeats=1)
        assert polluted["events"] == clean["events"]
        assert polluted["slow_events"] == clean["slow_events"]
        assert polluted["phase_iters_retired"] == clean["phase_iters_retired"]
        assert polluted["exec_time_fs"] == clean["exec_time_fs"]
        # The ambient value itself survives the bench untouched.
        assert os.environ["REPRO_FASTPATH"] == "0"


class TestGate:
    def test_identical_reports_pass(self):
        assert compare_reports(make_report(), make_report()) == []

    def test_small_drift_tolerated(self):
        current = make_report(speedup=2.4)     # -20% vs 3.0, under 25%
        assert compare_reports(current, make_report()) == []

    def test_speedup_regression_fails(self):
        current = make_report(speedup=2.0)     # -33% vs 3.0
        problems = compare_reports(current, make_report())
        assert len(problems) == 1
        assert "speedup regressed" in problems[0]

    def test_event_growth_fails(self):
        current = make_report(events=200)      # +100% vs 100
        problems = compare_reports(current, make_report())
        assert len(problems) == 1
        assert "events grew" in problems[0]

    def test_missing_case_fails(self):
        current = make_report()
        current["cases"] = []
        problems = compare_reports(current, make_report())
        assert problems == ["fir-cc-c1: case missing from current report"]

    def test_threshold_configurable(self):
        current = make_report(speedup=2.4)
        assert compare_reports(current, make_report(),
                               max_regression=0.1) != []

    def test_noise_dominated_speedup_not_gated(self):
        # A baseline speedup near 1.0 means the case is miss-path bound
        # and the ratio is host noise; only the events check applies.
        baseline = make_report(speedup=1.05)
        current = make_report(speedup=0.6)
        assert compare_reports(current, baseline) == []

    def test_extra_current_cases_ignored(self):
        # Gating is driven by the baseline's case list: new benchmarks
        # can land before the baseline is regenerated.
        current = make_report()
        current["cases"].append(dict(current["cases"][0], name="new-case"))
        assert compare_reports(current, make_report()) == []


class TestReportIo:
    def test_save_load_roundtrip(self, tmp_path):
        report = make_report()
        path = tmp_path / "BENCH_test.json"
        save_report(report, path)
        assert load_report(path) == report
        # Stable, diff-friendly serialization: sorted keys, newline EOF.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_unknown_schema_rejected(self, tmp_path):
        report = make_report()
        report["schema"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    def test_render_mentions_every_case(self):
        out = render_report(make_report())
        assert "fir-cc-c1" in out
        assert "3.00x" in out
        assert "ph_cov" in out


class TestDeltaTable:
    def test_delta_against_baseline(self):
        current = make_report(sim_ops_per_s=6e7)   # +20% vs 5e7
        out = render_delta_table(current, make_report())
        assert "fir-cc-c1" in out
        assert "+20.0%" in out

    def test_missing_and_new_cases_marked(self):
        current = make_report()
        current["cases"] = [dict(current["cases"][0], name="new-case")]
        out = render_delta_table(current, make_report())
        assert "missing" in out
        assert "new" in out


class TestCli:
    def test_compare_exit_codes(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        good = tmp_path / "good.json"
        base = tmp_path / "base.json"
        save_report(make_report(), base)
        save_report(make_report(), good)
        assert main(["compare", str(good), str(base)]) == 0

        bad = tmp_path / "bad.json"
        save_report(make_report(speedup=1.0), bad)
        assert main(["compare", str(bad), str(base)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "speedup regressed" in out
