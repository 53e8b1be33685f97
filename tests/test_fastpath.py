"""The execution-mode switch: fast mode bit-identical to the reference.

``REPRO_FASTPATH`` (:mod:`repro.sim.fastpath`) is the simulator's one
execution-mode switch.  On, every speed engine runs: the run-until-miss
fast path elides the core's own back-to-back resume events and retires
guaranteed-L1-hits inline, the block interpreter runs block templates
without generator round trips, and the phase engine retires resident
loops in closed form.  ``0`` is the
reference mode — one event per quantum, every descriptor materialized
into plain ops.  The contract is that *every* measured quantity —
timestamps, stall breakdowns, traffic, energy, stat counters — is
bit-identical across the two, with the ``stats["sim.*"]`` diagnostics
as the single permitted (and intended) difference.  These tests diff
full result records and whole experiment tables across both modes.
"""

import pytest

from perfbench.common import HATCH_VARS
from repro import run_workload
from repro.harness.experiments import figure2, figure5
from repro.harness.runner import Runner
from repro.sim.fastpath import fastpath_enabled
from repro.workloads import workload_names
from tests.conftest import comparable


def result_in_mode(monkeypatch, fastpath: bool, **kwargs):
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
    return run_workload(preset="tiny", **kwargs)


class TestFlag:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert fastpath_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert not fastpath_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert fastpath_enabled()


class TestBitIdentical:
    """Every shipped workload x model x {1, 4, 16} cores, fast vs reference.

    Sixteen cores is where quantum straddles send most phase iterations
    through the spill path and the block interpreter.
    """

    @pytest.mark.parametrize("workload,model,cores", [
        (workload, model, cores)
        for workload in workload_names()
        for model in ("cc", "str")
        for cores in (1, 4, 16)
    ])
    def test_full_record_matches_slow_mode(self, monkeypatch, workload,
                                           model, cores):
        fast = result_in_mode(monkeypatch, True, name=workload, model=model,
                              cores=cores)
        slow = result_in_mode(monkeypatch, False, name=workload, model=model,
                              cores=cores)
        assert comparable(fast) == comparable(slow)

    def test_prefetch_record_matches_slow_mode(self, monkeypatch):
        # Prefetched lines must not be claimed by the inline hit path
        # before their fill settles (the ``prefetched`` guard).
        fast = result_in_mode(monkeypatch, True, name="fir", model="cc",
                              cores=4, prefetch=True)
        slow = result_in_mode(monkeypatch, False, name="fir", model="cc",
                              cores=4, prefetch=True)
        assert comparable(fast) == comparable(slow)


class TestReferenceMode:
    """``REPRO_FASTPATH`` alone selects the mode of every engine.

    The benchmark's reference child still exports the per-engine
    switches ``REPRO_FASTPATH`` replaced (``HATCH_VARS``): they must be
    neither needed to select the reference mode nor able to demote an
    engine on their own.
    """

    @pytest.mark.parametrize("switches", [("REPRO_FASTPATH",), HATCH_VARS],
                             ids=["alone", "benchmark"])
    def test_fastpath_off_materializes_streams(self, monkeypatch, switches):
        for var in switches:
            monkeypatch.setenv(var, "0")
        result = run_workload("bitonic", model="str", cores=1,
                              preset="tiny")
        assert result.stats["sim.stream_iters_total"] > 0
        # The fast mode runs this single core in one event; the
        # reference mode yields once per quantum.
        assert result.stats["sim.events"] > 1

    @pytest.mark.parametrize("model,counter", [
        ("cc", "sim.phase_iters"),
        ("str", "sim.events"),
    ])
    def test_other_switches_are_ignored(self, monkeypatch, model, counter):
        for var in HATCH_VARS:
            monkeypatch.setenv(var, "0")
        monkeypatch.delenv("REPRO_FASTPATH")
        fast = run_workload("bitonic", model=model, cores=1, preset="tiny")
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        reference = run_workload("bitonic", model=model, cores=1,
                                 preset="tiny")
        # The fast mode retires phases and elides its own quantum
        # yields; a demoted engine would read as the reference does.
        assert fast.stats[counter] != reference.stats[counter]


class TestEventElision:
    def test_events_drop_at_least_3x_on_fir(self, monkeypatch):
        fast = result_in_mode(monkeypatch, True, name="fir", model="cc",
                              cores=1)
        slow = result_in_mode(monkeypatch, False, name="fir", model="cc",
                              cores=1)
        assert slow.stats["sim.events"] >= 3 * fast.stats["sim.events"]

    def test_slow_mode_counts_more_events(self, monkeypatch):
        fast = result_in_mode(monkeypatch, True, name="bitonic", model="cc",
                              cores=4)
        slow = result_in_mode(monkeypatch, False, name="bitonic", model="cc",
                              cores=4)
        assert slow.stats["sim.events"] > fast.stats["sim.events"]


class TestExperimentTables:
    """Whole experiment tables (restricted rows, tiny preset) across modes."""

    def rows_in_mode(self, monkeypatch, fastpath, build):
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
        return build(Runner(preset="tiny")).rows

    def test_figure2_rows_identical(self, monkeypatch):
        def build(runner):
            return figure2(runner, workloads=["fir"], core_counts=(1, 4))

        fast = self.rows_in_mode(monkeypatch, True, build)
        slow = self.rows_in_mode(monkeypatch, False, build)
        assert fast == slow

    def test_figure5_rows_identical(self, monkeypatch):
        def build(runner):
            return figure5(runner, workloads=["bitonic"], clocks=(0.8,))

        fast = self.rows_in_mode(monkeypatch, True, build)
        slow = self.rows_in_mode(monkeypatch, False, build)
        assert fast == slow
