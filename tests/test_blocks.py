"""Op blocks: template validation, replay semantics, and bit-identity.

An :class:`~repro.core.ops.OpBlock` is a promise that yielding
``template.at(delta)`` means exactly the same thing as yielding the
plain op tuples one by one with every memory address shifted by
``delta``.  The block interpreter's tight per-op loop is an
optimization over that meaning, so these tests pin both sides: the
template/validation API, and full-record bit-identity against the
``REPRO_FASTPATH=0`` reference mode, which materializes every block —
with ``stats["sim.*"]`` as the single permitted difference, same as the
fast-path contract.
"""

import pytest

from perfbench.common import HATCH_VARS
from repro import run_workload
from repro.config import MachineConfig
from repro.core.ops import (
    MAX_BLOCK_OPS,
    OpBlock,
    barrier_wait,
    block,
    compute,
    dma_get,
    dma_wait,
    load,
    local_load,
    lock_acquire,
    store,
    task_pop,
)
from repro.core.processor import BLK_COLD_SKIP
from repro.core.system import CmpSystem
from repro.harness.experiments import figure2, figure5
from repro.harness.runner import Runner
from repro.workloads.base import Program
from tests.conftest import comparable, set_switches, switch_modes


def run_threads(*threads, model="cc", **cfg_kwargs):
    cfg = MachineConfig(num_cores=len(threads), **cfg_kwargs).with_model(model)
    system = CmpSystem(cfg, Program("test", list(threads)))
    return system.run()


class TestFlag:
    """The block engine follows ``REPRO_FASTPATH`` and nothing else.

    Reference mode materializes every block into plain ops; the engine
    interprets it without.  Every retired switch is set against the
    expected outcome, so it cannot be what selects the mode.
    """

    BLOCKS = 4

    def materialized(self, monkeypatch):
        calls = []
        original = OpBlock.materialize

        def spy(blk, *args):
            calls.append(blk)
            return original(blk, *args)

        def thread(env):
            blk = block(compute(5), load(0x100, 32), store(0x100, 32))
            for _ in range(self.BLOCKS):
                yield blk.at(0)

        monkeypatch.setattr(OpBlock, "materialize", spy)
        run_threads(thread)
        return len(calls)

    def test_default_on(self, monkeypatch):
        set_switches(monkeypatch, None, "0")
        assert self.materialized(monkeypatch) == 0

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " NO "])
    def test_off_values(self, monkeypatch, value):
        set_switches(monkeypatch, value, "1")
        assert self.materialized(monkeypatch) == self.BLOCKS

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_on_values(self, monkeypatch, value):
        set_switches(monkeypatch, value, "0")
        assert self.materialized(monkeypatch) == 0


class TestValidation:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="at least one op"):
            block()

    def test_oversized_block_rejected(self):
        ops = [compute(1)] * (MAX_BLOCK_OPS + 1)
        with pytest.raises(ValueError, match="exceeds MAX_BLOCK_OPS"):
            block(*ops)

    @pytest.mark.parametrize("op", [
        task_pop(object()),
        barrier_wait(object()),
        lock_acquire(object()),
    ])
    def test_suspending_ops_rejected(self, op):
        with pytest.raises(ValueError, match="cannot appear inside a block"):
            block(compute(1), op)

    def test_nested_block_rejected(self):
        inner = block(compute(1))
        with pytest.raises(ValueError, match="cannot appear inside a block"):
            block(inner.at(0))

    def test_non_op_rejected(self):
        with pytest.raises(ValueError, match="not an op tuple"):
            block(["ld", 0, 32, 8])
        with pytest.raises(ValueError, match="unknown opcode"):
            block(("frobnicate", 1))

    def test_negative_shift_rejected(self):
        blk = block(load(0x100, 32))
        with pytest.raises(ValueError, match="negative"):
            blk.at(-0x200)
        # A negative delta that keeps every address non-negative is fine.
        assert blk.at(-0x100) == ("blk", blk, -0x100)


class TestMaterialize:
    def test_offset_shifts_memory_addresses_only(self):
        blk = block(
            compute(5),
            load(0x100, 32),
            local_load(0x40, 16),
            dma_get(3, 0x2000, 64),
            dma_wait(3),
        )
        ops = blk.materialize(0x1000)
        assert ops[0] == compute(5)                    # unchanged
        assert ops[1] == load(0x1100, 32)              # addr shifted
        assert ops[2] == local_load(0x40, 16)          # local: fixed space
        assert ops[3] == dma_get(3, 0x3000, 64)        # DMA addr shifted
        assert ops[4] == dma_wait(3)                   # tag untouched

    def test_zero_delta_is_the_template(self):
        blk = block(load(0x100, 32), store(0x200, 32))
        assert blk.materialize(0) == list(blk.ops)

    def test_start_resumes_mid_block(self):
        blk = block(compute(1), load(0x100, 32), store(0x200, 32))
        assert blk.materialize(0x10, start=2) == [store(0x210, 32)]


class TestReplayIdentity:
    """Blocks mean exactly their materialized per-op stream."""

    STRIDE = 128
    ITERS = 40

    def blocked_thread(self, env):
        blk = block(compute(20), load(0x1000, 64), compute(10),
                    store(0x1000, 64), name="kernel")
        for i in range(self.ITERS):
            yield blk.at(i * self.STRIDE)

    def unrolled_thread(self, env):
        blk = block(compute(20), load(0x1000, 64), compute(10),
                    store(0x1000, 64), name="kernel")
        for i in range(self.ITERS):
            yield from blk.materialize(i * self.STRIDE)

    def test_offset_stepping_matches_unrolled(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        blocked = run_threads(self.blocked_thread)
        plain = run_threads(self.unrolled_thread)
        assert comparable(blocked) == comparable(plain)
        # The stepped offsets really did walk distinct lines.
        assert blocked.l1_misses >= self.ITERS

    def test_straddling_a_miss_matches_escape_hatch(self, monkeypatch):
        # Iteration 0 runs cold (every line misses into the walker);
        # later iterations rerun the same lines warm (inline hits).  Both
        # paths must agree bit-for-bit with the reference interpreter.
        def thread(env):
            blk = block(compute(20), load(0x1000, 64), compute(10),
                        store(0x1000, 64))
            for _ in range(8):
                yield blk.at(0)

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        on = run_threads(thread)
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        off = run_threads(thread)
        assert comparable(on) == comparable(off)

    def test_cold_template_replayed_over_resident_lines(self, monkeypatch):
        # The first dispatch walks never-resident lines with zero inline
        # hits, so the template turns cold and the next BLK_COLD_SKIP
        # dispatches skip the inline probe.  Those dispatches replay the
        # lines the first one filled: the walker must serve the hits
        # exactly as the probe it replaces would have.
        def thread(env):
            blk = block(compute(5), load(0x1000, 64), compute(5),
                        store(0x2000, 32))
            for _ in range(BLK_COLD_SKIP + 2):
                yield blk.at(0)

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        system = CmpSystem(MachineConfig(num_cores=1).with_model("cc"),
                           Program("test", [thread]))
        walked = []
        load_line = system.hierarchy.load_line

        def spy(core, line, now):
            walked.append(line)
            return load_line(core, line, now)

        system.hierarchy.load_line = spy
        on = system.run()
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        off = run_threads(thread)
        assert comparable(on) == comparable(off)
        # Both loaded lines went through the walker on the cold dispatch
        # and on every skipped-probe replay; the last dispatch probed
        # again and hit inline.
        assert len(walked) == 2 * (1 + BLK_COLD_SKIP)

    def test_dma_block_matches_escape_hatch(self, monkeypatch):
        # DMA-bearing blocks never take the closed form; they must still
        # replay identically through the materialized path.
        def thread(env):
            env.local_store.alloc(256, "buf")
            blk = block(dma_get(1, 0x4000, 256), dma_wait(1),
                        local_load(0, 256), compute(50))
            for i in range(6):
                yield blk.at(i * 256)

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        on = run_threads(thread, model="str")
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        off = run_threads(thread, model="str")
        assert comparable(on) == comparable(off)


class TestFourModeIdentity:
    """``REPRO_FASTPATH`` x the retired block switch: four modes, one answer.

    The retired switch is ignored, so the four modes are the two of the
    fast-path contract, each set twice.
    """

    SWITCHES = HATCH_VARS[:2]

    @pytest.mark.parametrize("workload,model,cores", [
        ("fir", "cc", 1),
        ("fir", "str", 1),
        ("bitonic", "cc", 4),
        ("merge", "str", 4),
        ("art", "cc", 4),
        ("fem", "str", 4),
    ])
    def test_full_record_identical_in_all_modes(self, monkeypatch, workload,
                                                model, cores):
        records = [comparable(run_workload(workload, model=model,
                                           cores=cores, preset="tiny"))
                   for _ in switch_modes(monkeypatch, self.SWITCHES)]
        assert all(r == records[0] for r in records[1:])

    def rows_in_all_modes(self, monkeypatch, build):
        return [build(Runner(preset="tiny")).rows
                for _ in switch_modes(monkeypatch, self.SWITCHES)]

    def test_figure2_rows_identical(self, monkeypatch):
        rows = self.rows_in_all_modes(monkeypatch, lambda runner: figure2(
            runner, workloads=["fir"], core_counts=(1, 4)))
        assert all(r == rows[0] for r in rows[1:])

    def test_figure5_rows_identical(self, monkeypatch):
        rows = self.rows_in_all_modes(monkeypatch, lambda runner: figure5(
            runner, workloads=["bitonic"], clocks=(0.8,)))
        assert all(r == rows[0] for r in rows[1:])
