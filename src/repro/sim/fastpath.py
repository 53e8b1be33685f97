"""The execution-mode switch: the fast path and its engines, or the reference.

The processor's hot loop (see :mod:`repro.core.processor`) can execute
consecutive compute operations and guaranteed-L1-hit accesses without
re-entering the event queue, falling back to the event-driven slow path
only at misses, synchronization, DMA waits, and pending-event boundaries.
The fast path is *bit-identical* to the slow path by construction (the
elided events are the core's own back-to-back resume events, which the
kernel would pop next in any case) — but because "identical by
construction" is a claim worth distrusting, the escape hatch

    REPRO_FASTPATH=0 python -m repro ...

forces the original one-event-per-quantum execution, and the invariance
tests in ``tests/test_fastpath.py`` diff full result rows across both
modes.

The same switch gates every descriptor engine layered on top:

* the block interpreter — :class:`repro.core.ops.OpBlock` templates
  replayed in a tight inner loop without generator round trips;
* the phase engine — :class:`repro.core.ops.OpPhase` runs of K block
  iterations at a constant address stride, retired in one vectorized
  step while every touched line stays a guaranteed hit;
* the DMA engine's renewal and fused tiers — all-L2-hit DMA commands
  (such as those of :class:`repro.core.ops.OpStream` double-buffer
  loops, which materialize in chunks in both modes) served by a fused
  renewal loop over the resource calendars.

So there are exactly two modes to keep identical.  With the switch on
(the default) every engine runs; ``REPRO_FASTPATH=0`` is the reference
mode — one event per quantum, every block and phase materialized back
into the plain per-op stream, every DMA granule
walked through the ordinary resource methods — which is the seed's
execution model, byte for byte.  Every result field except
``stats["sim.*"]`` diagnostics must match across the two.

The flag is read when a system is constructed, not at import time, so
tests can toggle it per-run with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

#: Values of ``REPRO_FASTPATH`` that select the reference mode.
_OFF_VALUES = frozenset({"0", "false", "off", "no"})


def fastpath_enabled() -> bool:
    """True unless ``REPRO_FASTPATH`` is set to 0/false/off/no."""
    # Sanctioned construction-time read: the hierarchy resolves this once
    # when the system is built, never mid-run.
    raw = os.environ.get("REPRO_FASTPATH", "1")  # repro-lint: disable=REPRO007
    return raw.strip().lower() not in _OFF_VALUES

