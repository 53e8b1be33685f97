"""Traced replay of a run's own request sequence through the result
layers: content keys, the result store, result records and serve frames.
"""

from __future__ import annotations

import statistics

from repro.grid.scheduler import RunOutcome
from repro.grid.store import ResultStore
from repro.results import RunResult
from repro.serve import protocol

#: Replays of the request sequence; per-call medians pool all of them.
REPLAY_ROUNDS = 3


def replay_layers(requests, store_root, tracer, put_keys=None) -> dict:
    """Time each layer call for every ``(spec, result)`` request.

    ``store_root`` is a store the run may scribble on (a copy, or an
    empty directory).  Requests whose content key is in ``put_keys`` (all
    of them when None) are written before they are read, as a miss
    settling would.  Returns the median time of each call; raises
    :class:`ValueError` when a layer hands back something other than
    what went in.
    """
    store = ResultStore(store_root)
    for round_index in range(REPLAY_ROUNDS):
        for index, (spec, result) in enumerate(requests):
            rid = f"replay{round_index}.{index}"
            with tracer.span("grid.content_key", rid):
                key = spec.content_key()
            if put_keys is None or key in put_keys:
                with tracer.span("grid.store_put", rid):
                    store.put(spec, result)
            with tracer.span("grid.store_get", rid):
                stored = store.get(spec)
            with tracer.span("results.to_dict", rid):
                record = result.to_dict()
            with tracer.span("results.from_dict", rid):
                rebuilt = RunResult.from_dict(record)
            outcome = RunOutcome(spec, key, "ok", "store", result=result)
            with tracer.span("serve.frame_encode", rid):
                line = protocol.encode(protocol.outcome_frame(rid, 0,
                                                              outcome))
            with tracer.span("serve.frame_decode", rid):
                frame = protocol.decode(line)
            if stored != result or rebuilt != result \
                    or frame["result"] != record:
                raise ValueError(f"layer round trip changed "
                                 f"{spec.label()}")

    def median(name: str, scale: float) -> float:
        values = tracer.seconds(name)
        return statistics.median(values) * scale if values else 0.0

    return {
        "grid.content_key_us": median("grid.content_key", 1e6),
        "grid.store_get_ms": median("grid.store_get", 1e3),
        "grid.store_put_ms": median("grid.store_put", 1e3),
        "results.to_dict_us": median("results.to_dict", 1e6),
        "results.from_dict_us": median("results.from_dict", 1e6),
        "serve.frame_encode_us": median("serve.frame_encode", 1e6),
        "serve.frame_decode_us": median("serve.frame_decode", 1e6),
    }
