"""Shared test fixtures: keep the result store hermetic.

Experiment CLI commands persist results under ``$REPRO_STORE`` (or
``.repro-cache/``) by default.  Tests must never read results produced
by a previous checkout or leak records into the developer's working
tree, so every test session gets its own throwaway store directory
unless a test overrides it explicitly.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_store(tmp_path_factory):
    import os

    store_dir = tmp_path_factory.mktemp("repro-store")
    previous = os.environ.get("REPRO_STORE")
    os.environ["REPRO_STORE"] = str(store_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_STORE", None)
    else:
        os.environ["REPRO_STORE"] = previous


def comparable(result) -> dict:
    """The full result record minus the permitted ``sim.*`` diagnostics.

    ``stats["sim.*"]`` counts the simulator's own work (events, phase
    and stream iterations retired), which is mode-dependent by design;
    every other field must be bit-identical across execution modes.
    """
    record = result.to_dict()
    record["stats"] = {k: v for k, v in record["stats"].items()
                       if not k.startswith("sim.")}
    return record


def retired_switches() -> tuple:
    """The per-engine switches ``REPRO_FASTPATH`` replaced.

    The simulator ignores them; the benchmark's reference child still
    exports them (``perfbench.common.HATCH_VARS``), so tests set them to
    show that they select nothing.
    """
    from perfbench.common import HATCH_VARS

    return tuple(var for var in HATCH_VARS if var != "REPRO_FASTPATH")


def set_switches(monkeypatch, fastpath, retired) -> None:
    """Set ``REPRO_FASTPATH`` (``None``: unset) and every retired switch."""
    for var in retired_switches():
        monkeypatch.setenv(var, retired)
    if fastpath is None:
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_FASTPATH", fastpath)


def switch_modes(monkeypatch, switches):
    """Set every on/off combination of ``switches`` in turn, one per step."""
    import itertools

    for values in itertools.product(("1", "0"), repeat=len(switches)):
        for var, value in zip(switches, values):
            monkeypatch.setenv(var, value)
        yield values
