"""A finished campaign run's device is freed by reference counting.

Peak memory of a campaign is set by how many dead per-run systems wait
for a cyclic collection: each one holds its memory banks' planes.  The
device graph has no reference cycles (the JIT engine refers to its
system weakly, compiled blocks pop their functions out of their
namespaces, the FPU callback closes over components, and the DMA's and
system registers' back edges to the bus and caches are weak), so with
the cyclic collector off the system and its SRAM die as the run ends.
"""

import gc
import weakref

import pytest

from repro.core.config import CacheConfig, LeonConfig
from repro.fault.campaign import Campaign, CampaignConfig, prepare_warm_start


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _watch_systems(monkeypatch):
    """Weak references to every system a campaign builds, and to its
    SRAM storage."""
    watched = []

    def watch(system):
        watched.append(weakref.ref(system))
        watched.append(weakref.ref(system.memctrl.sram_memory))
        return system

    build_system = Campaign.build_system
    build_program = Campaign._build_program
    monkeypatch.setattr(Campaign, "build_system",
                        lambda self: watch(build_system(self)))
    monkeypatch.setattr(
        Campaign, "_build_program",
        lambda self, *a, **k: (lambda built: (watch(built[0]),) + built[1:])(
            build_program(self, *a, **k)))
    return watched


@pytest.mark.parametrize("program, leon", [
    ("iutest", None),
    ("paranoia", LeonConfig.leon_express()),
    ("random:7", LeonConfig.leon_express(icache=CacheConfig(size_bytes=64),
                                         dcache=CacheConfig(size_bytes=64))),
])
@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_finished_run_frees_its_system(program, leon, warm_start,
                                       monkeypatch, no_cyclic_gc):
    config = CampaignConfig(program=program, seed=5, flux=400.0,
                            fluence=500.0, instructions_per_second=20_000.0,
                            flush_period_instructions=4_000, leon=leon)
    warm = prepare_warm_start(config, checkpoints=8) if warm_start else None
    watched = _watch_systems(monkeypatch)
    result = Campaign(config).run(warm)
    assert result.instructions > 0
    assert watched, "the campaign built no system"
    assert all(ref() is None for ref in watched)
