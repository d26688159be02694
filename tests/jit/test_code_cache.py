"""JIT coverage on a small-cache device and the per-process code cache.

Blocks are discovered from the memory image, so a 64-byte i-cache no
longer keeps the JIT off; compiled code is cached per process by
``(configuration, pc, block words)``, so a second system of the same
configuration binds it without compiling, and changed words at the
same pc never reuse stale code.
"""

import pytest

from repro.core.config import CacheConfig, LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import CampaignConfig, prepare_warm_start
from repro.jit import blocks
from repro.programs.builder import ProgramHarness
from repro.programs.randgen import build_random
from repro.state import Snapshot

#: The random:7 static-masking device: LEON-Express with 64-byte caches.
SMALL = LeonConfig.leon_express(icache=CacheConfig(size_bytes=64),
                                dcache=CacheConfig(size_bytes=64))


@pytest.fixture(scope="module")
def warm():
    config = CampaignConfig(
        program="random:7", flux=400.0, fluence=1.0e5,
        instructions_per_second=10.0, beam_delay_s=400.0,
        beam_tail_s=150.0, flush_period_instructions=4_000, leon=SMALL)
    return prepare_warm_start(config, checkpoints=8)


def _restored(warm):
    """A fresh system at the warm snapshot, loop heads primed, as a
    warm-started campaign run sets it up."""
    system = LeonSystem(SMALL, jit=True)
    system.restore(Snapshot.from_bytes(warm.snapshot))
    system.jit.prime(warm.ace.loop_heads)
    return system


def _coverage(system, instructions):
    run = system.run_fast(instructions)
    assert run.instructions == instructions
    return system.jit.stats["burst_instructions"] / instructions


@pytest.fixture
def counted_compiles(monkeypatch):
    """Every ``compile()`` the code generator makes, by filename."""
    calls = []

    def counting(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(blocks, "compile", counting, raising=False)
    return calls


def test_restored_small_cache_system_runs_compiled(warm):
    """From a warm snapshot, chain priming grows the loop from its
    primed head and compiled refills keep it compiled: at least 80% of
    the instructions run in bursts on a 16-word i-cache."""
    system = _restored(warm)
    assert _coverage(system, 2_500) >= 0.8
    stats = system.jit.stats
    assert stats["checked_entries"] > 0 and stats["refills"] > 0
    assert stats["verify_drops"] == 0


def test_second_system_reuses_cached_code(warm, counted_compiles):
    first = _restored(warm)
    first.run_fast(2_500)
    assert first.jit.stats["compiles"] > 0
    counted_compiles.clear()
    second = _restored(warm)
    assert _coverage(second, 2_500) >= 0.8
    stats = second.jit.stats
    assert stats["code_cache_hits"] == stats["compiles"] > 0
    assert counted_compiles == []
    assert second.state_digest() == first.state_digest()


def test_other_words_at_a_cached_pc_never_reuse_stale_code():
    """The same pc holding different words is a different cache key: a
    program loaded with one word changed compiles afresh and matches
    interpretation."""
    config = LeonConfig.fault_tolerant()
    program, _checksum = build_random(config, seed=7, iterations=1_000_000)
    compiled = LeonSystem(config, jit=True)
    ProgramHarness(compiled, program)
    compiled.run_fast(20_000)
    hot = max((block for block in compiled.jit.blocks.values() if block),
              key=lambda block: len(block.verify))
    # Flip the immediate of a straight-line word of a hot block
    # (add/xor/... with simm13 -- still a supported ALU op).
    address, word = next((addr, word) for addr, word in hot.verify[:-2]
                         if word >> 30 == 2 and word & 0x2000)
    patched = word ^ 0x1

    systems = []
    for jit in (False, True):
        system = LeonSystem(config, jit=jit)
        ProgramHarness(system, program)
        system.write_word(address, patched)
        systems.append(system)
    interp, reloaded = systems
    for _ in range(3):
        r0 = interp.run_fast(10_000)
        r1 = reloaded.run_fast(10_000)
        assert (r1.instructions, r1.cycles, r1.pc) == \
            (r0.instructions, r0.cycles, r0.pc)
        assert reloaded.state_digest() == interp.state_digest()
        assert reloaded.perf.capture() == interp.perf.capture()
    stats = reloaded.jit.stats
    assert stats["code_cache_hits"] < stats["compiles"]
    covering = [block for block in reloaded.jit.blocks.values()
                if block and address in block.addresses]
    assert covering
    for block in covering:
        assert dict(block.verify)[address] == patched
