"""Differential fuzz: compiled execution is byte-identical to interpreted.

Every test runs the same program on two identically-configured systems --
trace JIT enabled and disabled -- and asserts the *complete* observable
surface matches: architectural ``state_digest``, every performance and
error counter, and the telemetry event stream.  The corpus covers the
three paper programs, seeded random programs, mid-run fault strikes into
cells covered by compiled blocks, latent strikes outside every block's
footprint (which must not keep the JIT off), stuck-at reasserts, the
snapshot/restore and stop-pc edges of ``run_fast``, and the i-cache
miss path: small caches and periodic flushes, where compiled bursts
refill lines themselves, with strikes, EDAC errors, rewritten code and
annulled slots at the line boundaries the refills cross.
"""

import dataclasses

import pytest

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import CampaignConfig
from repro.fault.executor import CampaignExecutor, expand_runs
from repro.fault.injector import FaultInjector
from repro.programs import build_cncf, build_iutest, build_paranoia
from repro.programs.builder import ProgramHarness
from repro.programs.builder import TestLayout as ResultLayout
from repro.programs.builder import build_test_program
from repro.programs.randgen import build_random
from repro.telemetry import MemorySink, Telemetry

#: Campaign settings small enough for the test budget, large enough to
#: schedule strikes inside the beam window.
FAST = dict(flux=400.0, fluence=500.0, instructions_per_second=20_000.0)


def _boot(builder, config, jit):
    sink = MemorySink()
    system = LeonSystem(config, telemetry=Telemetry(sink), jit=jit)
    built = builder(config)
    program = built[0] if isinstance(built, tuple) else built
    ProgramHarness(system, program)
    return system, sink


def _observables(system, sink):
    return (system.state_digest(), system.perf.capture(),
            system.errors.capture(), system.bus.capture(), sink.events)


def _assert_pair_equal(interp, jit_sys):
    (d0, p0, e0, b0, t0), (d1, p1, e1, b1, t1) = interp, jit_sys
    assert d1 == d0
    assert p1 == p0
    assert e1 == e0
    assert b1 == b0
    assert t1 == t0


def _run_differential(builder, config, *, chunks=(60_000, 60_000, 60_000)):
    """Run both systems chunk by chunk, comparing after every chunk so a
    divergence is caught near where it happens, not at the end."""
    interp, interp_sink = _boot(builder, config, False)
    compiled, compiled_sink = _boot(builder, config, True)
    for chunk in chunks:
        r0 = interp.run_fast(chunk)
        r1 = compiled.run_fast(chunk)
        assert (r1.instructions, r1.cycles, r1.stop_reason, r1.pc) == \
            (r0.instructions, r0.cycles, r0.stop_reason, r0.pc)
        _assert_pair_equal(_observables(interp, interp_sink),
                           _observables(compiled, compiled_sink))
    assert compiled.jit.stats["bursts"] > 0, \
        "differential run never exercised a compiled burst"
    return compiled


def test_iutest_equivalence():
    config = LeonConfig.fault_tolerant()
    compiled = _run_differential(
        lambda c: build_iutest(c, iterations=1_000_000), config)
    assert compiled.jit.stats["compiles"] > 0


def test_cncf_equivalence():
    config = LeonConfig.leon_express()
    _run_differential(lambda c: build_cncf(c, iterations=1_000_000), config,
                      chunks=(80_000, 80_000))


def test_paranoia_equivalence():
    config = LeonConfig.leon_express()
    _run_differential(lambda c: build_paranoia(c, iterations=1_000_000),
                      config, chunks=(80_000, 80_000))


@pytest.mark.parametrize("seed", [7, 99, 123, 20260808])
def test_random_program_equivalence(seed):
    config = LeonConfig.fault_tolerant()
    _run_differential(
        lambda c: build_random(c, seed=seed, iterations=1_000_000),
        config, chunks=(50_000, 50_000))


# -- mid-run strikes -----------------------------------------------------------


def _strike_sites(injector):
    """A deterministic spread of strikes across every on-chip target,
    including cells the hot blocks cover (i-cache words, register file,
    d-cache, flip-flops)."""
    sites = []
    for name in ("icache-data", "icache-tag", "dcache-data", "dcache-tag",
                 "regfile", "flipflops"):
        bits = injector.target(name).bits
        sites.extend((name, (bits * k) // 7) for k in (1, 3, 5))
    return sites


def test_strikes_into_covered_cells_equivalent():
    """SEUs landing mid-campaign -- after blocks are hot and compiled --
    must produce identical detection, correction, and digests: the strike
    either fails a burst entry guard, fails word verification (dropping
    the block), or lands in state the burst writes back exactly."""
    config = LeonConfig.fault_tolerant()
    builder = lambda c: build_iutest(c, iterations=1_000_000)
    interp, interp_sink = _boot(builder, config, False)
    compiled, compiled_sink = _boot(builder, config, True)
    pair = ((interp, interp_sink), (compiled, compiled_sink))
    injectors = [FaultInjector(system) for system, _sink in pair]
    for system, _sink in pair:
        system.run_fast(40_000)  # get the patrol loop hot and compiled
    assert compiled.jit.stats["bursts"] > 0
    for name, flat_bit in _strike_sites(injectors[0]):
        for injector in injectors:
            injector.inject(name, flat_bit)
        r0 = interp.run_fast(8_000)
        r1 = compiled.run_fast(8_000)
        assert (r1.instructions, r1.cycles, r1.pc) == \
            (r0.instructions, r0.cycles, r0.pc), (name, flat_bit)
        _assert_pair_equal(_observables(interp, interp_sink),
                           _observables(compiled, compiled_sink))


def test_stuck_at_reassert_equivalent():
    """A stuck cell re-asserted at chunk boundaries keeps deopting or
    guard-failing the compiled path; the readout must not change."""
    config = LeonConfig.fault_tolerant()
    builder = lambda c: build_iutest(c, iterations=1_000_000)
    interp, interp_sink = _boot(builder, config, False)
    compiled, compiled_sink = _boot(builder, config, True)
    pair = ((interp, interp_sink), (compiled, compiled_sink))
    injectors = [FaultInjector(system) for system, _sink in pair]
    for system, _sink in pair:
        system.run_fast(40_000)
    for injector in injectors:
        injector.add_persistent("regfile", 40 * 32 + 3, 1)
        injector.add_persistent("dcache-data", 129, 0)
    for _ in range(4):  # chunk boundaries: reassert, then run
        for injector in injectors:
            injector.reassert_persistent()
        r0 = interp.run_fast(6_000)
        r1 = compiled.run_fast(6_000)
        assert (r1.instructions, r1.cycles, r1.pc) == \
            (r0.instructions, r0.cycles, r0.pc)
        _assert_pair_equal(_observables(interp, interp_sink),
                           _observables(compiled, compiled_sink))


# -- campaign-level identity ---------------------------------------------------


def _comparable(results):
    out = []
    for result in results:
        fields = dataclasses.asdict(result)
        fields.pop("wall_seconds")
        out.append(fields)
    return out


@pytest.mark.parametrize("model", ["seu", "stuck-at-1", "sefi"])
def test_campaign_results_jit_invariant(model, monkeypatch):
    """Full campaigns -- scheduled beam strikes, golden grading, early
    exits -- report byte-identical results with the JIT on and off."""
    configs = expand_runs(CampaignConfig(program="iutest", seed=5,
                                         fault_model=model, **FAST), runs=2)
    monkeypatch.setenv("REPRO_JIT", "0")
    off = CampaignExecutor(1).run_many(configs)
    monkeypatch.setenv("REPRO_JIT", "1")
    on = CampaignExecutor(1).run_many(configs)
    assert _comparable(on) == _comparable(off)


# -- run_fast edges ------------------------------------------------------------


def _warm_system(jit):
    config = LeonConfig.fault_tolerant()
    system = LeonSystem(config, jit=jit)
    program, _ = build_iutest(config, iterations=1_000_000)
    ProgramHarness(system, program)
    system.run_fast(40_000)
    return system


@pytest.mark.parametrize("jit", [False, True])
def test_run_fast_entry_pc_equals_stop_pc_is_zero_progress(jit):
    """A run whose entry PC already equals ``stop_pc`` (batched grading
    landing exactly on a boundary) must terminate immediately with
    zero-progress semantics -- no wedge, no miscount, no state change."""
    system = _warm_system(jit)
    before = system.state_digest()
    perf = system.perf.capture()
    result = system.run_fast(1_000, stop_pc=system.special.pc)
    assert result.stop_reason == "stop-pc"
    assert result.instructions == 0
    assert result.steps == 0
    assert result.pc == system.special.pc
    assert system.state_digest() == before
    assert system.perf.capture() == perf
    # The budget check precedes the stop compare: a zero budget reports
    # "budget", still with zero progress.
    zero = system.run_fast(0, stop_pc=system.special.pc)
    assert zero.stop_reason == "budget"
    assert zero.instructions == 0


def test_run_fast_stop_pc_inside_compiled_block():
    """A stop_pc covered by a hot compiled block must stop exactly there:
    the engine refuses bursts whose footprint contains it."""
    scout = _warm_system(False)
    visited = set()
    for _ in range(4_000):  # where the patrol loop goes next
        scout.step()
        visited.add(scout.special.pc)
    compiled = _warm_system(True)
    inner = {addr
             for block in compiled.jit.blocks.values() if block is not False
             for addr in block.addresses - {block.pc}} & visited
    assert inner, "no compiled block interior on the upcoming path"
    inner = min(inner)
    interp = _warm_system(False)
    r0 = interp.run_fast(30_000, stop_pc=inner)
    r1 = compiled.run_fast(30_000, stop_pc=inner)
    assert (r1.instructions, r1.cycles, r1.stop_reason, r1.pc) == \
        (r0.instructions, r0.cycles, r0.stop_reason, r0.pc)
    assert r1.stop_reason == "stop-pc" and r1.pc == inner
    assert compiled.state_digest() == interp.state_digest()


def test_snapshot_restore_invalidates_compiled_blocks():
    """Restore rebinds component internals; stale closures must never
    run.  After a restore the system re-detects its hot loops and still
    matches interpreted execution."""
    compiled = _warm_system(True)
    assert compiled.jit.blocks
    snap = compiled.snapshot()
    compiled.run_fast(10_000)
    compiled.restore(snap)
    assert compiled.jit.blocks == {} and compiled.jit.counts == {}
    interp = _warm_system(False)
    r0 = interp.run_fast(30_000)
    r1 = compiled.run_fast(30_000)
    assert (r1.instructions, r1.cycles) == (r0.instructions, r0.cycles)
    assert compiled.state_digest() == interp.state_digest()


def test_repro_jit_env_disables(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    assert LeonSystem(LeonConfig.fault_tolerant()).jit is None
    monkeypatch.delenv("REPRO_JIT")
    assert LeonSystem(LeonConfig.fault_tolerant()).jit is not None


# -- latent upsets outside the block footprint ---------------------------------

#: Two hot blocks in the window ``save`` opens (not window 0): an
#: ALU-only inner loop and a load/store tail.  ``DATA`` is the only
#: d-cache line ever loaded; ``DATA + 0x40`` is only ever stored to (no
#: write-allocate), so its tag is probed by the store and nothing else.
#: ``rd %asr17`` makes the interpreter check %l1 as a source operand
#: although the compiled closure never reads it.
_LOOP_BODY = """
main:
    save %sp, -96, %sp
    set DATA, %o0
    mov 0, %l0
outer:
    mov 40, %l6
inner:
    add %l0, %l6, %l0
    xor %l0, 0x55, %l2
    sll %l2, 1, %l2
    subcc %l6, 1, %l6
    bne inner
    add %l2, %l0, %l3
    ld [%o0], %l4
    add %l4, %l3, %l4
    st %l4, [%o0]
    .word 0xab444000  ! rd %asr17, %l5 (no assembler syntax for asr17)
    st %l2, [%o0 + 0x40]
    ba outer
    nop
"""


def _loop_pair():
    """JIT-off and JIT-on systems running the loop, hot and compiled."""
    config = LeonConfig.fault_tolerant()
    builder = lambda c: build_test_program(_LOOP_BODY, c)
    pair = [_boot(builder, config, jit) for jit in (False, True)]
    for system, _sink in pair:
        system.run_fast(20_000)
    assert pair[1][0].jit.stats["bursts"] > 0
    return pair


def _site(system, name):
    """Word index of a cell the loop never reads or writes."""
    layout = ResultLayout.for_config(system.config)
    if name.startswith("icache"):
        # The trap table is never fetched in a trap-free run.
        line = system.icache._index(layout.base + 0x800)
        return line if name == "icache-tag" else line * 4 + 1
    if name.startswith("dcache"):
        line = system.dcache._index(layout.data + 0x200)
        return line if name == "dcache-tag" else line * 4 + 2
    # %l2 of a window the loop never enters.
    return system.regfile.physical_index(_loop_window(system) + 4, 18)


def _loop_window(system):
    cwp = system.iu.r.psr.cwp
    assert cwp != 0, "the loop must run outside window 0"
    return cwp


def _strike(pair, name, word, bit=5):
    for system, _sink in pair:
        injector = FaultInjector(system)
        injector.inject(name, word * injector.target(name).bits_per_word + bit)


def _run_pair(pair, chunk=20_000):
    (interp, interp_sink), (compiled, compiled_sink) = pair
    r0 = interp.run_fast(chunk)
    r1 = compiled.run_fast(chunk)
    assert (r1.instructions, r1.cycles, r1.pc) == \
        (r0.instructions, r0.cycles, r0.pc)
    _assert_pair_equal(_observables(interp, interp_sink),
                       _observables(compiled, compiled_sink))


def _latent(pair, name, word):
    return all(FaultInjector(system).is_latent(name, word)
               for system, _sink in pair)


@pytest.mark.parametrize("name", ["icache-data", "icache-tag",
                                  "dcache-data", "regfile"])
def test_latent_strike_outside_footprint_keeps_bursts(name):
    """An upset the loop never touches stays latent under interpretation;
    compiled bursts must keep running beside it, byte-identically."""
    pair = _loop_pair()
    stats = pair[1][0].jit.stats
    word = _site(pair[0][0], name)
    _strike(pair, name, word)
    bursts = stats["bursts"]
    _run_pair(pair)
    assert _latent(pair, name, word)
    assert stats["bursts"] > bursts, "latent upset kept the JIT off"
    assert stats["suspect_rejects"] == 0


def test_accumulated_strikes_scope_refusals_to_the_footprint():
    """Strikes pile up in all five suspect-bearing arrays.  Only a suspect
    in the block's own registers (at the entry CWP) or a d-cache tag
    suspect under a store block refuses a burst; the refusal counter
    makes any over-refusal visible."""
    pair = _loop_pair()
    system = pair[0][0]
    stats = pair[1][0].jit.stats
    latent = []
    for name in ("icache-data", "icache-tag", "dcache-data", "regfile"):
        latent.append((name, _site(system, name)))
        _strike(pair, *latent[-1])
        bursts = stats["bursts"]
        _run_pair(pair)
        assert stats["bursts"] > bursts, name
    # %l0 is in the loop's footprint, but this copy lives in another
    # window.
    window = _loop_window(system)
    latent.append(("regfile", system.regfile.physical_index(window + 2, 16)))
    _strike(pair, *latent[-1])
    bursts = stats["bursts"]
    _run_pair(pair)
    assert stats["bursts"] > bursts
    assert stats["suspect_rejects"] == 0
    assert all(_latent(pair, *site) for site in latent)

    # %l1 of the loop's window, checked only by ``rd %asr17``, the fourth
    # instruction of the store tail.  A block covering it is refused at
    # most once per tail instruction the interpreter steps through; the
    # ``rd`` operand check then corrects the register and bursts resume.
    live = system.regfile.physical_index(window, 17)
    _strike(pair, "regfile", live)
    _run_pair(pair)
    assert not _latent(pair, "regfile", live)
    assert system.errors.rfe == 1
    rejects = stats["suspect_rejects"]
    assert 1 <= rejects <= 4
    bursts = stats["bursts"]
    _run_pair(pair)
    assert stats["bursts"] > bursts
    assert stats["suspect_rejects"] == rejects

    # A latent d-cache tag suspect refuses the store block on every
    # entry; the ALU-only inner loop keeps bursting.
    latent.append(("dcache-tag", _site(system, "dcache-tag")))
    _strike(pair, *latent[-1])
    bursts = stats["bursts"]
    _run_pair(pair)
    assert stats["bursts"] > bursts
    assert stats["suspect_rejects"] > rejects
    assert all(_latent(pair, *site) for site in latent)


def test_word_store_into_suspect_dcache_tag():
    """A word store probes its line's tag: with the tag suspect it must
    count the parity error and invalidate the line exactly as the
    interpreter does, then bursts resume."""
    pair = _loop_pair()
    system = pair[0][0]
    stats = pair[1][0].jit.stats
    layout = ResultLayout.for_config(system.config)
    line = system.dcache._index(layout.data + 0x40)
    _strike(pair, "dcache-tag", line)
    _run_pair(pair, chunk=2_000)
    assert not _latent(pair, "dcache-tag", line)
    assert system.errors.dte == 1
    assert stats["suspect_rejects"] > 0
    bursts = stats["bursts"]
    _run_pair(pair)
    assert stats["bursts"] > bursts


# -- the i-cache miss path -----------------------------------------------------

#: Instructions between the periodic cache flushes of the miss corpus.
FLUSH_PERIOD = 4_000


def _small(config, size):
    """``config`` with both caches shrunk to ``size`` bytes, parity kept
    (None: unchanged)."""
    if size is None:
        return config
    return config.with_changes(
        icache=dataclasses.replace(config.icache, size_bytes=size),
        dcache=dataclasses.replace(config.dcache, size_bytes=size))


def _pair(builder, config):
    return [_boot(builder, config, jit) for jit in (False, True)]


def _run_flushed(pair, total, period=FLUSH_PERIOD):
    """Run in flush-period chunks, flushing both caches of both systems
    after each as a campaign's periodic flush does, comparing always."""
    for _ in range(total // period):
        _run_pair(pair, period)
        for system, _sink in pair:
            system.icache.flush()
            system.dcache.flush()
        _run_pair(pair, 0)


_MISS_PROGRAMS = {
    "random7": (lambda c: build_random(c, seed=7, iterations=1_000_000),
                LeonConfig.fault_tolerant),
    "random123": (lambda c: build_random(c, seed=123, iterations=1_000_000),
                  LeonConfig.fault_tolerant),
    "iutest": (lambda c: build_iutest(c, iterations=1_000_000),
               LeonConfig.fault_tolerant),
    "paranoia": (lambda c: build_paranoia(c, iterations=1_000_000),
                 LeonConfig.leon_express),
}


@pytest.mark.parametrize("size", [64, 128, 256, None])
@pytest.mark.parametrize("program", sorted(_MISS_PROGRAMS))
def test_miss_path_equivalence(program, size):
    """Compiled refills -- every fetch on a small cache, every hot block
    after a flush on the default one -- are byte-identical to the
    interpreter's misses, down to the bus accounting."""
    builder, device = _MISS_PROGRAMS[program]
    pair = _pair(builder, _small(device(), size))
    _run_flushed(pair, 6 * FLUSH_PERIOD)
    stats = pair[1][0].jit.stats
    assert stats["checked_entries"] > 0 and stats["refills"] > 0, stats


def _random7_small():
    pair = _pair(_MISS_PROGRAMS["random7"][0],
                 _small(LeonConfig.fault_tolerant(), 64))
    _run_pair(pair, 8_000)
    stats = pair[1][0].jit.stats
    assert stats["refills"] > 0
    return pair, stats


def test_icache_strikes_in_lines_about_to_refill():
    """On a 64-byte i-cache every line of the loop is refilled each
    pass: a struck tag must refuse the compiled refill (the interpreter
    counts the parity error), a struck data word is either detected or
    overwritten by the refill, identically in both tiers."""
    pair, stats = _random7_small()
    icache = pair[0][0].icache
    for index in range(icache.lines):
        _strike(pair, "icache-tag", index, bit=index)
        _run_pair(pair, 1_000)
        word = index * icache.words_per_line + index % icache.words_per_line
        _strike(pair, "icache-data", word, bit=3)
        _run_pair(pair, 1_000)
    assert pair[0][0].errors.ite > 0
    bursts = stats["bursts"]
    _run_pair(pair, 2_000)
    assert stats["bursts"] > bursts


def _unresident_block_word(system):
    """A word of a compiled loop block that is not in the i-cache now."""
    for block in system.jit.blocks.values():
        if block is False:
            continue
        for addr, _word in block.verify:
            if system.icache.peek_word(addr) is None:
                return addr
    raise AssertionError("every block word is resident")


@pytest.mark.parametrize("bits", [(5,), (5, 9)], ids=["correctable",
                                                     "uncorrectable"])
def test_edac_error_in_code_line(bits):
    """An SRAM word of a block's next refill is struck: the probe must
    refuse the line, so the interpreter corrects it (one bit) or takes
    the instruction access error trap (two bits)."""
    pair, _stats = _random7_small()
    compiled = pair[1][0]
    addr = _unresident_block_word(compiled)
    offset = addr - compiled.config.memory.sram_base
    for system, _sink in pair:
        for bit in bits:
            system.memctrl.sram_memory.inject(offset, bit)
    _run_pair(pair, 3_000)
    interp = pair[0][0]
    if len(bits) == 1:
        assert interp.errors.edac_corrected >= 1
    else:
        assert interp.errors.memory_error_traps >= 1


#: A loop whose ``patch`` word it rewrites every pass (``add %l1, 1``
#: <-> ``add %l1, 2``): stale cached code must never run compiled.
_SELF_MODIFYING = """
main:
    set patch, %o0
    mov 0, %l0
    mov 0, %l1
    ba loop
    nop
    .align 16
loop:
    ld [%o0], %o1
    xor %o1, 3, %o1
    st %o1, [%o0]
    add %l0, 1, %l0
    xor %l0, %l1, %l2
    add %l2, 7, %l2
    sll %l2, 2, %l3
    add %l3, %l0, %l3
patch:
    add %l1, 1, %l1
    add %l1, %l3, %l4
    xor %l4, 9, %l4
    add %l4, %l2, %l4
    sub %l4, 1, %l5
    add %l5, %l0, %l5
    xor %l5, %l1, %l5
    add %l5, 3, %l5
    ba loop
    add %l5, %l4, %l6
"""


@pytest.mark.parametrize("size", [64, None])
def test_store_rewrites_a_word_of_a_cached_block(size):
    """Memory under a compiled block changes: the refill probe refuses a
    word that no longer matches, a resident stale word still runs as the
    interpreter runs it, and a resident differing word drops the block."""
    config = _small(LeonConfig.fault_tolerant(), size)
    pair = _pair(lambda c: build_test_program(_SELF_MODIFYING, c), config)
    _run_flushed(pair, 5 * FLUSH_PERIOD)
    stats = pair[1][0].jit.stats
    assert stats["verify_drops"] > 0 and stats["refills"] > 0, stats


#: ``bne,a`` and ``ba,a`` at line ends, their slots at the next line's
#: start.  The inner loop runs once or three times per outer pass, so
#: its first, checked iteration alternates taken (slot executes) and
#: not taken (slot annulled); 26 words thrash a 64-byte i-cache, so
#: each slot's line is gone whenever its block is entered.
_ANNULLED_AT_LINE_END = """
main:
    mov 0, %l0
    mov 0, %l2
    mov 0, %l7
    ba outer
    nop
    .align 16
outer:
    xor %l7, 2, %l7
    add %l7, 1, %l6
    add %l0, %l6, %l0
    add %l2, 5, %l2
inner:
    add %l0, 3, %l0
    xor %l0, %l6, %l1
    subcc %l6, 1, %l6
    bne,a inner
    add %l1, %l0, %l2
    add %l2, 1, %l2
    xor %l2, %l0, %l3
    add %l3, 9, %l3
    sll %l3, 1, %l4
    add %l4, %l2, %l4
    xor %l4, 0x55, %l4
    add %l4, %l0, %l5
    sub %l5, 2, %l5
    xor %l5, %l3, %l5
    add %l5, %l1, %l5
    srl %l5, 3, %l1
    add %l1, %l4, %l1
    xor %l1, %l2, %l2
    add %l2, %l7, %l2
back:
    ba,a outer
    add %l0, 7, %l0
"""


def test_annulled_delay_slot_on_a_line_boundary():
    config = _small(LeonConfig.fault_tolerant(), 64)
    program = build_test_program(_ANNULLED_AT_LINE_END, config)
    for label, offset in (("outer", 0), ("inner", 0), ("back", 12)):
        assert program.symbols[label] % 16 == offset
    pair = _pair(lambda c: program, config)
    _run_pair(pair, 20_000)
    stats = pair[1][0].jit.stats
    assert stats["checked_entries"] > 0 and stats["refills"] > 0, stats
    _run_flushed(pair, 3 * FLUSH_PERIOD)
    # Slots whose line cannot be refilled cleanly: the ender must deopt
    # before fetching anything, leaving the slot to the interpreter.
    sram = config.memory.sram_base
    slots = (program.symbols["inner"] + 16, program.symbols["back"] + 4)
    for round_ in range(3):
        for slot in slots:
            for system, _sink in pair:
                system.memctrl.sram_memory.inject(slot - sram, round_)
            _run_pair(pair, 300)
            _strike(pair, "icache-tag", pair[0][0].icache._index(slot),
                    bit=round_)
            _run_pair(pair, 300)
    interp = pair[0][0]
    assert interp.errors.edac_corrected > 0 and interp.errors.ite > 0


#: A load, a store and a ``retl`` (JMPL) each at the start of a line:
#: none may refill in compiled code, because it could still deopt after
#: the fetch.  The load alternates between two d-cache lines that evict
#: each other (a d-cache miss deopts it), the store between SRAM and
#: I/O space (a store outside SRAM deopts it); 26 loop words thrash a
#: 64-byte i-cache.
_MEMORY_AT_LINE_START = """
main:
    set DATA, %o0
    set DATA, %o2
    set 0x20000100, %o5
    xor %o5, %o2, %o5
    mov 0, %l0
    ba loop
    nop
    .align 16
loop:
    add %l0, 1, %l0
    xor %l0, 5, %l1
    add %l1, %l0, %l2
    xor %o0, 64, %o0
    ld [%o0], %l4
    add %l4, %l2, %l4
    xor %o2, %o5, %o2
    add %l4, 1, %l4
    st %l4, [%o2]
    add %l0, %l4, %l5
    call sub
    add %l5, 1, %l5
    add %l5, %l2, %l5
    xor %l5, %l1, %l3
    add %l3, 7, %l3
    sll %l3, 1, %l6
    add %l6, %l5, %l6
    xor %l6, 0x33, %l6
    add %l6, %l0, %l1
    sub %l1, 5, %l1
    add %l1, %l6, %l2
    ba loop
    add %l3, 1, %l3
    .align 16
sub:
    retl
    add %l5, 2, %l5
"""


def test_load_store_and_jmpl_at_a_line_start():
    config = _small(LeonConfig.fault_tolerant(), 64)
    program = build_test_program(_MEMORY_AT_LINE_START, config)
    assert program.symbols["loop"] % 16 == 0
    assert program.symbols["sub"] % 16 == 0
    pair = _pair(lambda c: program, config)
    _run_pair(pair, 20_000)
    stats = pair[1][0].jit.stats
    assert stats["checked_entries"] > 0 and stats["deopts"] > 0, stats
    _run_flushed(pair, 3 * FLUSH_PERIOD)
