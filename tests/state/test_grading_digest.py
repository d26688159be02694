"""``LeonSystem.grading_digest`` against the ``state_digest`` oracle.

Grading compares the page-hashed digest; ``state_digest`` is the canonical
hash over a full snapshot.  For two live systems of one configuration the
two equalities must always agree.  Each pair below also pins which way
they agree, so no case passes by both digests being blind to it.
"""

import pytest

from repro.core.config import LeonConfig
from repro.fault.campaign import Campaign, CampaignConfig, prepare_warm_start
from repro.mem.storage import PAGE_WORDS, ExternalMemory
from repro.state.snapshot import DIAG_KEY, OBSERVATION_COMPONENTS, Snapshot


def _built(program="iutest", leon=None):
    campaign = Campaign(CampaignConfig(program=program, leon=leon))
    system, spin, _base, _program = campaign._build_program()
    return system, spin


def _pair(instructions=3_000, leon=None):
    """Two systems driven to the identical state."""
    systems = []
    for _ in range(2):
        system, spin = _built(leon=leon)
        system.run(instructions, stop_pc=spin)
        systems.append(system)
    return systems


def _last_page(memory) -> int:
    """Byte offset of a bank's last page -- far from every program image."""
    return memory.size_bytes - 4 * PAGE_WORDS


def _agree(a, b) -> bool:
    """Assert both digests agree on ``a`` vs ``b``; return the verdict."""
    same = a.state_digest() == b.state_digest()
    assert (a.grading_digest() == b.grading_digest()) == same
    return same


@pytest.fixture(params=["express", "fault_tolerant"])
def pair(request):
    leon = (LeonConfig.leon_express() if request.param == "express"
            else LeonConfig.fault_tolerant())
    return _pair(leon=leon)


def test_identical_states_agree(pair):
    assert _agree(*pair)


def test_observation_only_differences_agree(pair):
    a, b = pair
    b.errors.ite += 7
    b.errors.register_error_traps += 1
    b.perf.cycles += 11
    b.dcache.buffered_stores += 3
    b.bus.transfers += 5
    unit = b.memctrl.write_protector.units[0]
    unit.violations += 2
    unit.last_violation = 0x40000100
    assert _agree(a, b)


@pytest.mark.parametrize("bit", [5, 33], ids=["data", "check"])
@pytest.mark.parametrize("far", [False, True],
                         ids=["program-page", "zero-page"])
def test_sram_strike_agrees(pair, bit, far):
    a, b = pair
    memory = b.memctrl.sram_memory
    offset = _last_page(memory) + 0x40 if far else 0x100
    memory.inject(offset, bit)
    assert not _agree(a, b)
    memory.inject(offset, bit)
    assert _agree(a, b)


def test_page_zeroed_again_hashes_like_untouched(pair):
    a, b = pair
    memory = b.memctrl.sram_memory
    memory.write_word(_last_page(memory), 0xDEADBEEF)
    assert not _agree(a, b)
    memory.write_word(_last_page(memory), 0)
    assert _agree(a, b)
    assert memory.page_digests() == a.memctrl.sram_memory.page_digests()


def test_page_digests_cover_a_partial_last_page():
    memory = ExternalMemory("odd", 4 * PAGE_WORDS + 8, edac=True)
    assert memory.page_digests() == []
    memory.write_word(4 * PAGE_WORDS + 4, 7)
    assert [page for page, _digest in memory.page_digests()] == [1]
    memory.write_word(4 * PAGE_WORDS + 4, 0)
    assert memory.page_digests() == []


@pytest.mark.parametrize("bank", ["prom_memory", "io_memory"])
def test_prom_and_io_words_agree(pair, bank):
    a, b = pair
    getattr(b.memctrl, bank).write_word(0x80, 0x1234)
    assert not _agree(a, b)
    getattr(a.memctrl, bank).write_word(0x80, 0x1234)
    assert _agree(a, b)


def test_regfile_suspect_agrees(pair):
    a, b = pair
    # Flip a bit and flip it back: equal data, one suspect entry more.
    b.regfile.inject(9, 3)
    b.regfile.inject(9, 3)
    assert b.regfile.capture()["data"] == a.regfile.capture()["data"]
    assert not _agree(a, b)


def test_write_protect_range_agrees(pair):
    a, b = pair
    b.memctrl.write_protector.protect_range(0x40001000, 0x40002000)
    assert not _agree(a, b)
    a.memctrl.write_protector.protect_range(0x40001000, 0x40002000)
    assert _agree(a, b)


def test_every_architectural_component_feeds_the_digest(pair, monkeypatch):
    """Swap each non-observation capture for a sentinel: both digests move.

    Pins that ``grading_digest`` covers every component ``snapshot()``
    captures (memory through its banks and write-protect unit).
    """
    a, b = pair
    memctrl = b.memctrl
    for name in b.snapshot().components:
        if name in OBSERVATION_COMPONENTS or name == "system":
            continue
        owners = ([memctrl.prom_memory, memctrl.sram_memory,
                   memctrl.io_memory, memctrl.write_protector]
                  if name == "memory" else [getattr(b, name)])
        for owner in owners:
            if owner is None:
                continue
            with monkeypatch.context() as patch:
                if hasattr(owner, "page_digests"):
                    patch.setattr(owner, "_words", owner._words.copy())
                    owner._words[-1] ^= 1
                else:
                    patch.setattr(owner, "capture",
                                  lambda: {"sentinel": True})
                assert not _agree(a, b), name
            assert _agree(a, b), name


# -- the diag-drop invariant ----------------------------------------------------


def _diag_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            if key == DIAG_KEY:
                yield path + (key,)
            yield from _diag_paths(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _diag_paths(item, path + (index,))


@pytest.mark.parametrize("leon", [LeonConfig.leon_express(),
                                  LeonConfig.fault_tolerant()],
                         ids=["express", "fault_tolerant"])
def test_captures_file_diag_only_at_their_top_level(leon):
    """``drop_diag`` removes one key; that equals ``strip_diag`` only while
    no ``capture()`` payload nests a ``"diag"`` key deeper."""
    system, spin = _built(leon=leon)
    system.run(3_000, stop_pc=spin)
    captures = {}
    for name, payload in system.snapshot().components.items():
        if name == "memory":
            # The memory controller's payload nests one capture per part.
            captures.update({f"memory.{part}": sub
                             for part, sub in payload.items()})
        else:
            captures[name] = payload
    for name, payload in captures.items():
        nested = [path for path in _diag_paths(payload) if len(path) > 1]
        assert nested == [], (name, nested)


# -- golden anchors reproduce their recorded digests ----------------------------


@pytest.mark.parametrize("program", ["iutest", "paranoia"])
def test_warm_start_anchors_reproduce_checkpoint_digests(program):
    config = CampaignConfig(program=program, let=60.0, seed=7, flux=400.0,
                            fluence=300.0, instructions_per_second=20_000.0,
                            beam_delay_s=0.5, beam_tail_s=0.1,
                            flush_period_instructions=4_000)
    warm = prepare_warm_start(config)
    anchors = [mark for mark in warm.timeline.checkpoints
               if mark.snapshot is not None]
    assert anchors
    for mark in anchors:
        fresh, _spin = _built(program=program)
        fresh.restore(Snapshot.from_bytes(mark.snapshot))
        assert fresh.grading_digest() == mark.digest, mark.instruction
