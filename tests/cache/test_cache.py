"""Direct-mapped caches: lookup, refill, write-through, parity policy."""

import pytest

from repro.amba.ahb import AhbBus, TransferSize
from repro.cache.dcache import DataCache
from repro.cache.icache import InstructionCache
from repro.cache.ram import CacheRam
from repro.core.config import CacheConfig, MemoryConfig
from repro.core.statistics import ErrorCounters, PerfCounters
from repro.errors import ConfigurationError, InjectionError
from repro.ft.protection import ErrorKind, ProtectionScheme
from repro.mem.memctrl import MemoryController

SRAM = 0x40000000


def make_system(parity=ProtectionScheme.DUAL_PARITY, subblocking=True,
                size=1024, line=16):
    bus = AhbBus()
    master = bus.add_master("cpu")
    controller = MemoryController(MemoryConfig(edac=True, prom_bytes=4096,
                                               sram_bytes=65536, io_bytes=4096))
    for bank in controller.banks():
        bus.attach(bank)
    errors = ErrorCounters()
    perf = PerfCounters()
    config = CacheConfig(size_bytes=size, line_bytes=line, parity=parity,
                         subblocking=subblocking)
    icache = InstructionCache(config, bus, master, errors, perf)
    dcache = DataCache(config, bus, master, errors, perf)
    return bus, controller, icache, dcache, errors, perf


class TestCacheRam:
    def test_roundtrip_and_parity(self):
        ram = CacheRam("r", 16, ProtectionScheme.DUAL_PARITY)
        ram.write(3, 0xDEADBEEF)
        data, kind = ram.read(3)
        assert data == 0xDEADBEEF
        assert kind is ErrorKind.NONE

    def test_injection_detected(self):
        ram = CacheRam("r", 16, ProtectionScheme.PARITY)
        ram.write(0, 0)
        ram.inject(0, 4)
        _data, kind = ram.read(0)
        assert kind is ErrorKind.DETECTED

    def test_check_bit_injection(self):
        ram = CacheRam("r", 16, ProtectionScheme.DUAL_PARITY)
        ram.write(0, 0)
        ram.inject(0, 33)  # second parity bit
        assert ram.read(0)[1] is ErrorKind.DETECTED

    def test_flat_injection_geometry(self):
        """Consecutive flat bits live in the same word (adjacent cells)."""
        ram = CacheRam("r", 4, ProtectionScheme.DUAL_PARITY)
        index_a, bit_a = ram.inject_flat(0)
        index_b, bit_b = ram.inject_flat(1)
        assert index_a == index_b == 0
        assert bit_b == bit_a + 1

    def test_bch_rejected_for_cache(self):
        with pytest.raises(ConfigurationError):
            CacheRam("r", 4, ProtectionScheme.BCH)

    def test_bounds(self):
        ram = CacheRam("r", 4, ProtectionScheme.PARITY)
        with pytest.raises(InjectionError):
            ram.inject(4, 0)
        with pytest.raises(InjectionError):
            ram.inject(0, 33)  # only 1 check bit
        with pytest.raises(InjectionError):
            ram.inject_flat(4 * 33)


class TestLookupAndRefill:
    def test_miss_then_hit(self):
        _bus, controller, _icache, dcache, _errors, perf = make_system()
        controller.sram.ahb_write(SRAM + 0x100, 42, TransferSize.WORD)
        first = dcache.read(SRAM + 0x100, TransferSize.WORD)
        assert first.data == 42 and not first.hit
        second = dcache.read(SRAM + 0x100, TransferSize.WORD)
        assert second.data == 42 and second.hit
        assert second.cycles == 0  # hits are free beyond base timing
        assert perf.dcache_misses == 1 and perf.dcache_hits == 1

    def test_line_refill_brings_neighbours(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        for offset in range(0, 16, 4):
            controller.sram.ahb_write(SRAM + offset, offset, TransferSize.WORD)
        dcache.read(SRAM + 0, TransferSize.WORD)
        for offset in range(4, 16, 4):
            access = dcache.read(SRAM + offset, TransferSize.WORD)
            assert access.hit and access.data == offset

    def test_conflicting_lines_evict(self):
        _bus, controller, _icache, dcache, _errors, perf = make_system(size=256)
        controller.sram.ahb_write(SRAM, 1, TransferSize.WORD)
        controller.sram.ahb_write(SRAM + 256, 2, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.read(SRAM + 256, TransferSize.WORD)  # same index, evicts
        access = dcache.read(SRAM, TransferSize.WORD)
        assert not access.hit
        assert access.data == 1

    def test_flush_clears_valid_bits(self):
        _bus, controller, _icache, dcache, _errors, perf = make_system()
        controller.sram.ahb_write(SRAM, 9, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.flush()
        assert not dcache.read(SRAM, TransferSize.WORD).hit

    def test_uncached_read_bypasses(self):
        _bus, _controller, _icache, dcache, _errors, perf = make_system()
        access = dcache.read(SRAM, TransferSize.WORD, cacheable=False)
        assert not access.hit
        assert not dcache.read(SRAM, TransferSize.WORD, cacheable=False).hit


class TestWriteThrough:
    def test_store_reaches_memory_always(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        dcache.write(SRAM + 8, 77, TransferSize.WORD)
        assert controller.sram.ahb_read(SRAM + 8, TransferSize.WORD).data == 77

    def test_no_allocate_on_write_miss(self):
        _bus, _controller, _icache, dcache, _errors, perf = make_system()
        dcache.write(SRAM + 8, 77, TransferSize.WORD)
        assert not dcache.read(SRAM + 8, TransferSize.WORD).hit

    def test_update_on_write_hit(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        controller.sram.ahb_write(SRAM, 1, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.write(SRAM, 99, TransferSize.WORD)
        access = dcache.read(SRAM, TransferSize.WORD)
        assert access.hit and access.data == 99

    def test_subword_write_hit_merges_in_cache(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        controller.sram.ahb_write(SRAM, 0x11223344, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.write(SRAM + 1, 0xAB, TransferSize.BYTE)
        access = dcache.read(SRAM, TransferSize.WORD)
        assert access.hit and access.data == 0x11AB3344

    def test_double_store_delay_flag(self):
        _bus, _controller, _icache, dcache, _errors, _perf = make_system()
        dcache.double_store_delay = True
        plain = dcache.write(SRAM, 0, TransferSize.WORD)
        double = dcache.write(SRAM + 4, 0, TransferSize.WORD, double=True)
        assert double.cycles == plain.cycles + 1


class TestParityPolicy:
    def test_data_parity_error_forces_miss_and_counts(self):
        _bus, controller, _icache, dcache, errors, _perf = make_system()
        controller.sram.ahb_write(SRAM, 0x5A, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.data_ram.inject(0, 1)
        access = dcache.read(SRAM, TransferSize.WORD)
        assert access.data == 0x5A  # refetched clean copy
        assert not access.hit
        assert access.data_parity_error
        assert errors.dde == 1

    def test_tag_parity_error_forces_miss_and_counts(self):
        _bus, controller, icache, _dcache, errors, _perf = make_system()
        controller.sram.ahb_write(SRAM, 0xEE, TransferSize.WORD)
        icache.fetch(SRAM)
        icache.tag_ram.inject(0, 0)
        access = icache.fetch(SRAM)
        assert access.data == 0xEE
        assert access.tag_parity_error
        assert errors.ite == 1

    def test_unprotected_cache_delivers_corruption(self):
        _bus, controller, _icache, dcache, errors, _perf = make_system(
            parity=ProtectionScheme.NONE)
        controller.sram.ahb_write(SRAM, 0, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.data_ram.inject(0, 1)
        access = dcache.read(SRAM, TransferSize.WORD)
        assert access.hit and access.data == 2  # silent corruption
        assert errors.dde == 0


class TestSubblocking:
    def _poison(self, controller, address):
        controller.sram_memory.inject(address - SRAM, 0)
        controller.sram_memory.inject(address - SRAM, 9)

    def test_error_word_not_validated(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        self._poison(controller, SRAM + 8)
        access = dcache.read(SRAM, TransferSize.WORD)  # refill whole line
        assert not access.mem_error  # requested word fine
        clean = dcache.read(SRAM + 4, TransferSize.WORD)
        assert clean.hit
        bad = dcache.read(SRAM + 8, TransferSize.WORD)
        assert bad.mem_error  # precise error on actual access

    def test_requested_error_word_signals_immediately(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        self._poison(controller, SRAM + 8)
        access = dcache.read(SRAM + 8, TransferSize.WORD)
        assert access.mem_error

    def test_without_subblocking_line_poisoned(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system(
            subblocking=False)
        self._poison(controller, SRAM + 8)
        access = dcache.read(SRAM, TransferSize.WORD)
        assert access.mem_error  # speculative word poisons the whole line

    def test_edac_correction_counted_through_cache(self):
        _bus, controller, _icache, dcache, errors, _perf = make_system()
        controller.sram.ahb_write(SRAM, 5, TransferSize.WORD)
        controller.sram_memory.inject(0, 2)
        access = dcache.read(SRAM, TransferSize.WORD)
        assert access.data == 5
        assert access.corrected == 1
        assert errors.edac_corrected == 1

    def test_invalidate_word(self):
        _bus, controller, _icache, dcache, _errors, _perf = make_system()
        controller.sram.ahb_write(SRAM, 5, TransferSize.WORD)
        dcache.read(SRAM, TransferSize.WORD)
        dcache.invalidate_word(SRAM)
        assert not dcache.read(SRAM, TransferSize.WORD).hit
        # Other words of the line stay valid.
        assert dcache.read(SRAM + 4, TransferSize.WORD).hit


def _cache_state(bus, cache, errors, perf):
    return (bus.capture(), cache.capture(), errors.capture(), perf.capture())


class TestCleanRefill:
    """The clean-line refill shared by the interpreter and the JIT has
    exactly the effects of the bus-burst refill it short-cuts."""

    @pytest.mark.parametrize("line", [8, 16, 32])
    @pytest.mark.parametrize("kind", ["i", "d"])
    @pytest.mark.parametrize("address", [SRAM + 0x124, 0x48])
    @pytest.mark.parametrize("tag_error", [False, True])
    def test_matches_bus_burst(self, monkeypatch, line, kind, address,
                               tag_error):
        outcomes = []
        for burst in (False, True):
            bus, controller, icache, dcache, errors, perf = make_system(
                line=line, size=64)
            cache = icache if kind == "i" else dcache
            for word in range(0, 64, 4):
                bus.write(address - 32 + word, 0x1000 + word)
            cache.lookup(address ^ 0x40)  # same index, other tag
            if tag_error:
                cache.tag_ram.inject(cache._index(address), 2)
            if burst:
                monkeypatch.setattr(cache, "_clean_line", lambda a: None)
            access = cache.lookup(address)
            outcomes.append((access, _cache_state(bus, cache, errors, perf)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].data == 0x1020 and not outcomes[0][0].hit

    def test_clean_refill_equals_lookup_miss(self):
        states = []
        for jit in (False, True):
            bus, controller, icache, dcache, errors, perf = make_system()
            bus.write(SRAM + 0x30, 0xCAFE)
            if jit:
                assert icache.clean_refill(SRAM + 0x30, 0xCAFE) == 1 + 4
            else:
                assert icache.fetch(SRAM + 0x30).cycles == 1 + 4
            states.append(_cache_state(bus, icache, errors, perf))
        assert states[0] == states[1]

    def _probe_refuses(self, icache, bus, errors, perf, address, word):
        before = _cache_state(bus, icache, errors, perf)
        assert icache.refill_probe(address, word) is None
        assert icache.clean_refill(address, word) is None
        assert _cache_state(bus, icache, errors, perf) == before

    def test_probe_accepts_only_a_clean_plain_miss(self):
        bus, controller, icache, dcache, errors, perf = make_system()
        bus.write(SRAM + 0x40, 0x1234)
        assert icache.refill_probe(SRAM + 0x40, 0x1234) is not None
        # The word at that address differs from the compiled one.
        self._probe_refuses(icache, bus, errors, perf, SRAM + 0x40, 0x1235)
        # Resident: a hit, not a miss (even when its data is suspect).
        icache.lookup(SRAM + 0x40)
        self._probe_refuses(icache, bus, errors, perf, SRAM + 0x40, 0x1234)
        icache.data_ram.inject(icache._index(SRAM + 0x40) * 4, 1)
        self._probe_refuses(icache, bus, errors, perf, SRAM + 0x40, 0x1234)
        # A suspect tag is a parity-forced miss, not a plain one.
        icache.flush()
        icache.tag_ram.inject(icache._index(SRAM + 0x40), 3)
        self._probe_refuses(icache, bus, errors, perf, SRAM + 0x40, 0x1234)
        # Not a memory bank (APB space).
        self._probe_refuses(icache, bus, errors, perf, 0x80000000, 0)

    @pytest.mark.parametrize("bits", [(4,), (4, 7), (35,)])
    def test_probe_refuses_an_edac_error_anywhere_in_the_line(self, bits):
        bus, controller, icache, dcache, errors, perf = make_system()
        bus.write(SRAM + 0x50, 0x77)
        for bit in bits:
            controller.sram_memory.inject(0x5C, bit)  # the line's last word
        self._probe_refuses(icache, bus, errors, perf, SRAM + 0x50, 0x77)
        assert icache.memory_word(SRAM + 0x50) is None
