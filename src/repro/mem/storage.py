"""Raw external-memory storage: data words plus EDAC check bits.

The storage keeps the *stored* bits, not the logical value: fault injection
flips bits here and the EDAC discovers them on the next read, exactly like
SEUs in a physical SRAM.  Check bits are only maintained when EDAC is
enabled; without EDAC the check plane is unused.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, InjectionError, StateError
from repro.ft.bch import bch_encode
from repro.state.snapshot import PAGE_BYTES

#: Words per digest page: one page of data words (plus their check bytes).
PAGE_WORDS = PAGE_BYTES // 4


class ExternalMemory:
    """One external memory array (a PROM or SRAM bank).

    Words are stored big-endian with respect to byte addressing, i.e. byte 0
    of a word is its most significant byte (SPARC is big-endian).
    """

    def __init__(self, name: str, size_bytes: int, *, edac: bool = False) -> None:
        if size_bytes <= 0 or size_bytes % 4:
            raise ConfigurationError(f"memory {name!r} size must be a positive word multiple")
        self.name = name
        self.size_bytes = size_bytes
        self.edac = edac
        self._words = np.zeros(size_bytes // 4, dtype=np.uint32)
        self._check = np.zeros(size_bytes // 4, dtype=np.uint8)

    @property
    def words(self) -> int:
        return len(self._words)

    @property
    def total_bits(self) -> int:
        """Stored bits, including the check plane when EDAC is on."""
        per_word = 39 if self.edac else 32
        return self.words * per_word

    def _index(self, address: int) -> int:
        if address % 4:
            raise InjectionError(f"word address {address:#x} not aligned")
        index = address // 4
        if not 0 <= index < self.words:
            raise InjectionError(f"address {address:#x} outside {self.name}")
        return index

    # -- functional access (the memory controller's view) --------------------

    def read_raw(self, address: int) -> tuple:
        """The stored (data, check) pair at a word-aligned offset."""
        index = self._index(address)
        return int(self._words[index]), int(self._check[index])

    def clean_words(self, address: int, count: int) -> Optional[List[int]]:
        """The ``count`` stored words from word-aligned ``address`` when
        every one would pass the EDAC unchanged (check bits consistent;
        always so with EDAC off), else None.  Changes nothing: a word
        the EDAC would correct or reject is left for the read path."""
        index = address >> 2
        words = self._words[index:index + count].tolist()
        if self.edac:
            checks = self._check[index:index + count].tolist()
            for data, check in zip(words, checks):
                if bch_encode(data) != check:
                    return None
        return words

    def write_word(self, address: int, value: int) -> None:
        """Store a word, regenerating its check bits."""
        index = self._index(address)
        value &= 0xFFFFFFFF
        self._words[index] = value
        if self.edac:
            self._check[index] = bch_encode(value)

    def write_raw(self, address: int, data: int, check: int) -> None:
        """Store raw data + check bits (EDAC bypass, used by diagnostics)."""
        index = self._index(address)
        self._words[index] = data & 0xFFFFFFFF
        self._check[index] = check & 0x7F

    def load_image(self, address: int, image: bytes) -> None:
        """Load a big-endian byte image (a :class:`~repro.sparc.asm.Program`)."""
        if len(image) % 4:
            image = image + b"\x00" * (4 - len(image) % 4)
        for offset in range(0, len(image), 4):
            word = int.from_bytes(image[offset:offset + 4], "big")
            self.write_word(address + offset, word)

    # -- state capture --------------------------------------------------------

    def capture(self) -> dict:
        """Raw stored planes as bytes (one memcpy each, compact to pickle)."""
        return {
            "words": self._words.tobytes(),
            "check": self._check.tobytes(),
        }

    def page_digests(self) -> List[Tuple[int, bytes]]:
        """``(page, sha256(words page + check page))`` per non-zero page.

        A page is listed when any of its data words or check bytes is
        non-zero, so two memories of one size have equal lists exactly
        when their stored planes are equal -- however a page came to be
        all-zero (never written, or written and zeroed again).  One
        reduction over each plane finds the live pages; the cost of the
        hashes scales with the memory a program touches, not the bank.
        """
        words, check = self._words, self._check
        full = len(words) - len(words) % PAGE_WORDS
        live = np.flatnonzero(
            words[:full].reshape(-1, PAGE_WORDS).max(axis=1)
            | check[:full].reshape(-1, PAGE_WORDS).max(axis=1)).tolist()
        if full < len(words) and (words[full:].any() or check[full:].any()):
            live.append(full // PAGE_WORDS)
        digests = []
        for page in live:
            span = slice(page * PAGE_WORDS, (page + 1) * PAGE_WORDS)
            digests.append((page, hashlib.sha256(
                words[span].tobytes() + check[span].tobytes()).digest()))
        return digests

    def restore(self, state: dict) -> None:
        words = np.frombuffer(state["words"], dtype=np.uint32)
        check = np.frombuffer(state["check"], dtype=np.uint8)
        if len(words) != self.words or len(check) != self.words:
            raise StateError(
                f"memory {self.name!r}: snapshot has {len(words)} words, "
                f"expected {self.words}")
        self._words = words.copy()
        self._check = check.copy()

    # -- fault injection ------------------------------------------------------

    def inject(self, address: int, bit: int) -> None:
        """Flip one stored bit.  Bits 0..31 are data, 32..38 are check bits."""
        index = self._index(address)
        if 0 <= bit < 32:
            self._words[index] = int(self._words[index]) ^ (1 << bit)
        elif 32 <= bit < 39:
            self._check[index] = int(self._check[index]) ^ (1 << (bit - 32))
        else:
            raise InjectionError(f"bit {bit} out of range for a 39-bit codeword")

    def inject_flat(self, flat_bit: int) -> tuple:
        """Flip the ``flat_bit``-th stored bit; returns (address, bit)."""
        per_word = 39 if self.edac else 32
        if not 0 <= flat_bit < self.words * per_word:
            raise InjectionError("flat bit index outside memory")
        index, bit = divmod(flat_bit, per_word)
        self.inject(index * 4, bit)
        return index * 4, bit
