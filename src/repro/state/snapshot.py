"""Bit-exact device snapshots: the ``repro.state`` subsystem.

A :class:`Snapshot` is an ordered mapping of *component payloads*: plain
Python values (ints, strs, bools, bytes, tuples, lists, dicts) produced by
each component's ``capture()`` method and consumed by its ``restore()``.
:meth:`LeonSystem.snapshot` composes them; :meth:`LeonSystem.restore`
dispatches them back.  The payloads are canonical -- sets are stored as
sorted tuples, numpy arrays as raw bytes -- so two snapshots of identical
device state are *equal objects* and serialize to identical bytes.

Two uses drive the design (Lopez-Ongil et al., "Techniques for Fast
Transient Fault Grading Based on Autonomous Emulation"):

* **warm-start**: a campaign executes the fault-free prefix once, snapshots
  at the beam-window start, and every injection run restores from the shared
  snapshot instead of recomputing the prefix;
* **early classification**: a run whose architectural state re-converges to
  the golden (strike-free) run is *effaced* -- its future is exactly the
  golden future, so it can stop at the window close.

Diagnostic state and convergence
--------------------------------
Pure observation state (error counters, performance counters, voter
disagreement counts, write-protect violation tallies...) never feeds back
into execution, but it does *remember* that a strike happened -- an effaced
run has the same architectural future as golden while its counters differ.
Architectural digests therefore exclude the counter components and every
``"diag"``-keyed subtree; ``capture()`` methods file observation-only
values under a ``"diag"`` key for exactly this reason, and only at the top
level of their payload, so :func:`drop_diag` (one key lookup) excludes
them as exactly as the recursive :func:`strip_diag` walk.

Serialized form
---------------
:meth:`Snapshot.to_bytes` is zlib over a pickle in which every
dict-nested ``bytes`` value that is a whole number of 4-KiB pages (the
PROM/SRAM/I-O word and check planes) is replaced by its length and its
non-zero pages.  A program touches a handful of pages of the 6 MiB
address space, so encoding and decoding cost scales with that handful.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import zlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import StateError

#: Bump when the payload layout changes incompatibly.  v2 stores page
#: multiples sparsely (see "Serialized form" above); v1 blobs are rejected.
FORMAT_VERSION = 2

#: Reserved payload key for observation-only state (excluded from digests).
DIAG_KEY = "diag"

#: Components that are pure observation (excluded from digests).
OBSERVATION_COMPONENTS = ("errors", "perf")

PICKLE_PROTOCOL = 4  # stable across supported interpreters

#: Page size of the sparse ``bytes`` encoding and of the memory banks'
#: page digests (:meth:`repro.mem.storage.ExternalMemory.page_digests`).
PAGE_BYTES = 4096

_ZERO_PAGE = bytes(PAGE_BYTES)


def strip_diag(value: Any) -> Any:
    """Recursively drop every ``"diag"`` key from nested dicts."""
    if isinstance(value, dict):
        return {key: strip_diag(item) for key, item in value.items()
                if key != DIAG_KEY}
    if isinstance(value, list):
        return [strip_diag(item) for item in value]
    if isinstance(value, tuple):
        return tuple(strip_diag(item) for item in value)
    return value


def drop_diag(payload: Any) -> Any:
    """``payload`` without its top-level ``"diag"`` key.

    Equivalent to :func:`strip_diag` on ``capture()`` payloads, which file
    observation state only at their top level (``tests/state`` pins that).
    """
    if isinstance(payload, dict) and DIAG_KEY in payload:
        return {key: item for key, item in payload.items() if key != DIAG_KEY}
    return payload


#: One sparse plane: (dict path, length, non-zero page indices, their bytes).
_Plane = Tuple[Tuple[str, ...], int, List[int], bytes]


def _sparse(tree: Dict[str, Any], path: Tuple[str, ...],
            planes: List[_Plane]) -> Dict[str, Any]:
    """Copy of ``tree`` with page-multiple ``bytes`` moved into ``planes``.

    A moved value leaves a None in place so the key order -- and with it
    the pickled form of the decoded components -- is unchanged.
    """
    out: Dict[str, Any] = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            value = _sparse(value, path + (key,), planes)
        elif (isinstance(value, bytes) and value
              and not len(value) % PAGE_BYTES):
            live = np.flatnonzero(np.frombuffer(value, dtype=np.uint64)
                                  .reshape(-1, PAGE_BYTES // 8).max(axis=1))
            pages = live.tolist()
            planes.append((path + (key,), len(value), pages, b"".join(
                value[page * PAGE_BYTES:(page + 1) * PAGE_BYTES]
                for page in pages)))
            value = None
        out[key] = value
    return out


def _dense(length: int, pages: List[int], blob: bytes) -> bytes:
    """Rebuild one plane with a single full-size allocation: the join of
    its stored pages and references to one shared zero page."""
    pieces = [_ZERO_PAGE] * (length // PAGE_BYTES)
    for index, page in enumerate(pages):
        pieces[page] = blob[index * PAGE_BYTES:(index + 1) * PAGE_BYTES]
    return b"".join(pieces)


class Snapshot:
    """One captured device state, addressable by component name."""

    __slots__ = ("config_key", "components", "version")

    def __init__(self, config_key: str,
                 components: Dict[str, Any],
                 version: int = FORMAT_VERSION) -> None:
        self.config_key = config_key
        self.components = components
        self.version = version

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (self.version == other.version
                and self.config_key == other.config_key
                and self.components == other.components)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot(config_key={self.config_key!r}, "
                f"components={sorted(self.components)})")

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Compact serialized form (page-sparse pickle + zlib); round-trips
        byte-identically."""
        planes: List[_Plane] = []
        payload = {
            "version": self.version,
            "config_key": self.config_key,
            "components": _sparse(self.components, (), planes),
            "planes": planes,
        }
        return zlib.compress(pickle.dumps(payload, PICKLE_PROTOCOL))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        try:
            payload = pickle.loads(zlib.decompress(data))
            version = payload["version"]
        except Exception as exc:
            raise StateError(f"undecodable snapshot: {exc}") from None
        if version != FORMAT_VERSION:
            raise StateError(
                f"snapshot format v{version} != supported v{FORMAT_VERSION}")
        try:
            config_key = payload["config_key"]
            components = payload["components"]
            for path, length, pages, blob in payload["planes"]:
                node = components
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = _dense(length, pages, blob)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise StateError(f"undecodable snapshot: {exc}") from None
        return cls(config_key, components, version)

    # -- digests -------------------------------------------------------------

    def digest(self, *, architectural: bool = True) -> str:
        """SHA-256 over the canonical payload, as a hex string.

        With ``architectural=True`` (the default) the observation-only
        components and every ``"diag"`` subtree are excluded, so two states
        with identical *execution futures* -- and possibly different error
        counters -- hash equal.  This is the canonical content hash
        (:meth:`LeonSystem.state_digest`); grading compares the cheaper,
        equivalent :meth:`LeonSystem.grading_digest`.
        """
        components = self.components
        if architectural:
            components = {
                name: strip_diag(payload)
                for name, payload in components.items()
                if name not in OBSERVATION_COMPONENTS
            }
        blob = pickle.dumps((self.config_key, components), PICKLE_PROTOCOL)
        return hashlib.sha256(blob).hexdigest()


# -- RNG state helpers --------------------------------------------------------

def capture_rng(rng: random.Random) -> Tuple:
    """Canonical (picklable, comparable) form of a Random's state."""
    version, internal, gauss = rng.getstate()
    return (version, tuple(internal), gauss)


def restore_rng(rng: random.Random, state: Tuple) -> None:
    """Restore a Random from :func:`capture_rng` output."""
    try:
        version, internal, gauss = state
        rng.setstate((version, tuple(internal), gauss))
    except (TypeError, ValueError) as exc:
        raise StateError(f"invalid RNG state: {exc}") from None
