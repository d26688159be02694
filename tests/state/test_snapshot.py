"""The Snapshot container: serialization, digests, RNG capture."""

import pickle
import random
import zlib

import pytest

from repro.errors import StateError
from repro.state.snapshot import (
    FORMAT_VERSION,
    PAGE_BYTES,
    Snapshot,
    capture_rng,
    drop_diag,
    restore_rng,
    strip_diag,
)


def _snapshot(**components) -> Snapshot:
    parts = {"regfile": {"data": (1, 2, 3)}, "errors": {"ite": 5}}
    parts.update(components)
    return Snapshot("config-A", parts)


# -- serialization -------------------------------------------------------------


def test_bytes_round_trip():
    snap = _snapshot()
    again = Snapshot.from_bytes(snap.to_bytes())
    assert again == snap
    assert again.config_key == "config-A"
    assert again.version == FORMAT_VERSION


def test_garbage_bytes_rejected():
    with pytest.raises(StateError):
        Snapshot.from_bytes(b"not a snapshot")


def test_version_mismatch_rejected():
    snap = _snapshot()
    snap.version = FORMAT_VERSION + 1
    with pytest.raises(StateError):
        Snapshot.from_bytes(snap.to_bytes())


def test_v1_blob_rejected():
    """A pre-v2 file (zlib over a plain pickle of the payload) is refused
    with the version message, not misread."""
    blob = zlib.compress(pickle.dumps({
        "version": 1, "config_key": "config-A",
        "components": _snapshot().components}, 4))
    with pytest.raises(StateError, match="v1 != supported v2"):
        Snapshot.from_bytes(blob)


def _planes(length=3 * PAGE_BYTES):
    """A page-multiple plane with two live bytes."""
    plane = bytearray(length)
    plane[length // 2 + 7] = 0xA5
    plane[-1] = 1
    return bytes(plane)


def test_page_multiple_bytes_round_trip_sparsely():
    snap = _snapshot(memory={"sram": {"words": _planes(),
                                      "check": bytes(PAGE_BYTES)}})
    blob = snap.to_bytes()
    assert len(blob) < PAGE_BYTES
    again = Snapshot.from_bytes(blob)
    assert again == snap
    assert again.digest() == snap.digest()
    assert again.digest(architectural=False) == \
        snap.digest(architectural=False)


@pytest.mark.parametrize("length", [0, 5, PAGE_BYTES - 1, PAGE_BYTES + 4])
def test_non_page_multiple_bytes_round_trip_unchanged(length):
    value = bytes(range(256)) * (length // 256) + bytes(length % 256)
    snap = _snapshot(uart1={"transmitted": value})
    again = Snapshot.from_bytes(snap.to_bytes())
    assert again.components["uart1"]["transmitted"] == value
    assert again == snap


def test_encoding_is_byte_stable_across_decode_cycles():
    snap = _snapshot(memory={"prom": {"words": _planes(),
                                      "check": _planes(PAGE_BYTES)}},
                     uart1={"transmitted": b"hello"})
    blob = snap.to_bytes()
    assert Snapshot.from_bytes(blob).to_bytes() == blob


def test_encoding_leaves_the_snapshot_untouched():
    words = _planes()
    snap = _snapshot(memory={"sram": {"words": words}})
    snap.to_bytes()
    assert snap.components["memory"]["sram"]["words"] is words


def test_equality_covers_config_key():
    assert _snapshot() != Snapshot("config-B", _snapshot().components)
    assert _snapshot() != object()


# -- digests -------------------------------------------------------------------


def test_architectural_digest_ignores_observation_components():
    plain = _snapshot()
    noisy = _snapshot(errors={"ite": 999}, perf={"cycles": 123})
    assert plain.digest() == noisy.digest()
    assert plain.digest(architectural=False) != \
        noisy.digest(architectural=False)


def test_architectural_digest_ignores_diag_subtrees():
    plain = _snapshot(dcache={"enabled": True, "diag": {"stores": 0}})
    noisy = _snapshot(dcache={"enabled": True, "diag": {"stores": 42}})
    assert plain.digest() == noisy.digest()


def test_architectural_digest_sees_architectural_changes():
    assert _snapshot().digest() != \
        _snapshot(regfile={"data": (1, 2, 4)}).digest()


def test_strip_diag_recurses_containers():
    value = {"a": {"diag": 1, "keep": [{"diag": 2, "x": 3}]}, "diag": 4}
    assert strip_diag(value) == {"a": {"keep": [{"x": 3}]}}


def test_drop_diag_removes_only_the_top_level_key():
    value = {"a": {"diag": 1}, "diag": 4, "b": 2}
    assert drop_diag(value) == {"a": {"diag": 1}, "b": 2}
    assert drop_diag({"a": 1}) == {"a": 1}
    assert drop_diag((1, 2)) == (1, 2)
    assert drop_diag(None) is None


# -- RNG capture ---------------------------------------------------------------


def test_rng_round_trip_continues_identically():
    rng = random.Random(7)
    rng.random()
    state = capture_rng(rng)
    expected = [rng.random() for _ in range(10)]
    other = random.Random(99)
    restore_rng(other, state)
    assert [other.random() for _ in range(10)] == expected


def test_rng_state_is_picklable_plain_data():
    version, internal, gauss = capture_rng(random.Random(1))
    assert isinstance(internal, tuple)
    assert all(isinstance(word, int) for word in internal)


def test_rng_restore_rejects_garbage():
    with pytest.raises(StateError):
        restore_rng(random.Random(), ("bogus",))
