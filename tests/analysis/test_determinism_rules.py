"""FT201-FT205: determinism fixtures (jobs-invariance contracts)."""

from repro.analysis import analyze_source


def _codes(findings):
    return [f.code for f in findings if not f.suppressed]


# -- FT201 det-random ---------------------------------------------------------


def test_global_random_api_is_flagged():
    findings = analyze_source(
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n")
    assert _codes(findings) == ["FT201"]


def test_unseeded_random_instance_is_flagged():
    findings = analyze_source(
        "import random\n"
        "rng = random.Random()\n")
    assert _codes(findings) == ["FT201"]


def test_seeded_random_instance_is_clean():
    assert analyze_source(
        "import random\n"
        "def rng_for(seed):\n"
        "    return random.Random(seed)\n") == []


# -- FT202 det-time -----------------------------------------------------------


def test_wall_clock_reads_are_flagged():
    findings = analyze_source(
        "import time, datetime\n"
        "def stamp():\n"
        "    return time.time(), datetime.datetime.now()\n")
    assert _codes(findings) == ["FT202", "FT202"]


def test_perf_counter_is_legal_diagnostic_timing():
    assert analyze_source(
        "import time\n"
        "def elapsed(start):\n"
        "    return time.perf_counter() - start\n") == []


# -- FT203 det-id-order -------------------------------------------------------


def test_id_keyed_sort_is_flagged():
    findings = analyze_source(
        "def order(objs):\n"
        "    return sorted(objs, key=lambda o: id(o))\n")
    assert _codes(findings) == ["FT203"]


def test_name_keyed_sort_is_clean():
    assert analyze_source(
        "def order(objs):\n"
        "    return sorted(objs, key=lambda o: o.name)\n") == []


# -- FT204 det-set-iter -------------------------------------------------------


def test_iterating_a_set_local_is_flagged():
    findings = analyze_source(
        "def visit(items):\n"
        "    pending = set(items)\n"
        "    for item in pending:\n"
        "        print(item)\n")
    assert _codes(findings) == ["FT204"]


def test_sorted_set_iteration_is_clean():
    assert analyze_source(
        "def visit(items):\n"
        "    pending = set(items)\n"
        "    for item in sorted(pending):\n"
        "        print(item)\n") == []


def test_set_typed_self_attribute_iteration_is_flagged():
    findings = analyze_source(
        "class Tracker:\n"
        "    def __init__(self):\n"
        "        self._suspect = set()  # state: diag\n"
        "    def report(self):\n"
        "        return [word for word in self._suspect]\n",
        "repro/cache/fixture.py")
    assert _codes(findings) == ["FT204"]


def test_suppression_comment_silences_set_iteration():
    findings = analyze_source(
        "def visit(items):\n"
        "    pending = set(items)\n"
        "    for item in pending:  # lint: ok=det-set-iter -- order-free\n"
        "        print(item)\n")
    assert [f.suppressed for f in findings] == [True]


# -- FT205 det-digest-diag ----------------------------------------------------


def test_full_digest_comparison_is_flagged():
    findings = analyze_source(
        "def reconverged(snap, golden):\n"
        "    return snap.digest(architectural=False) == golden\n")
    assert _codes(findings) == ["FT205"]


def test_architectural_digest_is_clean():
    assert analyze_source(
        "def reconverged(snap, golden):\n"
        "    return snap.digest() == golden\n") == []


def test_hash_over_capture_without_strip_diag_is_flagged():
    findings = analyze_source(
        "import hashlib\n"
        "import pickle\n"
        "def digest(self):\n"
        "    payload = pickle.dumps(self.cache.capture())\n"
        "    return hashlib.sha256(payload).hexdigest()\n")
    assert _codes(findings) == ["FT205"]


def test_hash_with_strip_diag_is_clean():
    assert analyze_source(
        "import hashlib\n"
        "import pickle\n"
        "from repro.state.snapshot import strip_diag\n"
        "def digest(self):\n"
        "    payload = pickle.dumps(strip_diag(self.cache.capture()))\n"
        "    return hashlib.sha256(payload).hexdigest()\n") == []


def test_hash_with_drop_diag_is_clean():
    assert analyze_source(
        "import hashlib\n"
        "import pickle\n"
        "from repro.state.snapshot import drop_diag\n"
        "def digest(self):\n"
        "    payload = pickle.dumps(drop_diag(self.cache.capture()))\n"
        "    return hashlib.sha256(payload).hexdigest()\n") == []


def test_hash_with_diag_helper_elsewhere_is_still_flagged():
    findings = analyze_source(
        "import hashlib\n"
        "import pickle\n"
        "from repro.state.snapshot import drop_diag\n"
        "def view(self):\n"
        "    return drop_diag(self.cache.capture())\n"
        "def digest(self):\n"
        "    payload = pickle.dumps(self.cache.capture())\n"
        "    return hashlib.sha256(payload).hexdigest()\n")
    assert _codes(findings) == ["FT205"]


def test_hash_over_components_without_strip_diag_is_flagged():
    findings = analyze_source(
        "import hashlib\n"
        "import pickle\n"
        "def digest(snapshot):\n"
        "    blob = pickle.dumps(snapshot.components)\n"
        "    return hashlib.sha256(blob).hexdigest()\n")
    assert _codes(findings) == ["FT205"]


def test_hash_unrelated_to_snapshots_is_clean():
    assert analyze_source(
        "import hashlib\n"
        "def content_hash(data):\n"
        "    return hashlib.sha256(data).hexdigest()\n") == []


def test_suppression_comment_silences_full_digest():
    findings = analyze_source(
        "def show(snap):\n"
        "    print(snap.digest(architectural=False))"
        "  # lint: ok=det-digest-diag -- display-only\n")
    assert [f.suppressed for f in findings] == [True]
