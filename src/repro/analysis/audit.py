"""Runtime cross-check behind ``repro lint --audit``.

Static analysis sees the source; it cannot see attributes conjured by
``setattr``, storage added after the scanner was written, or a snapshot
that silently stopped round-tripping.  The audit instantiates a real
:class:`~repro.core.system.LeonSystem`, runs the pinned test program a
few thousand instructions, and checks the invariants *live*:

``state-drift``
    Every attribute found on a snapshotable component instance must be
    known to the static model (assigned somewhere the scanner saw).  An
    unknown live attribute means state the FT101 rule can never audit.

``snapshot-roundtrip``
    ``snapshot() -> to_bytes() -> from_bytes() -> restore()`` into a
    fresh system reproduces the state bit-for-bit, serialization is
    byte-stable, both the architectural and the grading digest of the
    restored copy match the original's, and so does its *future*
    (architectural digest after further execution).

``injector-coverage``
    Every atomic storage object reachable from the system (anything
    exposing ``inject_flat``/``total_bits``) is wired to a
    :class:`~repro.fault.injector.FaultInjector` target -- the runtime
    counterpart of FT102: no bit cell group escapes the fault space.

``reset-skip``
    ``RESET_SKIP`` names both cumulative counter components, and a
    ``restore(..., skip=RESET_SKIP)`` really leaves the live error
    counters untouched (the FT401/FT402 contract, executed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.model import ProjectModel

#: Instructions the audit system executes before the first snapshot.
WARMUP_INSTRUCTIONS = 3_000
#: Instructions used to compare original vs restored futures.
FUTURE_INSTRUCTIONS = 1_500


def _built():
    """A warmed-up system running the pinned ``iutest`` program."""
    from repro.fault.campaign import Campaign, CampaignConfig

    campaign = Campaign(CampaignConfig(program="iutest"))
    system, spin, _base, _program = campaign._build_program()
    return system, spin


def _walk_objects(root: Any, *, max_depth: int = 6) -> Iterator[Any]:
    """Every repro-package object reachable from *root* attributes."""
    from collections import deque

    # Breadth-first with dedup at enqueue time, so every object is
    # traversed at its *minimal* depth (a deep alias of a shallow
    # component must not burn the depth budget first).
    seen: Set[int] = {id(root)}
    queue: deque = deque([(root, 0)])
    while queue:
        obj, depth = queue.popleft()
        module = getattr(type(obj), "__module__", "")
        if not module.startswith("repro."):
            continue
        yield obj
        if depth >= max_depth or not hasattr(obj, "__dict__"):
            continue

        def enqueue(item: Any) -> None:
            if id(item) not in seen:
                seen.add(id(item))
                queue.append((item, depth + 1))

        for value in vars(obj).values():
            enqueue(value)
            if isinstance(value, (list, tuple)):
                for item in value:
                    enqueue(item)
            elif isinstance(value, dict):
                for item in value.values():
                    enqueue(item)


def check_state_drift(model: ProjectModel) -> List[str]:
    system, _spin = _built()
    failures: List[str] = []
    reported: Set[Tuple[str, str]] = set()
    for obj in _walk_objects(system):
        record = model.lookup(type(obj).__name__)
        if record is None or not hasattr(obj, "__dict__"):
            continue
        audited = (record.name == "LeonSystem"
                   or (record.has_capture and record.init_attrs))
        if not audited:
            continue
        known = model.known_attrs(record)
        for attr in vars(obj):
            if attr.startswith("__") or attr in known:
                continue
            key = (record.name, attr)
            if key in reported:
                continue
            reported.add(key)
            failures.append(
                f"{record.name}.{attr} exists on the live instance but "
                f"was never seen by the static scanner "
                f"({record.module_path}): state the lint cannot audit")
    return failures


def check_snapshot_roundtrip(model: ProjectModel) -> List[str]:
    from repro.state.snapshot import Snapshot

    failures: List[str] = []
    system, spin = _built()
    system.run(WARMUP_INSTRUCTIONS, stop_pc=spin)
    snap = system.snapshot()
    blob = snap.to_bytes()
    decoded = Snapshot.from_bytes(blob)
    if decoded != snap:
        failures.append("Snapshot.from_bytes(to_bytes()) is not an "
                        "exact round-trip")
    if decoded.to_bytes() != blob:
        failures.append("snapshot serialization is not byte-stable "
                        "(to_bytes differs after a decode cycle)")

    clone, clone_spin = _built()
    clone.restore(decoded)
    if clone.snapshot() != snap:
        failures.append("restoring a snapshot into a fresh system does "
                        "not reproduce the captured state")
    if clone.state_digest() != system.state_digest():
        failures.append("restored system's architectural digest differs "
                        "from the original's")
    if clone.grading_digest() != system.grading_digest():
        failures.append("restored system's grading digest differs from "
                        "the original's")

    system.run(FUTURE_INSTRUCTIONS, stop_pc=spin)
    clone.run(FUTURE_INSTRUCTIONS, stop_pc=clone_spin)
    if clone.state_digest() != system.state_digest():
        failures.append(
            f"restored system diverges from the original within "
            f"{FUTURE_INSTRUCTIONS} instructions: snapshot state is "
            f"incomplete (some execution-relevant state escaped capture)")
    return failures


def _target_anchors(inject: Callable) -> Iterator[Any]:
    """Objects a target's ``inject_flat`` callable is anchored to."""
    bound = getattr(inject, "__self__", None)
    if bound is not None:
        yield bound
    closure = getattr(inject, "__closure__", None) or ()
    for cell in closure:
        try:
            yield cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue


def check_injector_coverage(model: ProjectModel) -> List[str]:
    from repro.fault.injector import FaultInjector

    failures: List[str] = []
    system, _spin = _built()
    storage = {
        id(obj): obj for obj in _walk_objects(system)
        if callable(getattr(obj, "inject_flat", None))
        and isinstance(getattr(obj, "total_bits", None), int)
    }
    injector = FaultInjector(system, include_external_memory=True)
    covered: Set[int] = set()
    for name, target in injector.targets.items():
        if target.bits <= 0:
            failures.append(f"injector target {name!r} has no bits")
        for anchor in _target_anchors(target.inject_flat):
            covered.add(id(anchor))
    def is_aggregate(obj: Any) -> bool:
        """An injectable façade whose bits all live in covered parts
        (the caches expose tag+data as one flat space)."""
        parts = [value for value in vars(obj).values()
                 if id(value) in storage]
        return bool(parts) and all(id(part) in covered for part in parts)

    missing = [obj for oid, obj in storage.items()
               if oid not in covered and not is_aggregate(obj)]
    for obj in missing:
        failures.append(
            f"storage object {type(obj).__name__} "
            f"(name={getattr(obj, 'name', '?')!r}, "
            f"{obj.total_bits} bits) is reachable from the system but "
            f"wired to no injector target: bits outside the fault space")
    return failures


def check_reset_skip(model: ProjectModel) -> List[str]:
    from repro.recovery.controller import RESET_SKIP

    failures: List[str] = []
    required = {"errors", "perf"}
    if not required <= set(RESET_SKIP):
        failures.append(
            f"RESET_SKIP={RESET_SKIP!r} no longer names both cumulative "
            f"counter components {sorted(required)}")
        return failures

    system, spin = _built()
    system.run(WARMUP_INSTRUCTIONS, stop_pc=spin)
    checkpoint = system.snapshot()
    system.errors.ite += 7  # a post-checkpoint detection
    before = system.errors.as_dict()
    system.restore(checkpoint, skip=RESET_SKIP)
    after = system.errors.as_dict()
    if after != before:
        failures.append(
            f"restore(skip=RESET_SKIP) rewound the error counters "
            f"({before} -> {after}): recovery would erase campaign "
            f"observations")
    return failures


def check_fault_models(model: ProjectModel) -> List[str]:
    """Live counterpart of FT103: each model's fault space is honest.

    For every registered fault model, enumerate its fault space against
    a real system and require (a) a non-empty space of positive-width
    cells, (b) every enumerated cell to be a declared ``TARGETS`` entry,
    and (c) -- for ``EXHAUSTIVE`` models -- every declared target that
    exists on the device to appear in the enumeration.  Attack models
    narrow their space to the configured site, so (c) is skipped there.
    """
    from repro.fault.campaign import CampaignConfig
    from repro.fault.injector import FaultInjector
    from repro.fault.models import MODELS, build_model

    failures: List[str] = []
    system, _spin = _built()
    injector = FaultInjector(system, include_external_memory=True)
    ffnames = set(system.ffbank.names())
    config = CampaignConfig(
        # Attack models need a site to enumerate around; any in-SRAM
        # address works (the audit never applies a fault).
        fault_params={"pc": int(system.memctrl.sram.base), "window": 4})
    for kind in sorted(MODELS):
        instance = build_model(kind, config)
        space = instance.fault_space(injector)
        declared = set(instance.TARGETS)
        if not space:
            failures.append(f"fault model {kind!r} enumerates an empty "
                            f"fault space")
            continue
        for cell, bits in sorted(space.items()):
            if bits <= 0:
                failures.append(f"fault model {kind!r} cell {cell!r} "
                                f"has no bits")
            if cell not in declared:
                failures.append(
                    f"fault model {kind!r} enumerates cell {cell!r} "
                    f"outside its declared TARGETS: undeclared strike "
                    f"surface")
        if not instance.EXHAUSTIVE:
            continue
        present = {name for name in instance.TARGETS
                   if name in injector.targets or name in ffnames
                   or name in space}
        for name in sorted(present - set(space)):
            failures.append(
                f"fault model {kind!r} declares target {name!r} but its "
                f"fault space never enumerates it: cells outside the "
                f"audited space")
    return failures


#: Audit checks in report order: (name, what a failure means).
CHECKS: Tuple[Tuple[str, Callable[[ProjectModel], List[str]]], ...] = (
    ("state-drift", check_state_drift),
    ("snapshot-roundtrip", check_snapshot_roundtrip),
    ("injector-coverage", check_injector_coverage),
    ("reset-skip", check_reset_skip),
    ("fault-model-coverage", check_fault_models),
)


def run_audit(model: Optional[ProjectModel] = None) -> Dict[str, Any]:
    """Run every live check; returns a JSON-ready result payload."""
    if model is None:
        from pathlib import Path

        import repro
        from repro.analysis.core import SourceModule, iter_python_files

        modules = [SourceModule.load(path) for path in
                   iter_python_files([Path(repro.__file__).parent])]
        model = ProjectModel.build(modules)
    checks = []
    ok = True
    for name, check in CHECKS:
        try:
            failures = check(model)
        except Exception as exc:  # noqa: BLE001 - audit must report, not die
            failures = [f"check crashed: {type(exc).__name__}: {exc}"]
        checks.append({"name": name, "ok": not failures,
                       "failures": failures})
        ok = ok and not failures
    return {"ok": ok, "checks": checks}


def render_audit_text(result: Dict[str, Any]) -> str:
    lines = []
    for check in result["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        lines.append(f"audit {check['name']}: {status}")
        for failure in check["failures"]:
            lines.append(f"  - {failure}")
    return "\n".join(lines)
