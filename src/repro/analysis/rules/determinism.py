"""Determinism rules: the jobs-invariance and resume contracts.

Campaign results are promised byte-identical across ``--jobs N``,
warm-start, and ``--resume`` -- which only holds if nothing in a
result-producing path consults ambient nondeterminism.

``det-random`` (FT201)
    Bans the module-level :mod:`random` API (``random.random()``,
    ``random.choice`` ...) and unseeded ``random.Random()``: all
    randomness must flow from seeded ``random.Random(seed)`` instances
    derived from the campaign seed.

``det-time`` (FT202)
    Bans wall-clock reads that can leak into results: ``time.time()``,
    ``datetime.now()``/``utcnow()``/``today()``.  ``time.perf_counter()``
    and ``time.monotonic()`` stay legal -- they feed the diagnostic
    ``wall_seconds`` fields that are excluded from result identity.

``det-id-order`` (FT203)
    Bans ``id(...)`` used as an ordering key (``sorted(key=...)``,
    ``.sort(key=...)``, ``min``/``max`` keys): CPython ids vary run to
    run, so id-keyed order is nondeterministic across processes.

``det-set-iter`` (FT204)
    Bans iterating a set/frozenset without ``sorted(...)``: set iteration
    order depends on insertion history and hash seeding of the process
    that built it, which breaks jobs-invariance the moment the loop body
    has any observable effect.

``det-digest-diag`` (FT205)
    Flags state digests that include diag/counter state.  Golden-timeline
    grading compares *architectural* digests: observation-only counters
    remember that a strike happened long after the architectural state
    has reconverged, so a digest computed over raw ``capture()`` payloads
    (without :func:`repro.state.snapshot.strip_diag` or its shallow form
    :func:`~repro.state.snapshot.drop_diag`) or via
    ``digest(architectural=False)`` would never match the golden run's
    and silently disable every early exit.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.core import Finding, Rule, SourceModule, register_rule
from repro.analysis.model import ProjectModel, is_set_expr

#: random-module functions that draw from the shared global RNG.
_GLOBAL_RNG = {
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "gammavariate", "lognormvariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
}

_WALL_CLOCK_TIME = {"time", "time_ns", "localtime", "ctime", "gmtime"}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}


def _call_chain(node: ast.expr) -> str:
    """Dotted name of a call target: ``datetime.datetime.now`` etc."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


@register_rule
class GlobalRandomRule(Rule):
    name = "det-random"
    code = "FT201"
    protects = "jobs-invariance: randomness flows from the campaign seed"

    def check(self, module: SourceModule,
              model: ProjectModel) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _call_chain(node.func)
            root, _, leaf = chain.rpartition(".")
            if root == "random" and leaf in _GLOBAL_RNG:
                yield self.finding(
                    module, node,
                    f"random.{leaf}() draws from the process-global RNG; "
                    f"use a seeded random.Random(seed) instance")
            elif chain == "random.Random" and not (node.args
                                                   or node.keywords):
                yield self.finding(
                    module, node,
                    "random.Random() without a seed is nondeterministic; "
                    "derive the seed from the campaign configuration")


@register_rule
class WallClockRule(Rule):
    name = "det-time"
    code = "FT202"
    protects = "resume/replay: results never depend on the wall clock"

    def check(self, module: SourceModule,
              model: ProjectModel) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _call_chain(node.func)
            root, _, leaf = chain.rpartition(".")
            if root == "time" and leaf in _WALL_CLOCK_TIME:
                yield self.finding(
                    module, node,
                    f"time.{leaf}() reads the wall clock in a "
                    f"result-producing path; use time.perf_counter() for "
                    f"diagnostic timing only")
            elif leaf in _WALL_CLOCK_DATETIME and root.split(".")[-1] in (
                    "datetime", "date"):
                yield self.finding(
                    module, node,
                    f"{chain}() reads the wall clock; results must not "
                    f"depend on when the run happened")


@register_rule
class IdOrderRule(Rule):
    name = "det-id-order"
    code = "FT203"
    protects = "jobs-invariance: no id()-keyed ordering"

    def check(self, module: SourceModule,
              model: ProjectModel) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            is_sorter = (isinstance(node.func, ast.Name)
                         and node.func.id in ("sorted", "min", "max")) or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort")
            if not is_sorter:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                for sub in ast.walk(keyword.value):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "id"):
                        yield self.finding(
                            module, node,
                            "ordering keyed on id(): CPython object ids "
                            "differ between worker processes, so this "
                            "order is not jobs-invariant")
                        break


class _SetScope:
    """Names known to hold sets inside one function."""

    def __init__(self) -> None:
        self.names: Dict[str, bool] = {}


@register_rule
class SetIterationRule(Rule):
    name = "det-set-iter"
    code = "FT204"
    protects = "jobs-invariance: unordered collections iterate sorted"

    def check(self, module: SourceModule,
              model: ProjectModel) -> Iterator[Finding]:
        class_sets = {
            record.name: record.set_attrs
            for records in model.classes.values()
            for record in records
            if record.module_path == module.path
        }
        for func, owner in _functions_with_owner(module.tree):
            set_attrs = set()
            for name, attrs in class_sets.items():
                if owner == name:
                    record = model.lookup(name)
                    if record is not None:
                        for mro in model.mro_records(record):
                            set_attrs |= mro.set_attrs
            yield from self._check_function(module, func, set_attrs)

    def _check_function(self, module: SourceModule, func,
                        set_attrs) -> Iterator[Finding]:
        local_sets = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                is_set = is_set_expr(value) or (
                    isinstance(node, ast.AnnAssign)
                    and _annotated_set(node.annotation))
                for target in targets:
                    if isinstance(target, ast.Name):
                        if is_set:
                            local_sets.add(target.id)
                        else:
                            local_sets.discard(target.id)
        iters = []
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append((node, node.iter))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    iters.append((node, generator.iter))
        for node, iterable in iters:
            if self._is_unordered(iterable, local_sets, set_attrs):
                yield self.finding(
                    module, node,
                    "iteration over a set: wrap the iterable in "
                    "sorted(...) so the order is deterministic")

    @staticmethod
    def _is_unordered(iterable: ast.expr, local_sets, set_attrs) -> bool:
        if is_set_expr(iterable):
            return True
        if isinstance(iterable, ast.Name):
            return iterable.id in local_sets
        if isinstance(iterable, ast.Attribute):
            if (isinstance(iterable.value, ast.Name)
                    and iterable.value.id == "self"):
                return iterable.attr in set_attrs
        return False


#: hashlib constructors a digest computation would call.
_HASH_CONSTRUCTORS = {
    "sha256", "sha224", "sha384", "sha512", "sha1", "md5",
    "blake2b", "blake2s", "sha3_224", "sha3_256", "sha3_384", "sha3_512",
    "new",
}


#: Helpers that exclude ``"diag"`` subtrees from a payload before hashing.
_DIAG_DROPPERS = {"strip_diag", "drop_diag"}


@register_rule
class DigestDiagRule(Rule):
    name = "det-digest-diag"
    code = "FT205"
    protects = "grading: convergence digests exclude diag/counter state"

    def check(self, module: SourceModule,
              model: ProjectModel) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and _call_chain(node.func).endswith(".digest")
                    and self._architectural_false(node)):
                yield self.finding(
                    module, node,
                    "digest(architectural=False) includes diag/counter "
                    "state; convergence and grading comparisons must use "
                    "the architectural digest")
        for func, _owner in _functions_with_owner(module.tree):
            yield from self._check_hash_function(module, func)

    @staticmethod
    def _architectural_false(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if (keyword.arg == "architectural"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False):
                return True
        return False

    def _check_hash_function(self, module: SourceModule,
                             func) -> Iterator[Finding]:
        """Flag hashes over snapshot/capture payloads lacking strip_diag.

        The heuristic is function-scoped: a hashlib constructor call in a
        function that also touches snapshot payloads (a ``.capture()``
        call or a ``components`` name) without ``strip_diag``/``drop_diag``
        or an ``OBSERVATION_COMPONENTS`` exclusion is hashing diag state.
        """
        hash_calls = []
        touches_payload = False
        strips = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                chain = _call_chain(node.func)
                root, _, leaf = chain.rpartition(".")
                if (root.split(".")[-1] == "hashlib"
                        and leaf in _HASH_CONSTRUCTORS):
                    hash_calls.append(node)
                if leaf == "capture":
                    touches_payload = True
                elif leaf in _DIAG_DROPPERS:
                    strips = True
            elif isinstance(node, ast.Name):
                if node.id == "components":
                    touches_payload = True
                elif node.id == "OBSERVATION_COMPONENTS":
                    strips = True
            elif isinstance(node, ast.Attribute):
                if node.attr == "components":
                    touches_payload = True
        if not (touches_payload and not strips):
            return
        for call in hash_calls:
            yield self.finding(
                module, call,
                "hash over snapshot/capture payloads without strip_diag: "
                "diag/counter state leaks into the digest and reconverged "
                "runs never match the golden timeline")


def _annotated_set(annotation: Optional[ast.expr]) -> bool:
    base = annotation
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Name):
        return base.id in ("set", "frozenset", "Set")
    if isinstance(base, ast.Attribute):
        return base.attr in ("Set", "FrozenSet", "MutableSet")
    return False


def _functions_with_owner(tree: ast.Module):
    """Yield (function, enclosing-class-name-or-None) pairs."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from visit(child, owner)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)
