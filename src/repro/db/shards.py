"""Hash-sharded extents: the partition layer under per-shard commits.

An extent is logically one oid-set (§3.3); this module partitions it
*physically* across ``k`` hash shards — on the oid by default, or on a
declared attribute (``Database.shard(C, by="region", k=8)``).  The
partition is pure bookkeeping: membership, answers and the effect
system are untouched (a sharded run must be ``≡`` the unsharded run),
but three things get finer-grained:

* **commits** — an ``A``-only commit, which merges its delta into the
  current environments on any database, also stages per-shard
  partitions under per-shard install versions (``shard.install``
  fault site);
* **execution** — the compiled engine prunes equality-constrained scans
  to one shard and fans full scans out per-shard on a worker pool
  (:mod:`repro.exec.parallel`);
* **invalidation and freshness** — the Figure 3 atoms ``R(C)``/``A(C)``
  refine to ``(C, shard)``: Theorem 5 applied per-partition says a
  write confined to shard ``i`` cannot be observed by a read confined
  to shard ``j ≠ i``, which drives the plan/result cache, the
  scheduler's conflict graph and the replicas' per-shard watermarks.

Shard assignment must be stable across processes (shard ids travel in
WAL ``shard-delta`` records that replicas replay), so hashing uses
``zlib.crc32`` over a canonical rendering of the key — never Python's
randomised ``hash``.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from repro.errors import ReproError
from repro.lang.ast import (
    BoolLit,
    Comp,
    DefCall,
    ExtentRef,
    Field,
    Gen,
    IntLit,
    MethodCall,
    New,
    OidRef,
    Pred,
    PrimEq,
    Query,
    StrLit,
    Var,
)
from repro.lang.traversal import walk
from repro.resilience.faults import maybe_fault

_PRIM_LITS = (IntLit, BoolLit, StrLit)


@dataclass(frozen=True)
class ShardSpec:
    """One extent's declared partitioning: ``k`` shards keyed by ``by``
    (an attribute of the class) or, when ``by is None``, by the oid."""

    cname: str
    extent: str
    k: int
    by: str | None = None

    def describe(self) -> str:
        return f"{self.extent} k={self.k} by={self.by or 'oid'}"


def shard_key(value: Query) -> str:
    """A canonical, process-independent string key for a value AST."""
    if isinstance(value, IntLit):
        return f"i:{value.value}"
    if isinstance(value, BoolLit):
        return f"b:{value.value}"
    if isinstance(value, StrLit):
        return f"s:{value.value}"
    if isinstance(value, OidRef):
        return f"o:{value.name}"
    # any other canonical value prints deterministically (frozen ASTs)
    from repro.lang.pprint import pretty

    return f"v:{pretty(value)}"


def shard_of(value: Query, k: int) -> int:
    """The shard a key value hashes to: crc32 of its canonical key."""
    return zlib.crc32(shard_key(value).encode("utf-8")) % k


def oid_shard(oid: str, k: int) -> int:
    """The shard an oid hashes to (default, attribute-less sharding)."""
    return zlib.crc32(oid.encode("utf-8")) % k


class ShardedExtents:
    """The registry of shard specs plus the cached physical partitions.

    A partition is a tuple of ``k`` frozensets whose union is the
    extent's membership, cached against the store version with the same
    validate-or-rebuild discipline as
    :class:`repro.db.store.AttributeIndexes`.  ``A``-only commits
    install by *merging* new frozensets for exactly the touched shards
    (:meth:`prepare_install` / :meth:`commit_staged`), so untouched
    shards keep their object identity — which downstream caches use as
    a free validity token.
    """

    def __init__(self) -> None:
        self.specs: dict[str, ShardSpec] = {}
        self._by_class: dict[str, ShardSpec] = {}
        # extent -> (store version the partition reflects, parts tuple)
        self._parts: dict[str, tuple[int, tuple[frozenset[str], ...]]] = {}
        # extent -> per-shard install counters (health: version skew)
        self._versions: dict[str, list[int]] = {}
        self.epoch = 0
        self.installs = 0
        self.rebuilds = 0
        self._lock = threading.RLock()

    # -- declaration -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self.specs)

    def set_spec(self, spec: ShardSpec) -> None:
        with self._lock:
            self.specs[spec.extent] = spec
            self._by_class[spec.cname] = spec
            self._parts.pop(spec.extent, None)
            self._versions[spec.extent] = [0] * spec.k
            self.epoch += 1

    def spec(self, extent: str) -> ShardSpec | None:
        return self.specs.get(extent)

    def spec_for_class(self, cname: str) -> ShardSpec | None:
        return self._by_class.get(cname)

    # -- assignment ------------------------------------------------------
    def shard_of_record(self, spec: ShardSpec, oid: str, rec) -> int:
        """Which shard a live object belongs to under ``spec``."""
        if spec.by is None:
            return oid_shard(oid, spec.k)
        return shard_of(rec.attr(spec.by), spec.k)

    # -- partitions ------------------------------------------------------
    def _split(
        self, spec: ShardSpec, members: frozenset[str], oe
    ) -> tuple[frozenset[str], ...]:
        buckets: list[set[str]] = [set() for _ in range(spec.k)]
        for oid in members:
            buckets[self.shard_of_record(spec, oid, oe.get(oid))].add(oid)
        return tuple(frozenset(b) for b in buckets)

    def partition(
        self, extent: str, ee, oe, version: int
    ) -> tuple[frozenset[str], ...] | None:
        """The shard partition of ``extent`` at ``version`` (or ``None``).

        ``None`` means the extent is unsharded or the caller holds a
        pinned snapshot (``version < 0``) — callers fall back to the
        whole-extent path, which is always correct.  A stale cached
        partition is rebuilt from the passed environments and stamped.
        """
        spec = self.specs.get(extent)
        if spec is None:
            return None
        if version < 0:
            return None
        with self._lock:
            hit = self._parts.get(extent)
            if hit is not None and hit[0] == version:
                return hit[1]
        parts = self._split(spec, ee.members(extent), oe)
        with self._lock:
            self._parts[extent] = (version, parts)
            vs = self._versions.setdefault(extent, [0] * spec.k)
            for i in range(spec.k):
                vs[i] += 1
            self.rebuilds += 1
        return parts

    # -- per-shard installs (A-only commits) -----------------------------
    def prepare_install(
        self, pre_version: int, shard_adds: dict[str, dict[int, set[str]]]
    ) -> dict[str, tuple[frozenset[str], ...] | None]:
        """Stage the post-commit partitions for the touched shards.

        Fires the ``shard.install`` fault site once per touched shard
        *before* anything durable or visible happens: an injected fault
        here aborts the whole commit with nothing logged and nothing
        installed, which is exactly the atomicity the per-shard install
        must preserve.  Returns the staged parts per extent (``None``
        when the cached partition is stale and will rebuild lazily).
        Caller must hold the database commit lock.
        """
        for extent in sorted(shard_adds):
            if extent in self.specs:
                for _shard in sorted(shard_adds[extent]):
                    maybe_fault("shard.install")
        staged: dict[str, tuple[frozenset[str], ...] | None] = {}
        with self._lock:
            for extent in sorted(shard_adds):
                spec = self.specs.get(extent)
                if spec is None:
                    continue
                hit = self._parts.get(extent)
                if hit is not None and hit[0] == pre_version:
                    parts = list(hit[1])
                    for shard, added in shard_adds[extent].items():
                        # a fresh frozenset only for touched shards: the
                        # untouched ones keep identity (cache token)
                        parts[shard] = parts[shard] | added
                    staged[extent] = tuple(parts)
                else:
                    staged[extent] = None
        return staged

    def commit_staged(
        self,
        staged: dict[str, tuple[frozenset[str], ...] | None],
        shard_adds: dict[str, dict[int, set[str]]],
        post_version: int,
    ) -> None:
        """Swap the staged partitions in after the state installed."""
        with self._lock:
            for extent, parts in staged.items():
                spec = self.specs.get(extent)
                if spec is None:
                    continue
                if parts is None:
                    self._parts.pop(extent, None)
                else:
                    self._parts[extent] = (post_version, parts)
                vs = self._versions.setdefault(extent, [0] * spec.k)
                for shard in shard_adds.get(extent, {}):
                    if 0 <= shard < len(vs):
                        vs[shard] += 1
                self.installs += 1

    # -- health ----------------------------------------------------------
    def snapshot(self, ee=None) -> dict:
        """JSON-safe health view: per-extent layout and version skew."""
        with self._lock:
            extents = {}
            for extent, spec in sorted(self.specs.items()):
                hit = self._parts.get(extent)
                sizes = [len(p) for p in hit[1]] if hit is not None else None
                versions = list(self._versions.get(extent, [0] * spec.k))
                entry = {
                    "class": spec.cname,
                    "by": spec.by or "oid",
                    "k": spec.k,
                    "shard_sizes": sizes,
                    "size_skew": (
                        max(sizes) - min(sizes) if sizes else None
                    ),
                    "shard_versions": versions,
                    "version_skew": max(versions) - min(versions),
                }
                if ee is not None and extent in ee:
                    entry["rows"] = len(ee.members(extent))
                extents[extent] = entry
            return {
                "extents": extents,
                "epoch": self.epoch,
                "installs": self.installs,
                "rebuilds": self.rebuilds,
            }


# ---------------------------------------------------------------------------
# the commit-side delta computation
# ---------------------------------------------------------------------------


def commit_deltas(
    shards: ShardedExtents,
    schema,
    base_ee,
    result_ee,
    result_oe,
    add_classes,
) -> tuple[dict[str, frozenset[str]], dict[str, dict[int, set[str]]]]:
    """What one ``A``-only evaluation added, per extent and per shard.

    Returns ``(extent_adds, shard_adds)``: the oids that joined each
    touched extent relative to the evaluation's base environments, and
    — for extents with a shard spec — the same oids bucketed by shard.
    Theorem 5 bounds the touched extents by the static ``A`` atoms, so
    this is the whole physical delta of the commit.
    """
    extent_adds: dict[str, frozenset[str]] = {}
    shard_adds: dict[str, dict[int, set[str]]] = {}
    for cname in sorted(add_classes):
        try:
            extent = schema.class_extent(cname)
        except Exception:
            continue  # extent-less class: nothing durable changed
        added = result_ee.members(extent) - base_ee.members(extent)
        extent_adds[extent] = added
        spec = shards.spec(extent)
        if spec is not None:
            per: dict[int, set[str]] = {}
            for oid in added:
                s = shards.shard_of_record(spec, oid, result_oe.get(oid))
                per.setdefault(s, set()).add(oid)
            shard_adds[extent] = per
    return extent_adds, shard_adds


# ---------------------------------------------------------------------------
# static shard analysis (Figure 3 atoms refined to (class, shard))
# ---------------------------------------------------------------------------


def _comp_constrained_shards(
    comp: Comp, gen: Gen, spec: ShardSpec
) -> frozenset[int] | None:
    """The shards a generator over a sharded extent provably stays in.

    A generator ``x <- E`` is confined to shard ``h(v)`` when the same
    comprehension carries a pure predicate ``x.by = v`` with ``v`` a
    literal — every row surviving the predicate has the shard
    attribute equal to ``v``, hence lives in that one shard, and rows
    the scan would skip are exactly rows the predicate rejects.
    Returns ``None`` when no such predicate constrains the generator.
    """
    if spec.by is None:
        return None
    shards: set[int] = set()
    for cq in comp.qualifiers:
        if not isinstance(cq, Pred):
            continue
        cond = cq.cond
        if not isinstance(cond, PrimEq):
            continue
        for fld, lit in ((cond.left, cond.right), (cond.right, cond.left)):
            if (
                isinstance(fld, Field)
                and isinstance(fld.target, Var)
                and fld.target.name == gen.var
                and fld.name == spec.by
                and isinstance(lit, _PRIM_LITS)
            ):
                shards.add(shard_of(lit, spec.k))
    return frozenset(shards) if shards else None


def static_read_shards(
    shards: ShardedExtents, schema, q: Query
) -> dict[str, frozenset[int]] | None:
    """Per-class shard sets this query's reads provably stay within.

    The returned dict maps a class name to the set of shards every
    occurrence of its extent is confined to; a class *absent* from the
    dict must be treated as reading **all** shards.  Returns ``None``
    (no refinement at all) when the query calls definitions or methods
    — their bodies read extents this syntactic walk cannot see.
    """
    if shards is None or not shards.enabled:
        return None
    if any(isinstance(n, (DefCall, MethodCall)) for n in walk(q)):
        return None
    # every ExtentRef occurrence of a sharded extent must be a
    # generator source confined by an equality on the shard attribute
    occurrences: dict[str, int] = {}
    confined: dict[str, list[frozenset[int]]] = {}
    for node in walk(q):
        if isinstance(node, ExtentRef) and shards.spec(node.name) is not None:
            occurrences[node.name] = occurrences.get(node.name, 0) + 1
    if not occurrences:
        return {}
    for node in walk(q):
        if not isinstance(node, Comp):
            continue
        gen_vars = [cq.var for cq in node.qualifiers if isinstance(cq, Gen)]
        dup_vars = len(set(gen_vars)) != len(gen_vars)
        for cq in node.qualifiers:
            if not isinstance(cq, Gen):
                continue
            src = cq.source
            if isinstance(src, ExtentRef) and src.name in occurrences:
                spec = shards.spec(src.name)
                got = (
                    None
                    if dup_vars
                    else _comp_constrained_shards(node, cq, spec)
                )
                if got is not None:
                    confined.setdefault(src.name, []).append(got)
    out: dict[str, frozenset[int]] = {}
    for extent, n in occurrences.items():
        sets = confined.get(extent, [])
        if len(sets) == n:  # every occurrence individually confined
            union: frozenset[int] = frozenset()
            for s in sets:
                union |= s
            out[schema.extent_class(extent)] = union
    return out


def static_write_shards(
    shards: ShardedExtents, schema, q: Query
) -> dict[str, frozenset[int]] | None:
    """Per-class shard sets this query's ``new``s provably stay within.

    A ``new C(..., by: lit, ...)`` with a literal shard-attribute value
    creates an object in exactly shard ``h(lit)``.  A class absent from
    the dict writes **unknown** shards (treat as all); ``None`` means
    no refinement (definitions/methods hide ``new``s from the walk).
    """
    if shards is None or not shards.enabled:
        return None
    if any(isinstance(n, (DefCall, MethodCall)) for n in walk(q)):
        return None
    out: dict[str, frozenset[int] | None] = {}
    for node in walk(q):
        if not isinstance(node, New):
            continue
        spec = shards.spec_for_class(node.cname)
        if spec is None or spec.by is None:
            continue  # unsharded or oid-sharded: shard unknowable here
        lit = None
        for label, value in node.fields:
            if label == spec.by:
                lit = value
                break
        if isinstance(lit, _PRIM_LITS):
            prev = out.get(node.cname, frozenset())
            if prev is not None:
                out[node.cname] = prev | {shard_of(lit, spec.k)}
        else:
            out[node.cname] = None  # one dynamic-keyed new poisons the class
    return {c: s for c, s in out.items() if s is not None}


def validate_spec(schema, cname: str, by: str | None, k: int) -> ShardSpec:
    """Check a ``Database.shard`` declaration against the schema."""
    if k < 1:
        raise ReproError(f"shard count must be >= 1, got {k}")
    try:
        extent = schema.class_extent(cname)
    except Exception:
        raise ReproError(
            f"class {cname!r} has no extent to shard"
        ) from None
    if by is not None:
        attrs = {name for name, _ in schema.atypes(cname)}
        if by not in attrs:
            raise ReproError(
                f"class {cname!r} has no attribute {by!r} to shard by "
                f"(attributes: {', '.join(sorted(attrs))})"
            )
    return ShardSpec(cname=cname, extent=extent, k=k, by=by)
