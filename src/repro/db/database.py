"""A high-level façade over the whole system: one object to hold the
schema, the runtime environments (EE/OE), the definition environment
(DE), and the analysis/evaluation entry points.

This is the API a downstream user programs against::

    db = Database.from_odl('''
        class Person extends Object (extent Persons) {
            attribute string name;
        }
    ''')
    db.insert("Person", name="Ada")
    result = db.query("{ p.name | p <- Persons }")
    assert result.python() == {"Ada"}

Everything the paper formalises is reachable from here:

* :meth:`typecheck` — Figure 1;
* :meth:`effect_of` — Figure 3;
* :meth:`run` / :meth:`query` — Figures 2/4 under a chosen strategy;
* :meth:`explore` — all reduction orders;
* :meth:`is_deterministic` / :meth:`determinism_witnesses` — ⊢′;
* :meth:`check_commutable` — ⊢″;
* :meth:`optimize` — the effect-gated rewriter.

The database itself is mutated by queries exactly as the paper
dictates: a ``new`` in a query adds the object to its class extent and
the change *persists* (the façade commits the final EE/OE of a
successful evaluation).  Use :meth:`snapshot`/:meth:`restore` around
speculative work.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Mapping

from repro.effects.algebra import Effect, add as add_effect
from repro.effects.checker import EffectChecker
from repro.effects.commutativity import CommutationConflict, analyze_commutativity
from repro.effects.determinism import Interference, analyze_determinism
from repro.errors import BudgetExceeded, IOQLEffectError, IOQLTypeError
from repro.lang.ast import Definition, OidRef, Query
from repro.lang.parser import parse_program, parse_query
from repro.lang.traversal import resolve_extents
from repro.methods.ast import AccessMode
from repro.methods.typing import check_schema_methods
from repro.model.schema import Schema
from repro.model.types import ClassType, FuncType, Type
from repro.db.shards import ShardedExtents
from repro.db.statistics import StatisticsCatalog
from repro.db.store import (
    AttributeIndexes,
    ClosureIndexes,
    ExtentEnv,
    ObjectEnv,
    ObjectRecord,
    OidSupply,
)
from repro.db.wal import WriteAheadLog
from repro.errors import ReproError
from repro.lang.pprint import pretty, pretty_definition
from repro.exec.cache import PlanCache, schema_fingerprint
from repro.exec.engine import (
    PlanDecision,
    decide as _decide_engine,
    execute_plan,
    route_read as _route_read,
)
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.resilience.budget import Budget
from repro.resilience.faults import maybe_fault
from repro.resilience.retry import RetryExhausted, RetryPolicy, replay_decision
from repro.resilience.transactions import Transaction, TransactionScope
from repro.semantics.evaluator import DEFAULT_MAX_STEPS, EvalResult, evaluate
from repro.semantics.explorer import Exploration, explore
from repro.semantics.machine import Machine
from repro.semantics.strategy import FIRST, Strategy
from repro.typing.checker import check_definition, check_query
from repro.typing.context import TypeContext


@dataclass(frozen=True)
class Snapshot:
    """An immutable copy of the database state (EE, OE, definitions)."""

    ee: ExtentEnv
    oe: ObjectEnv
    definitions: tuple[Definition, ...]


class Database:
    """Schema + state + definitions + every checker and the machine."""

    def __init__(
        self,
        schema: Schema,
        *,
        method_mode: AccessMode = AccessMode.READ_ONLY,
        method_fuel: int = 10_000,
        check_methods: bool = True,
    ):
        self.schema = schema
        # the store version stamps every EE/OE replacement; plan/result
        # and index caches validate against it (see _note_write)
        self._state_version = 0
        self._defs_version = 0
        self._ee: ExtentEnv | None = None
        self._oe: ObjectEnv | None = None
        # oid→ClassType map memoised per store version: every typecheck
        # needs it, and between writes it cannot change (any EE/OE
        # install bumps _state_version through the setters above)
        self._oid_types_cache: tuple[int, dict[str, Type]] | None = None
        self._plan_cache = PlanCache(schema_fingerprint(schema))
        self._indexes = AttributeIndexes()
        # persistent interval (pre/post-order) indexes for unbounded
        # `traverse` (RED route); same Theorem 5 discipline as above
        self._closure_indexes = ClosureIndexes()
        # per-(extent, attribute) statistics for the cost-based
        # optimizer v2; maintained by the same Theorem 5 effect logic
        # as the caches (see _note_write)
        self._stats = StatisticsCatalog()
        # adaptive replanning: re-optimize mid-query when an observed
        # source cardinality diverges from the estimate by this factor
        # (None/0 disables the guards entirely)
        self.replan_ratio: float | None = 4.0
        # hash-sharded extents (repro.db.shards): empty = every path
        # behaves exactly as the unsharded database
        self._shards = ShardedExtents()
        self.ee = ExtentEnv.for_schema(schema)
        self.oe = ObjectEnv()
        self.supply = OidSupply()
        self.method_mode = method_mode
        self._definitions: dict[str, Definition] = {}
        self._def_types: dict[str, FuncType] = {}
        self._active_txn: Transaction | None = None
        # serialises EE/OE installation when run_many overlaps readers
        # with a committing writer (see repro.sched); the same lock
        # orders WAL appends, so the log order *is* the admission order
        self._commit_lock = threading.RLock()
        # durability (repro.db.wal / repro.db.recovery); None = volatile
        self._wal: WriteAheadLog | None = None
        self._wal_dir: str | None = None
        self._checkpoint_lsn = 0
        self._odl_source: str | None = None
        # replication (repro.replication): per-extent LSN watermarks —
        # the last WAL LSN whose static write effect touched each class
        # — plus a "star" mark for commits any query may observe through
        # reference chains (U/define/unattributed full records, the §5
        # caveat).  A replica covers a query's R-set iff its own marks
        # reach these.  Updated under _commit_lock right after the
        # append that assigned the LSN.
        self._write_marks: dict[str, int] = {}
        self._star_mark = 0
        self._replicas = None  # ReplicaSet | None
        # a fenced primary lost a failover: it must never commit again
        self._fenced = False
        # always-on query statistics (plain int bumps) feeding health();
        # the obs registry mirrors them only when instrumentation is on
        self._qstats: dict[str, int] = {
            "runs": 0,
            "compiled": 0,
            "reduction": 0,
            "bigstep": 0,
            "result_cache_hits": 0,
            "failures": 0,
            "budget_exhausted": 0,
            "crash_dumps": 0,
            "routed_reads": 0,
            "replans": 0,
        }
        # stats dict of the most recent run_many batch (repro.sched)
        self._last_batch: dict | None = None
        self.machine = Machine(
            schema,
            self._definitions,
            method_mode=method_mode,
            method_fuel=method_fuel,
            oid_supply=self.supply,
        )
        if check_methods:
            check_schema_methods(schema, method_mode)

    @staticmethod
    def from_odl(
        source: str,
        *,
        method_mode: AccessMode = AccessMode.READ_ONLY,
        method_fuel: int = 10_000,
    ) -> "Database":
        """Build a database from ODL class-definition text (§2 grammar)."""
        from repro.model.odl_parser import parse_schema

        schema = parse_schema(
            source,
            allow_method_effects=method_mode is AccessMode.EFFECTFUL,
        )
        db = Database(
            schema, method_mode=method_mode, method_fuel=method_fuel
        )
        # retained for durability: checkpoints embed the ODL verbatim
        db._odl_source = source
        return db

    @staticmethod
    def open(
        path: str,
        odl: str | None = None,
        *,
        sync: bool = True,
        method_mode: AccessMode = AccessMode.READ_ONLY,
        method_fuel: int = 10_000,
    ) -> "Database":
        """Open (or create) a **durable** database under directory ``path``.

        If ``path`` holds a checkpoint, the database is recovered from
        it — the last checkpoint plus every intact write-ahead-log
        record, truncating at the first torn record, so the result is
        the state of some prefix of the committed sequence (see
        ``docs/DURABILITY.md``).  Otherwise a fresh database is built
        from ``odl`` (required in that case), an initial checkpoint is
        written, and logging begins.  Either way every subsequent commit
        is journalled before it is installed; call :meth:`checkpoint` to
        fold the log and :meth:`close` when done.
        """
        from repro.db import recovery as _recovery

        if os.path.exists(_recovery.checkpoint_path(path)):
            return _recovery.recover(path, sync=sync).db
        if odl is None:
            from repro.db.persistence import PersistenceError

            raise PersistenceError(
                f"no checkpoint under {path!r} and no ODL source given: "
                "cannot create a database from nothing"
            )
        db = Database.from_odl(
            odl, method_mode=method_mode, method_fuel=method_fuel
        )
        db.attach_wal(path, sync=sync)
        return db

    # -- state versioning ------------------------------------------------
    @property
    def ee(self) -> ExtentEnv:
        return self._ee

    @ee.setter
    def ee(self, value: ExtentEnv) -> None:
        if value is not self._ee:
            self._state_version += 1
            self._ee = value

    @property
    def oe(self) -> ObjectEnv:
        return self._oe

    @oe.setter
    def oe(self, value: ObjectEnv) -> None:
        if value is not self._oe:
            self._state_version += 1
            self._oe = value

    def _note_write(
        self, effect: Effect, pre_version: int, shard_writes=None, adds=None
    ) -> None:
        """Effect-guided cache maintenance after a committed write.

        By Theorem 5 the dynamic trace of the committed statement is a
        subeffect of ``effect``, so a plan/result/index whose reads are
        disjoint from the written classes is provably unaffected: it is
        promoted to the new store version.  Affected entries are
        evicted.  State changes with *unknown* effects (restore,
        persistence load, rollback) never reach this method — their
        version bump alone lazily invalidates every cached result.

        ``shard_writes`` (class → exact shard ids, sharded classes
        only) lets the plan cache keep entries whose recorded reads
        were confined to disjoint shards of the written classes.
        ``adds`` (extent → newly added oids, passed by every ``A``-only
        commit) lets the statistics catalog fold the commit's rows into
        its column stats instead of evicting them.
        """
        post = self._state_version
        if post == pre_version:
            return
        self._plan_cache.note_write(
            effect, pre_version, post, shard_writes=shard_writes
        )
        self._indexes.note_write(self.schema, effect, pre_version, post)
        self._closure_indexes.note_write(self.schema, effect, pre_version, post)
        self._stats.note_write(
            self.schema,
            effect,
            pre_version,
            post,
            adds=adds,
            oe=self.oe,
            ee=self.ee,
        )

    # -- durability (repro.db.wal / repro.db.recovery) -------------------
    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, or ``None`` (volatile database)."""
        return self._wal

    @property
    def wal_dir(self) -> str | None:
        """The durable directory this database journals into, if any."""
        return self._wal_dir

    def attach_wal(
        self, path: str, *, odl_source: str | None = None, sync: bool = True
    ) -> "Database":
        """Start journalling this database under directory ``path``.

        Writes an initial checkpoint of the *current* state (so the log
        alone never has to carry the whole history) and opens the log.
        A database built straight from a :class:`Schema` object has no
        retained ODL text; one is reconstructed via
        :func:`repro.db.persistence.schema_to_odl` unless ``odl_source``
        is given.
        """
        from repro.db import recovery as _recovery
        from repro.db.persistence import schema_to_odl

        if self._wal is not None:
            raise ReproError(
                f"a write-ahead log is already attached ({self._wal_dir})"
            )
        if odl_source is not None:
            self._odl_source = odl_source
        elif self._odl_source is None:
            self._odl_source = schema_to_odl(self.schema)
        os.makedirs(path, exist_ok=True)
        self._wal_dir = os.path.abspath(path)
        self._wal = WriteAheadLog(
            _recovery.wal_path(self._wal_dir), next_lsn=1, sync=sync
        )
        # marks refer to LSNs of *this* log; a fresh log restarts them
        self._write_marks = {}
        self._star_mark = 0
        self.checkpoint()
        return self

    def _adopt_wal(self, path: str, *, next_lsn: int, sync: bool) -> None:
        """Recovery's attach: reuse an existing (already repaired) log."""
        from repro.db import recovery as _recovery

        self._wal_dir = os.path.abspath(path)
        self._wal = WriteAheadLog(
            _recovery.wal_path(self._wal_dir), next_lsn=next_lsn, sync=sync
        )
        self._write_marks = {}
        self._star_mark = 0

    # -- replication (repro.replication) ---------------------------------
    def _mark_written(
        self, lsn: int, effect: Effect | None, shard_writes=None
    ) -> None:
        """Advance the per-extent watermarks for the record at ``lsn``.

        ``effect=None`` is an unattributed full record; a ``U`` commit
        is also logged full, and either may be observed by *any* query
        through reference chains (§5), so both advance the star mark
        every coverage check folds in.  An ``A``-only commit advances
        exactly the marks its atoms name — a freshly added object is
        unreachable from records no class in the write set owns, so a
        query not reading those classes cannot observe it.

        ``shard_writes`` (class → exact shard ids written, sharded
        classes only) refines a class mark to per-shard keys
        ``"C#k"`` — ``#`` cannot appear in a class name — so a reader
        provably confined to other shards needs no freshness from this
        commit at all.
        """
        with self._commit_lock:
            if effect is None or effect.updates():
                # the full record subsumes every per-class mark too:
                # covers() takes max(star, class mark) on both sides
                self._star_mark = max(self._star_mark, lsn)
            else:
                for cname in effect.adds():
                    if shard_writes is not None and cname in shard_writes:
                        for s in sorted(shard_writes[cname]):
                            key = f"{cname}#{s}"
                            if lsn > self._write_marks.get(key, 0):
                                self._write_marks[key] = lsn
                    elif lsn > self._write_marks.get(cname, 0):
                        self._write_marks[cname] = lsn

    def write_marks(self) -> dict[str, int]:
        """Snapshot of the freshness requirement: class → LSN, ``"*"`` →
        the star mark.  A replica may serve a query iff its own marks
        reach these for every class in the query's R-set (and the star)."""
        with self._commit_lock:
            marks = dict(self._write_marks)
            marks["*"] = self._star_mark
            return marks

    @property
    def replicas(self):
        """The attached :class:`repro.replication.ReplicaSet` (or None)."""
        return self._replicas

    def replicate(self, n: int = 2, **kw):
        """Attach ``n`` WAL-shipped in-process read replicas.

        Requires an attached write-ahead log (the ship medium).  Each
        replica bootstraps from the checkpoint + intact log and then
        tails the log, replaying records physically; ``Database.run``
        routes effect-proven read-only queries to the least-loaded
        replica whose watermarks cover the query's R-set.  Keyword
        options are forwarded to :class:`repro.replication.ReplicaSet`
        (``lag_threshold``, ``audit_every``, ``auto_poll``, ``retry``).
        """
        from repro.replication import ReplicaSet

        self._check_fenced()
        if self._wal is None or self._wal_dir is None:
            raise ReproError(
                "replication ships the write-ahead log; attach one first "
                "(Database.open / attach_wal)"
            )
        if self._replicas is not None:
            raise ReproError("replicas are already attached (detach first)")
        self._replicas = ReplicaSet(self, n, **kw)
        return self._replicas

    def detach_replicas(self) -> None:
        """Stop and drop the attached replica set (idempotent)."""
        replicas, self._replicas = self._replicas, None
        if replicas is not None:
            replicas.close()

    def _check_fenced(self) -> None:
        if self._fenced:
            raise ReproError(
                "this primary was fenced by a failover; use the promoted "
                "database"
            )

    def checkpoint(self) -> int:
        """Fold the write-ahead log into a fresh checkpoint.

        Under the commit lock: the full state (a sealed
        :mod:`repro.db.persistence` dump plus the folded LSN and the
        oid-supply counter) is written atomically, then the log is
        truncated back to its header.  A crash *between* the two steps
        is harmless — recovery skips records the checkpoint's LSN
        already covers.  Recovery time is proportional to the log since
        the last checkpoint, so long-running writers should checkpoint
        periodically (the shell's ``.checkpoint``).  Returns the LSN
        the new checkpoint folds through.
        """
        from repro.db import recovery as _recovery
        from repro.db.persistence import dump_database, write_document

        self._check_fenced()
        if self._wal is None:
            raise ReproError(
                "no write-ahead log attached (use Database.open or "
                "attach_wal first)"
            )
        with _span("checkpoint"):
            with self._commit_lock:
                doc = dump_database(self, self._odl_source)
                doc["durability"] = {
                    "lsn": self._wal.last_lsn,
                    "next_oid": self.supply.state(),
                }
                write_document(
                    doc, _recovery.checkpoint_path(self._wal_dir)
                )
                self._checkpoint_lsn = self._wal.last_lsn
                self._wal.reset()
            if _OBS.enabled:
                _METRICS.counter("wal_checkpoints_total").inc()
            return self._checkpoint_lsn

    def close(self) -> None:
        """Detach and close the write-ahead log (state stays in memory).

        Idempotent, and safe in any order with a fault-driven WAL
        detach (:meth:`_wal_log_unattributed`): close → detach → close
        neither raises nor double-counts ``wal_detached_total``.  Any
        attached replicas are stopped first — their databases remain
        readable, but no longer ship.
        """
        self.detach_replicas()
        with self._commit_lock:
            wal, self._wal = self._wal, None
        if wal is not None:
            wal.close()

    def _wal_full_record(
        self,
        stmt: str,
        effect: Effect | None = None,
        ee: ExtentEnv | None = None,
        oe: ObjectEnv | None = None,
    ) -> dict:
        """A record carrying the whole state (U commits, rollback, restore)."""
        from repro.db.persistence import value_to_json

        ee = self._ee if ee is None else ee
        oe = self._oe if oe is None else oe
        return {
            "kind": "full",
            "stmt": stmt,
            "defs_version": self._defs_version,
            "effect": [str(a) for a in effect] if effect is not None else [],
            "extents": {e: sorted(ee.members(e)) for e in sorted(ee.names())},
            "objects": {
                oid: {
                    "class": rec.cname,
                    "attrs": {a: value_to_json(v) for a, v in rec.attrs},
                }
                for oid, rec in oe.items()
            },
            "definitions": [
                pretty_definition(d) for d in self._definitions.values()
            ],
            "next_oid": self.supply.state(),
        }

    def _adds_record(
        self, stmt: str, effect: Effect, extent_adds, shard_adds, result_oe
    ) -> dict:
        """The ``shard-delta`` record of one ``A``-only commit.

        Theorem 5 bounds the commit's dynamic trace by ``effect``, so its
        whole physical change is the objects that joined the extents
        its ``A`` atoms name.  ``adds`` carries only those oids
        (additive — replay unions them in, which is idempotent and
        commutes with the disjoint deltas of overlapped writers), so the
        record's size is independent of extent size.  ``shards``
        buckets them by shard id for extents sharded at commit time
        (empty when none is), so replicas can refine their watermarks
        per shard without re-deriving the layout.
        """
        from repro.db.persistence import value_to_json

        objects: dict[str, dict] = {}
        for added in extent_adds.values():
            for oid in sorted(added):
                rec = result_oe.get(oid)
                objects[oid] = {
                    "class": rec.cname,
                    "attrs": {a: value_to_json(v) for a, v in rec.attrs},
                }
        return {
            "kind": "shard-delta",
            "stmt": stmt,
            "defs_version": self._defs_version,
            "effect": [str(a) for a in effect],
            "adds": {
                e: sorted(a) for e, a in sorted(extent_adds.items())
            },
            "shards": {
                e: {str(s): sorted(oids) for s, oids in sorted(per.items())}
                for e, per in sorted(shard_adds.items())
            },
            "objects": objects,
            "next_oid": self.supply.state(),
        }

    def _install_adds(
        self,
        stmt: str,
        effect: Effect,
        base_ee: ExtentEnv,
        base_oe: ObjectEnv,
        result_ee: ExtentEnv,
        result_oe: ObjectEnv,
        pre: int,
    ) -> None:
        """Commit an ``A``-only evaluation by delta merge — the one path
        every ``A``-only commit (``run`` and ``insert``) takes.

        Caller holds the commit lock.  Instead of replacing EE/OE with
        the evaluation's own post-environments wholesale, the commit's
        delta (new objects + extent joins, bounded by the static ``A``
        atoms per Theorem 5) is *merged* into the current environments.
        Deltas of concurrent ``A``-only commits are disjoint (the oid
        supply is globally monotone, so fresh oids never collide) and
        set union commutes, so merge order only permutes oid names —
        absorbed by ∼ — and no overlapping writer is lost.  An
        unsharded extent is the k=1 case: it has no shard stanza, and
        its caches and watermarks stay per class.  Ordering within the
        commit:

        1. ``shard.install`` fault sites fire per touched shard *first*
           — an injected fault aborts the whole commit atomically, with
           nothing logged and nothing installed;
        2. the ``shard-delta`` WAL record becomes durable;
        3. OE then EE install (the documented reader discipline);
        4. the staged per-shard partitions swap in under their new
           per-shard versions, and caches/watermarks refine to the
           exact ``(class, shard)`` pairs written.
        """
        from repro.db.shards import commit_deltas

        extent_adds, shard_adds = commit_deltas(
            self._shards,
            self.schema,
            base_ee,
            result_ee,
            result_oe,
            effect.adds(),
        )
        cur_ee, cur_oe = self._ee, self._oe
        if cur_ee is base_ee and cur_oe is base_oe:
            new_ee, new_oe = result_ee, result_oe
        else:
            # another writer installed since this evaluation started:
            # merge this commit's (disjoint, fresh-oid) delta on top
            fresh: dict[str, ObjectRecord] = {}
            for added in extent_adds.values():
                for oid in added:
                    fresh[oid] = result_oe.get(oid)
            new_oe = cur_oe.with_objects(fresh)
            new_ee = cur_ee
            for extent, added in extent_adds.items():
                if added:
                    new_ee = new_ee.with_members(
                        extent, cur_ee.members(extent) | added
                    )
        staged = self._shards.prepare_install(pre, shard_adds)
        shard_writes = {
            self.schema.extent_class(extent): frozenset(per)
            for extent, per in shard_adds.items()
        }
        if self._wal is not None:
            lsn = self._wal.append(
                self._adds_record(
                    stmt, effect, extent_adds, shard_adds, result_oe
                )
            )
            self._mark_written(lsn, effect, shard_writes=shard_writes)
        self.oe = new_oe
        self.ee = new_ee
        self._shards.commit_staged(staged, shard_adds, self._state_version)
        self._note_write(
            effect, pre, shard_writes=shard_writes, adds=extent_adds
        )

    def _wal_log_unattributed(self, stmt: str) -> None:
        """Journal a state change with no static effect (rollback, restore).

        Logged as a full record *after* the change is installed.  If the
        append itself fails the log can no longer describe the in-memory
        state, and later effect-bounded deltas would replay onto the
        wrong base — so durability is detached (loudly, via the
        ``wal_detached_total`` metric and ``db.wal is None``) rather
        than left inconsistent; the in-memory database stays correct.
        """
        wal = self._wal
        if wal is None:
            return
        try:
            lsn = wal.append(self._wal_full_record(stmt))
        except BaseException as exc:
            # idempotent detach: a concurrent (or earlier) close/detach
            # already cleared the slot — don't count the loss twice
            with self._commit_lock:
                detached_here = self._wal is wal
                if detached_here:
                    self._wal = None
            wal.close()
            if not detached_here:
                raise
            if _OBS.enabled:
                _METRICS.counter("wal_detached_total").inc()
            # durability just went dark: preserve the black box next to
            # the log it can no longer describe
            _flight.record(
                "wal-detach", stmt=stmt, error=f"{type(exc).__name__}: {exc}"
            )
            if _flight.crash_dump(
                "wal-detach", error=exc, directory=self._wal_dir
            ):
                self._qstats["crash_dumps"] += 1
            raise
        self._mark_written(lsn, None)

    # -- population ------------------------------------------------------
    def insert(self, cname: str, **attrs: Any) -> OidRef:
        """Create an object directly (outside any query) and return its oid.

        Attribute values may be Python ints/bools/strs/oids or AST
        values.  Performs the same extent maintenance as the (New)
        rule, and type-checks the attributes against the schema.
        """
        self._check_fenced()
        declared = dict(self.schema.atypes(cname))
        if set(attrs) != set(declared):
            raise IOQLTypeError(
                f"insert {cname}: need exactly {sorted(declared)}, "
                f"got {sorted(attrs)}"
            )
        fields = tuple(
            (a, to_value(attrs[a])) for a in (name for name, _ in self.schema.atypes(cname))
        )
        ctx = self.type_context()
        for a, v in fields:
            vt = check_query(ctx, v)
            ctx.require_subtype(vt, declared[a], f"insert {cname}.{a}")
        with self._commit_lock:
            oid = self.supply.fresh(cname, self.oe)
            pre = self._state_version
            effect = Effect.of(add_effect(cname))
            new_oe = self.oe.with_object(oid, ObjectRecord(cname, fields))
            new_ee = self.ee.with_member(self.schema.class_extent(cname), oid)
            _flight.record(
                "commit",
                stmt=f"insert {cname}",
                effect=str(effect),
                version=pre,
            )
            # write-ahead inside the install: a failed append aborts the
            # insert with nothing installed (the burnt oid is absorbed by ∼)
            self._install_adds(
                f"insert {cname}", effect,
                self.ee, self.oe, new_ee, new_oe, pre,
            )
        if self._active_txn is not None:
            self._active_txn.record(Effect.of(add_effect(cname)))
        return OidRef(oid)

    def define(self, source: str | Definition) -> FuncType:
        """Add a ``define d(x:σ,…) as q;`` clause; returns its type.

        Definitions are non-recursive and may reference earlier ones,
        exactly as in the ⊢_prog rule.
        """
        self._check_fenced()
        if isinstance(source, Definition):
            d = source
        else:
            prog = parse_program(source + " 0", schema=self.schema)
            if len(prog.definitions) != 1:
                raise IOQLTypeError("define() expects exactly one definition")
            d = prog.definitions[0]
        if d.name in self._definitions:
            raise IOQLTypeError(f"definition {d.name!r} already exists")
        ctx = self.type_context()
        ftype_plain = check_definition(ctx, d)
        # carry the latent effect on the stored type (Figure 3 view)
        eff_type = EffectChecker().check_definition(ctx, d)
        if self._wal is not None:
            # write-ahead: logged only once the definition is known good
            lsn = self._wal.append(
                {
                    "kind": "define",
                    "stmt": d.name,
                    "source": pretty_definition(d),
                    "defs_version": self._defs_version + 1,
                    "next_oid": self.supply.state(),
                }
            )
            # a definition changes what any later query may mean: it
            # advances the star mark, like a full record
            self._mark_written(lsn, None)
        self._definitions[d.name] = d
        self._def_types[d.name] = eff_type
        self.machine.defs[d.name] = d
        self._defs_version += 1  # old compiled plans must not resolve d
        return eff_type if not eff_type.effect.is_empty() else ftype_plain

    @property
    def definitions(self) -> Mapping[str, Definition]:
        return dict(self._definitions)

    # -- contexts ----------------------------------------------------------
    def oid_types(self) -> dict[str, Type]:
        """The oid fragment of Q: every live oid at its dynamic class.

        Memoised on the store version: callers must not mutate the
        returned dict (``TypeContext.extend`` copies before binding).
        """
        cached = self._oid_types_cache
        version = self._state_version
        if cached is not None and cached[0] == version:
            return cached[1]
        vars = {
            oid: ClassType(rec.cname) for oid, rec in self.oe.items()
        }
        self._oid_types_cache = (version, vars)
        return vars

    def type_context(self) -> TypeContext:
        """(E; D; Q) for this database's current state."""
        return TypeContext(
            self.schema, defs=dict(self._def_types), vars=self.oid_types()
        )

    # -- parsing -----------------------------------------------------------
    def parse(self, source: str | Query) -> Query:
        """Parse query text with this schema's extent names resolved."""
        if isinstance(source, Query):
            return resolve_extents(source, frozenset(self.schema.extents))
        return parse_query(source, schema=self.schema)

    # -- static analysis -----------------------------------------------------
    def typecheck(self, source: str | Query) -> Type:
        """Figure 1: the type of the query, or :class:`IOQLTypeError`."""
        q = self.parse(source)
        with _span("typecheck"):
            if _OBS.enabled:
                _METRICS.counter("typecheck_total").inc()
            return check_query(self.type_context(), q)

    def effect_of(self, source: str | Query) -> Effect:
        """Figure 3: the inferred effect ε of the query."""
        _, eff = EffectChecker().check_traced(
            self.type_context(), self.parse(source)
        )
        return eff

    def typecheck_with_effect(self, source: str | Query) -> tuple[Type, Effect]:
        """Figure 3 judgement ``q : σ ! ε`` in one call."""
        return EffectChecker().check_traced(
            self.type_context(), self.parse(source)
        )

    def determinism_witnesses(self, source: str | Query) -> list[Interference]:
        """⊢′ analysis: the (possibly empty) interference witnesses."""
        _, _, witnesses = analyze_determinism(
            self.schema,
            self.parse(source),
            defs=self._def_types,
            var_types=self.oid_types(),
        )
        return witnesses

    def is_deterministic(self, source: str | Query) -> bool:
        """Theorem 7's premise: does ⊢′ accept the query?"""
        return not self.determinism_witnesses(source)

    def commutation_conflicts(
        self, source: str | Query
    ) -> list[CommutationConflict]:
        """⊢″ analysis: set operators whose operands interfere."""
        _, _, conflicts = analyze_commutativity(
            self.schema,
            self.parse(source),
            defs=self._def_types,
            var_types=self.oid_types(),
        )
        return conflicts

    def check_commutable(self, source: str | Query) -> None:
        """Raise :class:`IOQLEffectError` unless ⊢″ accepts the query."""
        conflicts = self.commutation_conflicts(source)
        if conflicts:
            raise IOQLEffectError("; ".join(str(c) for c in conflicts))

    def optimize(self, source: str | Query) -> "Query":
        """Apply the effect-gated rewriting pipeline; returns the query."""
        from repro.optimizer.planner import optimize

        return optimize(self, self.parse(source)).query

    # -- evaluation -----------------------------------------------------------
    def run(
        self,
        source: str | Query,
        *,
        strategy: Strategy = FIRST,
        max_steps: int = DEFAULT_MAX_STEPS,
        commit: bool = True,
        typecheck: bool = True,
        engine: str = "auto",
        budget: Budget | None = None,
        atomic: bool = False,
        retry: RetryPolicy | None = None,
    ) -> EvalResult:
        """Evaluate a query under one strategy; optionally commit EE/OE.

        ``typecheck=True`` (default) runs Figure 1 first, so evaluation
        enjoys Theorem 3 and can never get stuck.  ``engine`` selects
        the presentation: ``"auto"`` (default) routes the query through
        the compiled set-at-a-time engine when the Figure 3 effect
        system proves it read-only (Theorem 4 then guarantees the
        compiled answer matches the machine's) and falls back to the
        machine otherwise — :meth:`plan_decision` explains the choice;
        ``"compiled"`` forces the compiled engine (raising
        ``ValueError`` when the query is ineligible); ``"reduction"``
        is the paper's Figure 2/4 machine (step counts, rule traces);
        ``"bigstep"`` is the normalisation evaluator of
        :mod:`repro.semantics.bigstep` — same answers (tested), roughly
        an order of magnitude faster than the machine.

        Resilience knobs (see ``docs/ROBUSTNESS.md``):

        * ``budget`` bounds the evaluation (steps, wall-clock, new
          objects); violations raise the matching
          :class:`~repro.errors.BudgetExceeded` subclass.  Retried
          attempts each get a fresh copy of the budget.
        * ``atomic=True`` captures an effect-guided
          :class:`~repro.resilience.transactions.TransactionScope` —
          only the extents in the query's static R ∪ A (∪ U) — before
          evaluating, and rolls it back on *any* failure, so the
          database never observes a half-applied statement.
        * ``retry`` replays a failed attempt under the given
          :class:`~repro.resilience.retry.RetryPolicy`, but only when
          :func:`~repro.resilience.retry.replay_decision` proves the
          replay safe (⊢′ accepts; writes require ``atomic=True``).
          Ineligible or exhausted retries re-raise (the last failure is
          wrapped in :class:`~repro.resilience.retry.RetryExhausted`
          when attempts run out).
        """
        self._check_fenced()
        with _span("query", engine=engine):
            q = self.parse(source)
            if typecheck:
                self.typecheck(q)
            scope: TransactionScope | None = None
            if atomic:
                _, static_eff = EffectChecker().check_traced(
                    self.type_context(), q
                )
                scope = TransactionScope.capture(self, static_eff)
            attempt = 0
            while True:
                attempt += 1
                attempt_budget = (
                    budget if attempt == 1 or budget is None else budget.fresh()
                )
                try:
                    return self._run_once(
                        q,
                        strategy=strategy,
                        max_steps=max_steps,
                        commit=commit,
                        engine=engine,
                        budget=attempt_budget,
                    )
                except Exception as exc:
                    if scope is not None:
                        scope.rollback(self)
                    if retry is None or not retry.retryable(exc):
                        self._note_failure(exc)
                        raise
                    if attempt >= retry.max_attempts:
                        if _OBS.enabled:
                            _METRICS.counter("retries_exhausted_total").inc()
                        self._note_failure(exc, reason="retry-exhausted")
                        raise RetryExhausted(attempt, exc) from exc
                    decision = replay_decision(self, q, rolled_back=atomic)
                    if not decision.safe:
                        if _OBS.enabled:
                            _METRICS.counter("retries_refused_total").inc()
                        self._note_failure(exc)
                        raise
                    if _OBS.enabled:
                        _METRICS.counter("retry_attempts_total").inc()
                    retry.backoff(attempt)

    def _run_once(
        self,
        q: Query,
        *,
        strategy: Strategy,
        max_steps: int,
        commit: bool,
        engine: str,
        budget: Budget | None,
    ) -> EvalResult:
        """One evaluation attempt plus (optionally) its commit."""
        decision: PlanDecision | None = None
        if engine == "auto":
            decision = self.plan_decision(q)
            if self._replicas is not None:
                # effect-proven read-only: try a fresh-enough replica;
                # None means none covers the R-set right now, and the
                # primary serves (counted by the router, never wrong)
                routed = _route_read(
                    self, q, decision,
                    strategy=strategy, max_steps=max_steps, budget=budget,
                )
                if routed is not None:
                    self._qstats["runs"] += 1
                    self._qstats["routed_reads"] += 1
                    return routed
            engine = decision.engine
        elif engine == "compiled":
            decision = self.plan_decision(q)
            if decision.engine != "compiled":
                raise ValueError(
                    f"query cannot run on the compiled engine: "
                    f"{decision.reason}"
                )
        self._qstats["runs"] += 1
        if engine in self._qstats:
            self._qstats[engine] += 1
        # the evaluation's base environments: an A-only commit
        # computes this run's delta against exactly what it read, then
        # merges the delta into whatever is current at install time
        base_ee, base_oe = self.ee, self.oe
        with _span("eval", engine=engine) as ev_sp:
            if engine == "compiled":
                result = self._run_compiled(decision, budget=budget)
            elif engine == "bigstep":
                from repro.semantics.bigstep import evaluate_bigstep

                big = evaluate_bigstep(
                    self.machine, base_ee, base_oe, q,
                    strategy=strategy, budget=budget,
                )
                result = EvalResult(
                    value=big.value, ee=big.ee, oe=big.oe, steps=0,
                    effect=big.effect, engine="bigstep",
                )
            elif engine == "reduction":
                result = evaluate(
                    self.machine, base_ee, base_oe, q,
                    strategy=strategy, max_steps=max_steps, budget=budget,
                )
            else:
                raise ValueError(f"unknown engine {engine!r}")
            if _OBS.enabled:
                ev_sp.set(steps=result.steps, effect=str(result.effect))
                if budget is not None:
                    if budget.max_steps is not None:
                        _METRICS.gauge("budget_steps_remaining").set(
                            budget.remaining_steps()
                        )
                    if budget.max_new_objects is not None:
                        _METRICS.gauge("budget_objects_remaining").set(
                            budget.remaining_objects()
                        )
        if commit:
            with _span("commit") as c_sp:
                maybe_fault("commit")
                if _OBS.enabled:
                    new_objects = len(result.oe) - len(self.oe)
                    _METRICS.counter("commits_total").inc()
                    if new_objects > 0:
                        _METRICS.counter("committed_objects_total").inc(
                            new_objects
                        )
                    _METRICS.gauge("live_objects").set(len(result.oe))
                    c_sp.set(
                        objects=len(result.oe), new_objects=new_objects
                    )
                effect = result.effect
                # no write effect: by Theorem 5 the evaluation left EE/OE
                # as it found them, so there is nothing to install
                if effect.writes():
                    with self._commit_lock:
                        pre = self._state_version
                        # flight-record before the append so the ring
                        # shows commit intent → fault → detach in order
                        _flight.record(
                            "commit",
                            stmt=pretty(q)[:200],
                            effect=str(effect),
                            version=pre,
                        )
                        if effect.updates():
                            # U: in-place updates reach objects through
                            # reference chains the R-set does not name
                            # (§5), so no delta bounds them — replace
                            # EE/OE wholesale under a full record,
                            # logged write-ahead: a failed append fails
                            # the commit with nothing installed
                            if self._wal is not None:
                                lsn = self._wal.append(
                                    self._wal_full_record(
                                        pretty(q), effect,
                                        result.ee, result.oe,
                                    )
                                )
                                self._mark_written(lsn, effect)
                            # OE before EE: a concurrent snapshot reader
                            # loads ee then oe, so this order can never
                            # pair a new extent set with an object env
                            # missing its members
                            self.oe = result.oe
                            self.ee = result.ee
                            self._note_write(effect, pre)
                        else:
                            self._install_adds(
                                pretty(q), effect,
                                base_ee, base_oe, result.ee, result.oe, pre,
                            )
                if self._active_txn is not None:
                    self._active_txn.record(result.effect)
        return result

    def _run_compiled(
        self, decision: PlanDecision, *, budget: Budget | None
    ) -> EvalResult:
        """Execute (or replay from the result cache) a compiled plan."""
        entry = decision.entry
        version = self._state_version
        if entry.result is not None and entry.result_version == version:
            self._qstats["result_cache_hits"] += 1
            if _OBS.enabled:
                _METRICS.counter("exec_result_cache_hits_total").inc()
            return EvalResult(
                value=entry.result,
                ee=self.ee,
                oe=self.oe,
                steps=entry.result_steps,
                effect=entry.result_effect,
                engine="compiled",
            )
        trace: dict = {}
        value, effect, ops = execute_plan(
            self, entry, budget=budget, trace=trace
        )
        entry.result = value
        entry.result_effect = effect
        entry.result_steps = ops
        entry.result_version = version
        # the dynamic (class, shard) read trace keys the result under
        # per-shard invalidation (PlanCache.note_write shard_writes)
        entry.result_shard_reads = trace.get("shard_reads")
        if _OBS.enabled:
            _METRICS.counter("exec_compiled_total").inc()
            _METRICS.counter("exec_ops_total").inc(ops)
        return EvalResult(
            value=value,
            ee=self.ee,
            oe=self.oe,
            steps=ops,
            effect=effect,
            engine="compiled",
        )

    def _run_snapshot(
        self,
        q: Query,
        ee: ExtentEnv,
        oe: ObjectEnv,
        *,
        budget: Budget | None = None,
        strategy: Strategy = FIRST,
    ) -> EvalResult:
        """Evaluate a read-only query against a pinned ``(ee, oe)`` pair.

        The scheduler's routed reads use this: the pair was captured at
        admission (before any batch writer ran), so the answer is the
        sequential one regardless of what this database — typically a
        replica that kept applying shipped records — has installed
        since.  Never commits, never touches the live caches' results.
        """
        decision = self.plan_decision(q)
        if decision.engine == "compiled":
            value, effect, ops = execute_plan(
                self, decision.entry, budget=budget, ee=ee, oe=oe
            )
            return EvalResult(
                value=value, ee=ee, oe=oe, steps=ops,
                effect=effect, engine="compiled",
            )
        from repro.semantics.bigstep import evaluate_bigstep

        big = evaluate_bigstep(
            self.machine, ee, oe, q, strategy=strategy, budget=budget
        )
        return EvalResult(
            value=big.value, ee=big.ee, oe=big.oe, steps=0,
            effect=big.effect, engine="bigstep",
        )

    def plan_decision(self, source: str | Query) -> PlanDecision:
        """Which engine ``run(engine="auto")`` would pick, and why.

        ``"compiled"`` exactly when the Figure 3 effect system proves
        the query's write effect empty (so Theorem 4 applies: every
        schedule — including the compiled set-at-a-time operator
        order — yields the same observables) and the plan compiler
        covers its syntax.  The decision object carries the compiled
        plan's operator notes for ``.explain``.
        """
        return _decide_engine(self, self.parse(source))

    # -- sharding ----------------------------------------------------------
    def shard(self, cname: str, *, k: int = 8, by: str | None = None):
        """Partition ``cname``'s extent into ``k`` hash shards.

        ``by=None`` hashes object identity (oids); ``by="attr"``
        hashes that attribute's value, which lets the compiled engine
        prune equality-predicate scans to a single shard and lets the
        per-``(class, shard)`` caches survive writes to other shards.
        Re-declaring replaces the previous layout.  Commits touching a
        sharded extent install per-shard (see ``docs/PERFORMANCE.md``);
        results and final states are provably identical to the
        unsharded database.  The layout is durable: a write-ahead
        ``shard`` record carries it, and checkpoints embed it.
        """
        from repro.db.shards import validate_spec

        self._check_fenced()
        spec = validate_spec(self.schema, cname, by, k)
        with self._commit_lock:
            if self._wal is not None:
                lsn = self._wal.append(
                    {"kind": "shard", "class": cname, "k": k, "by": by}
                )
                # a layout change re-keys every per-shard watermark: it
                # advances the star mark, like a definition
                self._mark_written(lsn, None)
            self._shards.set_spec(spec)
            # plans compiled without the spec carry no pruning stage;
            # recompiling is cheap and the layout change is rare
            self._plan_cache.clear()
            # closure indexes record partition signatures; a new layout
            # invalidates them wholesale rather than lazily per lookup
            self._closure_indexes.clear()
        return spec

    def explain_cost(self, source: str | Query):
        """A TD2-style distributed cost report for one query.

        A view of the plan :meth:`run` executes (the cached plan's
        operator description): per extent access, how many shards it
        touches, the rows scanned after shard pruning, the filter
        selectivities applied, and the rows/bytes moved at each merge
        point — without executing the query.  A query on the reduction
        engine lists no accesses.  Returns a
        :class:`~repro.exec.cost_report.CostReport` whose ``render()``
        pretty-prints and whose ``to_dict()`` is JSON-safe (the shell's
        ``.explain cost``).
        """
        from repro.exec.cost_report import build_cost_report

        return build_cost_report(self, self.parse(source))

    def _note_failure(self, exc: Exception, reason: str | None = None) -> None:
        """Count one failed :meth:`run` and dump the flight ring.

        The dump lands next to the WAL when one is attached (the same
        place a crash post-mortem would look); an in-memory database
        has nowhere durable to write, so only the counters move.
        """
        self._qstats["failures"] += 1
        if reason is None:
            if isinstance(exc, BudgetExceeded):
                self._qstats["budget_exhausted"] += 1
                reason = "budget-exhausted"
            else:
                reason = "query-error"
        elif isinstance(exc, BudgetExceeded):
            self._qstats["budget_exhausted"] += 1
        if _flight.crash_dump(reason, error=exc, directory=self._wal_dir):
            self._qstats["crash_dumps"] += 1

    def explain_analyze(
        self,
        source: str | Query,
        *,
        budget: Budget | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> "QueryProfile":
        """Run ``source`` with per-operator instrumentation; never commits.

        Compiled-engine queries execute the plan :meth:`run` caches,
        rebuilt with per-operator wrappers (Theorem 4: a read-only
        plan may run at any time without changing observables), and
        come back as the cached plan's operator description with
        *actual* row counts and self/total time overlaid on its
        *estimated* cardinalities — the comparison ``.explain`` alone
        cannot give.  Queries the compiler refuses fall back to the
        reduction machine and report a reduction-rule histogram instead
        of an operator tree.
        :meth:`~repro.obs.profile.QueryProfile.render` pretty-prints;
        ``profile_dict()`` is the machine-readable form.
        """
        from repro.obs import events as _events
        from repro.obs.profile import (
            ProfileRun,
            QueryProfile,
            build_nodes,
            same_operators,
        )

        q = self.parse(source)
        self.typecheck(q)
        src_text = source if isinstance(source, str) else pretty(q)
        decision = self.plan_decision(q)
        if decision.engine == "compiled":
            from repro.exec.cache import PlanEntry
            from repro.exec.engine import build_plan, execute_plan

            profiled, _ = build_plan(self, q, profile=True)
            entry = PlanEntry(
                profiled, decision.entry.reads, decision.static_effect
            )
            run = ProfileRun(len(profiled.ops))
            value, effect, steps = execute_plan(
                self, entry, budget=budget, prof=run
            )
            plan, origin = decision.plan, "cached"
            if not same_operators(profiled.ops, plan.ops):
                # a replan, or catalog drift short of a stats-epoch bump,
                # shaped the cached plan differently: describe what ran
                plan, origin = profiled, "rebuilt (cached plan differs)"
            items = getattr(value, "items", None)
            rows = len(items) if items is not None else 1
            return QueryProfile(
                query=src_text,
                engine="compiled",
                elapsed_s=run.times[0],
                fuel=steps,
                effect=str(effect),
                est_cost=plan.ops[0].extra["est_cost"],
                actual_steps=steps,
                nodes=build_nodes(plan.ops, run, result_rows=rows),
                summary={
                    "rows": rows,
                    "scans": run.scans,
                    "index_lookups": run.index_lookups,
                    "plan_notes": list(plan.notes),
                    "plan": origin,
                    "decision": decision.reason,
                },
                value=value,
            )
        from repro.optimizer.cost import CostModel
        from time import perf_counter

        with _events.capture() as captured:
            t0 = perf_counter()
            result = evaluate(
                self.machine, self.ee, self.oe, q,
                strategy=FIRST, max_steps=max_steps, budget=budget,
            )
            elapsed = perf_counter() - t0
        rules: dict[str, int] = {}
        for ev in captured:
            rules[ev.rule] = rules.get(ev.rule, 0) + 1
        return QueryProfile(
            query=src_text,
            engine="reduction",
            elapsed_s=elapsed,
            fuel=result.steps,
            effect=str(result.effect),
            est_cost=CostModel.from_database(self).eval_cost(q),
            actual_steps=result.steps,
            nodes=[],
            summary={
                "rows": len(getattr(result.value, "items", ()) or ())
                or 1,
                "rules": rules,
                "decision": decision.reason,
            },
            value=result.value,
        )

    def health(self) -> dict:
        """A point-in-time health snapshot of every subsystem.

        Nested dict (see ``docs/OBSERVABILITY.md`` for the field
        reference): plan/result-cache hit rates, WAL applied LSN and
        fsync latency percentiles, last scheduler batch, flight
        recorder stats, index versions, fault counters.  When obs is
        enabled the scalar fields are mirrored into the metrics
        registry as gauges for the Prometheus exporter.
        """
        from repro.db import health as _health

        h = _health.collect(self)
        if _OBS.enabled:
            _health.export_gauges(h)
        return h

    def analyze(self) -> dict:
        """Eagerly build optimizer statistics for every column.

        Scans each extent once per attribute, populating the
        per-(extent, attribute) distinct counts and integer histograms
        the cost model's selectivity estimates consume (the shell's
        ``.analyze``).  Stats also build lazily on first use, so this
        is an optional warm-up, not a prerequisite.  Returns a
        JSON-safe summary keyed ``"Extent.attr"``.
        """
        return self._stats.analyze(
            self.schema, self.ee, self.oe, self._state_version
        )

    def transaction(self) -> Transaction:
        """A multi-statement, all-or-nothing scope (context manager).

        Statements commit as they execute; leaving the ``with`` block on
        an exception (or calling :meth:`Transaction.rollback`) restores
        every extent/object/definition the transaction's accumulated
        effect names to its entry state.  Effect-guided: state outside
        R ∪ A (∪ U) of the executed statements is provably untouched
        (Theorem 5) and is not copied or restored.
        """
        return Transaction(self)

    def query(self, source: str | Query, **kw: Any) -> EvalResult:
        """Alias of :meth:`run` (reads nicely at call sites)."""
        return self.run(source, **kw)

    # -- concurrent sessions (repro.sched) --------------------------------
    def run_many(
        self,
        sources,
        *,
        workers: int = 4,
        budget: Budget | None = None,
        retry: RetryPolicy | None = None,
        atomic: bool = False,
    ):
        """Run a batch of queries concurrently, observably as-if serial.

        Admits every query (parse + Figure 3 effect inference) in list
        order, builds the conflict graph over the static effects
        (:meth:`Effect.interferes_with` plus the scheduler's
        writer/update coarsening), then runs non-conflicting queries in
        parallel on ``workers`` threads: read-only queries evaluate
        against the immutable EE/OE snapshot they were scheduled
        against, and conflicting queries — in particular all writers —
        serialise in admission order.  Theorems 7/8 are what make the
        interleaving invisible: the results and the final EE/OE equal a
        sequential run of the same list (up to the oid bijection ∼ of
        ``new``-containing queries).  Returns a
        :class:`repro.sched.BatchResult`.
        """
        from repro.sched import QueryScheduler

        return QueryScheduler(
            self, workers=workers, budget=budget, retry=retry, atomic=atomic
        ).run(list(sources))

    def session(self, *, workers: int = 4, budget: Budget | None = None,
                retry: RetryPolicy | None = None, atomic: bool = False):
        """A :class:`repro.sched.Session`: submit queries from many
        callers, then :meth:`~repro.sched.Session.dispatch` them as one
        scheduled batch (context-manager form dispatches on exit)."""
        from repro.sched import Session

        return Session(
            self, workers=workers, budget=budget, retry=retry, atomic=atomic
        )

    def explore(
        self,
        source: str | Query,
        *,
        max_steps: int = 10_000,
        max_paths: int = 100_000,
        typecheck: bool = True,
        budget: Budget | None = None,
    ) -> Exploration:
        """Enumerate every reduction order (never commits).

        A spent ``budget`` truncates the exploration (the result is
        marked ``truncated``) instead of raising — exploration answers a
        question about the schedule space, and a partial answer is
        still an answer.
        """
        q = self.parse(source)
        if typecheck:
            self.typecheck(q)
        return explore(
            self.machine, self.ee, self.oe, q,
            max_steps=max_steps, max_paths=max_paths, budget=budget,
        )

    # -- state management ----------------------------------------------------
    def snapshot(self) -> Snapshot:
        """An immutable copy of the current state."""
        return Snapshot(self.ee, self.oe, tuple(self._definitions.values()))

    def restore(self, snap: Snapshot) -> None:
        """Return to a snapshot (environments are immutable: O(1)).

        The EE/OE assignments bump the store version, lazily
        invalidating every cached result/index; the definitions are
        rebuilt, so compiled plans against the old DE are retired too.
        """
        self.ee = snap.ee
        self.oe = snap.oe
        self._defs_version += 1
        self._definitions.clear()
        self._def_types.clear()
        for d in snap.definitions:
            self._definitions[d.name] = d
            self._def_types[d.name] = EffectChecker().check_definition(
                TypeContext(self.schema, defs=dict(self._def_types)), d
            )
        self.machine.defs = self._definitions
        # a restore has no static effect to bound a delta: journal the
        # whole state so recovery lands on the restored prefix
        self._wal_log_unattributed("restore")

    def extent(self, name: str) -> frozenset[str]:
        """The oids currently in an extent."""
        return self.ee.members(name)

    def attr(self, oid: OidRef | str, name: str) -> Query:
        """Read one attribute of a live object."""
        key = oid.name if isinstance(oid, OidRef) else oid
        return self.oe.get(key).attr(name)


# Re-exported conversions (defined next to the value grammar).
from repro.lang.values import from_value, to_value  # noqa: E402  (re-export)
