"""One in-process read replica: physical replay + freshness watermarks.

A :class:`Replica` holds its own :class:`~repro.db.database.Database`,
seeded from the primary's checkpoint + intact log
(:func:`repro.db.recovery.bootstrap`) and kept current by replaying
shipped WAL records through the *same*
:func:`repro.db.recovery.apply_record` crash recovery uses — replication
is recovery that never stops.

Freshness is effect-guided, not clock-guided.  Each applied record
advances **per-extent LSN watermarks** derived from its static write
effect: a ``shard-delta`` record (an ``A``-only commit, Theorem 5
bounds its payload) marks exactly the classes — or, for sharded
extents, the ``(class, shard)`` pairs — it added to; ``full``,
``define`` and ``shard`` records advance a *star* mark instead, because
an in-place update, a new definition or a new layout can be observed by
any query through reference chains the R-set does not name (the §5
caveat) or through re-keyed shard marks.  A replica
may serve a query iff, for every class in the query's R-set, its own
``max(star, mark[C])`` reaches the primary's — the rule
``tests/test_replication_differential.py`` certifies against 200 seeded
mixed batches with zero stale reads.

Health states: ``CATCHING_UP`` (bootstrapping or resyncing) →
``SERVING`` (lag within threshold) ↔ ``LAGGING`` (behind, but still
routable for reads its watermarks cover — stale-but-covered is still
*correct*) → ``QUARANTINED`` (a record refused to apply, or a SHA-256
state-digest audit disagreed with the primary: the replica never
answers again, and the flight recorder dumps a black box named after
it).
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable

from repro.db import recovery as _recovery
from repro.db.wal import WalError
from repro.errors import TransientFault
from repro.lang.pprint import pretty_definition
from repro.obs import flight as _flight
from repro.replication.shipper import ReplicationError, ShipGap, WalShipper
from repro.resilience.faults import maybe_fault
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.semantics.evaluator import EvalResult

#: Replica health states.
CATCHING_UP = "catching_up"
SERVING = "serving"
LAGGING = "lagging"
QUARANTINED = "quarantined"


class Divergence(ReplicationError):
    """A replica's state provably disagrees with the primary's."""


def state_digest(db: "Database") -> str:
    """SHA-256 over the canonical JSON of a database's EE/OE/DE.

    Reuses the persistence layer's canonical encoding (sorted keys,
    tight separators) so two databases digest equal iff their extents,
    objects and definitions are byte-for-byte the same state.  The oid
    counter is deliberately excluded: the primary burns oids on failed
    attempts that never reach the log, and ∼ makes that unobservable.
    """
    from repro.db.persistence import _canonical, value_to_json

    doc = {
        "extents": {
            name: sorted(db.ee.members(name)) for name in db.ee.names()
        },
        "objects": {
            oid: {
                "class": rec.cname,
                "attrs": {a: value_to_json(v) for a, v in rec.attrs},
            }
            for oid, rec in db.oe.items()
        },
        "definitions": [
            pretty_definition(d) for d in db.definitions.values()
        ],
    }
    return hashlib.sha256(_canonical(doc)).hexdigest()


class Replica:
    """One WAL-shipped read replica of a primary database."""

    def __init__(
        self,
        name: str,
        primary: "Database | None" = None,
        *,
        directory: str | None = None,
        lag_threshold: int = 8,
        audit_every: int = 32,
        retry: RetryPolicy | None = None,
    ):
        if primary is None and directory is None:
            raise ReplicationError(
                "a replica needs a primary database or its directory"
            )
        self.name = name
        self._primary = primary
        self.directory = directory or primary.wal_dir
        if self.directory is None:
            raise ReplicationError(
                "the primary has no WAL directory to ship from"
            )
        self.lag_threshold = lag_threshold
        self.audit_every = audit_every
        self.retry = retry or RetryPolicy.seeded(
            abs(hash(name)) % 2**16, base_delay=0.005, max_delay=0.25
        )
        self.db: "Database | None" = None
        self.state = CATCHING_UP
        self.quarantine_reason: str | None = None
        self.applied_lsn = 0
        self.marks: dict[str, int] = {}
        self.star = 0
        self.shipper = WalShipper(_recovery.wal_path(self.directory))
        self.inflight = 0
        self.served_total = 0
        self.applied_total = 0
        self.resyncs_total = 0
        self.audits_total = 0
        self.ship_failures_total = 0
        self._since_audit = 0
        self._fail_streak = 0
        self._lock = threading.RLock()
        self.resync(backoff=False)

    # -- synchronisation -------------------------------------------------
    def _primary_lock(self):
        # holding the primary's commit lock freezes log + marks, so the
        # bootstrapped state is exactly the primary's committed state
        return (
            self._primary._commit_lock
            if self._primary is not None
            else nullcontext()
        )

    def resync(self, *, backoff: bool = True) -> None:
        """Rebuild from the checkpoint + intact log prefix (seeded
        exponential backoff between consecutive failures)."""
        if self.state == QUARANTINED:
            raise ReplicationError(
                f"replica {self.name} is quarantined: "
                f"{self.quarantine_reason}"
            )
        with self._lock:
            if backoff and self._fail_streak:
                self.retry.sleep(
                    self.retry.delay_for(min(self._fail_streak, 10))
                )
            self.state = CATCHING_UP
            with self._primary_lock():
                db, last_lsn, valid_bytes = _recovery.bootstrap(
                    self.directory
                )
                self.db = db
                self.applied_lsn = last_lsn
                self.marks = {}
                # the bootstrapped state equals the primary's prefix at
                # last_lsn exactly, so every per-class mark is last_lsn
                self.star = last_lsn
                self.shipper.seek(valid_bytes, last_lsn)
            self.resyncs_total += 1
            self._since_audit = 0
            self._update_state()
        _flight.record(
            "replica-resync",
            replica=self.name,
            applied_lsn=self.applied_lsn,
            resyncs=self.resyncs_total,
        )

    def poll(self) -> int:
        """Ship and apply whatever new records the log holds.

        Returns the number of records applied.  Ship gaps and injected
        transient faults are absorbed (counted, backoff, resync);
        semantic refusals and digest divergence quarantine the replica.
        """
        with self._lock:
            if self.state == QUARANTINED or self.db is None:
                return 0
            try:
                records = self.shipper.poll()
            except (TransientFault, ShipGap, WalError) as exc:
                self._note_ship_failure(exc)
                return 0
            applied = 0
            for rec in records:
                try:
                    self._apply(rec)
                except (TransientFault, ShipGap) as exc:
                    self._note_ship_failure(exc)
                    return applied
                except WalError as exc:
                    self._quarantine(
                        f"record lsn {rec.get('lsn')} refused to apply: "
                        f"{exc}",
                        exc,
                    )
                    return applied
                applied += 1
            self._fail_streak = 0
            self._update_state()
            if (
                self.audit_every
                and self._since_audit >= self.audit_every
            ):
                self.audit()
            return applied

    def _note_ship_failure(self, exc: BaseException) -> None:
        self._fail_streak += 1
        self.ship_failures_total += 1
        self.state = CATCHING_UP
        _flight.record(
            "replica-ship-gap",
            replica=self.name,
            error=f"{type(exc).__name__}: {exc}",
            streak=self._fail_streak,
        )
        try:
            self.resync()
        except ReplicationError:
            raise
        except Exception as resync_exc:  # stay catching up; next poll retries
            _flight.record(
                "replica-resync-failed",
                replica=self.name,
                error=f"{type(resync_exc).__name__}: {resync_exc}",
            )

    def _apply(self, rec: dict) -> None:
        maybe_fault("replica.apply")
        lsn = rec["lsn"]
        if lsn <= self.applied_lsn:
            return  # idempotent: already applied (e.g. re-shipped after seek)
        if lsn != self.applied_lsn + 1:
            raise ShipGap(
                f"replica {self.name}: record lsn {lsn} after "
                f"{self.applied_lsn} — stream lost records"
            )
        _recovery.apply_record(self.db, rec)
        self.applied_lsn = lsn
        kind = rec.get("kind")
        if kind == "shard-delta":
            # per-shard marks mirror the primary's _mark_written exactly:
            # a sharded extent advances only its touched shards' keys, so
            # a reader confined to other shards stays served; extents the
            # commit touched without a shard stanza advance the class mark
            shard_map = rec.get("shards", {})
            for extent in rec.get("adds", {}):
                try:
                    cname = self.db.schema.extent_class(extent)
                except Exception:
                    continue
                if extent in shard_map:
                    for s in shard_map[extent]:
                        self.marks[f"{cname}#{s}"] = lsn
                else:
                    self.marks[cname] = lsn
        else:
            # full (U commit, rollback, restore), define and shard records
            # may be observed by any query (§5): star mark
            self.star = lsn
        self.applied_total += 1
        self._since_audit += 1
        _flight.record(
            "replica-apply",
            replica=self.name,
            lsn=lsn,
            kind=rec.get("kind", "?"),
        )

    # -- health ----------------------------------------------------------
    def lag(self) -> int:
        """Records behind the primary's log head (0 when detached)."""
        if self._primary is None:
            return 0
        wal = self._primary.wal
        if wal is None:
            return 0
        return max(0, wal.last_lsn - self.applied_lsn)

    def _update_state(self) -> None:
        if self.state == QUARANTINED:
            return
        self.state = SERVING if self.lag() <= self.lag_threshold else LAGGING

    def audit(self) -> bool:
        """Compare state digests with the primary when fully caught up.

        Returns ``False`` (and quarantines) on divergence.  A replica
        that is behind is not auditable — being behind is lag, not
        divergence — so the comparison runs under the primary's commit
        lock and only when ``applied_lsn`` equals the log head.
        """
        if self._primary is None or self.db is None:
            return True
        if self.state == QUARANTINED:
            return False
        with self._primary_lock():
            wal = self._primary.wal
            if wal is None or self.applied_lsn != wal.last_lsn:
                return True
            want = state_digest(self._primary)
            have = state_digest(self.db)
        self.audits_total += 1
        self._since_audit = 0
        if want != have:
            self._quarantine(
                f"state digest divergence at lsn {self.applied_lsn}: "
                f"primary {want[:12]}… != replica {have[:12]}…",
                Divergence("state digest mismatch"),
            )
            return False
        return True

    def _quarantine(self, reason: str, error: BaseException | None) -> None:
        self.state = QUARANTINED
        self.quarantine_reason = reason
        _flight.record(
            "replica-quarantine",
            replica=self.name,
            reason=reason,
            applied_lsn=self.applied_lsn,
        )
        # the black box gets the replica's name so a later generic dump
        # into the same directory cannot erase the evidence
        _flight.crash_dump(
            "replica-divergence",
            error=error,
            directory=self.directory,
            filename=f"flight-{self.name}.jsonl",
        )

    # -- serving ---------------------------------------------------------
    def covers(
        self,
        required: dict[str, int],
        classes: Iterable[str],
        shard_reads: dict | None = None,
    ) -> bool:
        """Do this replica's watermarks reach ``required`` on ``classes``?

        ``required`` is :meth:`Database.write_marks` — class → LSN plus
        the ``"*"`` star mark every query must respect (U/define
        commits are observable through reference chains regardless of
        the R-set).  Sharded extents also carry ``"Class#shard"`` keys;
        ``shard_reads`` (class → frozenset of shard ids the query is
        statically confined to, from
        :func:`repro.db.shards.static_read_shards`) lets a pruned
        reader be served while *other* shards of the same class are
        still catching up.  A class with no (or ``None``) entry needs
        every one of its shard marks.
        """
        star_need = required.get("*", 0)
        if self.star < star_need:
            return False
        for cname in classes:
            class_need = max(star_need, required.get(cname, 0))
            have_class = max(self.star, self.marks.get(cname, 0))
            confined = (
                shard_reads.get(cname) if shard_reads is not None else None
            )
            if confined is not None:
                for s in confined:
                    key = f"{cname}#{s}"
                    need = max(class_need, required.get(key, 0))
                    if max(have_class, self.marks.get(key, 0)) < need:
                        return False
                continue
            if have_class < class_need:
                return False
            prefix = cname + "#"
            for key, need in required.items():
                if key.startswith(prefix):
                    if max(have_class, self.marks.get(key, 0)) < max(
                        class_need, need
                    ):
                        return False
        return True

    def serve(self, q, **run_kw) -> "EvalResult":
        """Answer one routed read against this replica's live state."""
        with self._lock:
            self.inflight += 1
        try:
            return self.db.run(q, commit=False, typecheck=False, **run_kw)
        finally:
            with self._lock:
                self.inflight -= 1
                self.served_total += 1

    def snapshot_envs(self):
        """A consistent (ee, oe) pair for a pinned read.

        Capture order matters: apply installs ``oe`` before ``ee``, so
        reading ``ee`` first can never pair a new extent set with an
        object env missing its members (the same discipline as the
        primary's commit).
        """
        ee = self.db.ee
        oe = self.db.oe
        return ee, oe

    def serve_snapshot(self, q, ee, oe, **run_kw) -> "EvalResult":
        """Answer a pinned read against a captured (ee, oe) pair."""
        with self._lock:
            self.inflight += 1
        try:
            return self.db._run_snapshot(q, ee, oe, **run_kw)
        finally:
            with self._lock:
                self.inflight -= 1
                self.served_total += 1

    def health(self) -> dict:
        """JSON-safe health snapshot for ``Database.health()``."""
        return {
            "name": self.name,
            "state": self.state,
            "applied_lsn": self.applied_lsn,
            "lag": self.lag(),
            "star_mark": self.star,
            "marks": dict(self.marks),
            "inflight": self.inflight,
            "served": self.served_total,
            "applied": self.applied_total,
            "resyncs": self.resyncs_total,
            "audits": self.audits_total,
            "ship_failures": self.ship_failures_total,
            "quarantine_reason": self.quarantine_reason,
            "shipper": self.shipper.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Replica {self.name} {self.state} lsn={self.applied_lsn} "
            f"lag={self.lag()}>"
        )
