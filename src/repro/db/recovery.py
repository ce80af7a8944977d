"""Crash recovery: checkpoint + write-ahead log → a consistent database.

The durability contract (proved by the crash-point sweep in
``tests/test_db_recovery.py``): after a crash at *any* byte boundary —
mid-record, mid-fsync, between a checkpoint and the log reset that
should follow it — :func:`recover` yields a state equal to the one
reached by some **prefix** of the committed sequence, never a torn
mixture and never a state containing a commit that was not made
durable.

The algorithm is classical redo logging, specialised to the immutable
EE/OE store:

1. read the checkpoint (a sealed :mod:`repro.db.persistence` dump plus
   a ``durability`` stanza: the LSN it folded and the oid-supply
   counter);
2. scan the log tolerantly (:func:`repro.db.wal.scan`), truncate the
   torn tail **first** — repair is idempotent, so a crash *during*
   recovery re-runs to the same state;
3. replay intact records in LSN order, skipping those the checkpoint
   already folded (``lsn ≤ checkpoint.lsn`` — the crash window between
   writing a new checkpoint and resetting the log);
4. advance the oid supply past every logged allocation, so the
   recovered database never re-issues a spent oid.

Replay applies the records' *physical* deltas (an ``A``-only commit's
added extent members and new object records, bounded by its static
effect per Theorem 5; the whole state for a ``U`` commit, rollback or
restore), not the logical statements — re-running queries would be
slower and needlessly re-entangles recovery with evaluation.  A record
that passes its checksum but fails semantic validation (unknown extent,
wrong attribute set, non-monotone LSN) raises
:class:`~repro.db.wal.WalError`: a checksummed log is never *silently*
wrong, only detectably damaged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db import wal as _wal
from repro.db.persistence import (
    PersistenceError,
    load_database,
    read_document,
    value_from_json,
)
from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord
from repro.db.wal import WalError
from repro.errors import EvalError
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.resilience.faults import maybe_fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

#: File names inside a durable database directory.
CHECKPOINT_FILE = "checkpoint.json"
WAL_FILE = "wal.log"


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_FILE)


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_FILE)


@dataclass(frozen=True)
class RecoveryResult:
    """What one :func:`recover` run did."""

    db: "Database"
    checkpoint_lsn: int
    last_lsn: int
    replayed: int
    skipped: int
    torn: bool
    truncated_bytes: int

    def summary(self) -> str:
        tail = (
            f", truncated a torn tail of {self.truncated_bytes} byte(s)"
            if self.torn
            else ""
        )
        return (
            f"recovered from checkpoint lsn {self.checkpoint_lsn}: "
            f"replayed {self.replayed} record(s), skipped {self.skipped} "
            f"already-folded{tail}"
        )


def recover(
    directory: str, *, attach: bool = True, sync: bool = True
) -> RecoveryResult:
    """Rebuild the database stored under ``directory``.

    ``attach=True`` (the default) re-attaches the repaired log to the
    recovered database so it keeps journalling; ``attach=False`` is the
    read-only form the crash-point sweep uses.  Raises
    :class:`PersistenceError` for a damaged checkpoint and
    :class:`WalError` for semantically invalid log records; a *torn log
    tail* is not an error — it is the crash this module exists to
    absorb, and it is truncated away.
    """
    ckpt = checkpoint_path(directory)
    if not os.path.exists(ckpt):
        raise PersistenceError(
            f"no checkpoint under {directory!r}: not a durable database "
            "directory (Database.open creates one)"
        )
    doc = read_document(ckpt)
    wpath = wal_path(directory)
    with _span("recovery.replay", directory=directory) as sp:
        records, valid_bytes, scan_error = _wal.scan(wpath)
        torn = scan_error is not None
        truncated = 0
        if torn:
            truncated = os.path.getsize(wpath) - valid_bytes
            # repair before replay: truncation is idempotent, so a crash
            # mid-replay (e.g. an injected recovery.replay fault) leaves
            # the files exactly as a fresh recovery expects them
            _wal.truncate_to(wpath, valid_bytes)
        db = load_database(doc)
        durability = doc.get("durability", {})
        ckpt_lsn = int(durability.get("lsn", 0))
        db.supply.advance_to(int(durability.get("next_oid", 0)))
        last_lsn = ckpt_lsn
        replayed = skipped = 0
        for rec in records:
            maybe_fault("recovery.replay")
            lsn = rec["lsn"]
            if lsn <= ckpt_lsn:
                skipped += 1
                continue
            if lsn <= last_lsn:
                raise WalError(
                    f"non-monotone record lsn {lsn} after {last_lsn}"
                )
            apply_record(db, rec)
            last_lsn = lsn
            replayed += 1
        if _OBS.enabled:
            _METRICS.counter("recovery_replayed_records_total").inc(replayed)
            _METRICS.counter("recovery_skipped_records_total").inc(skipped)
            if torn:
                _METRICS.counter("recovery_torn_tails_total").inc()
                _METRICS.counter("recovery_truncated_bytes_total").inc(
                    truncated
                )
            sp.set(
                records=len(records),
                replayed=replayed,
                skipped=skipped,
                torn=torn,
            )
        # a replay IS a crash post-mortem: leave the black box next to
        # the files it recovered, with the replay's outcome as the tail
        _flight.record(
            "recovery-replay",
            directory=directory,
            checkpoint_lsn=ckpt_lsn,
            last_lsn=last_lsn,
            replayed=replayed,
            skipped=skipped,
            torn=torn,
            truncated_bytes=truncated,
        )
        _flight.crash_dump("recovery-replay", directory=directory)
        if attach:
            db._adopt_wal(directory, next_lsn=last_lsn + 1, sync=sync)
            db._checkpoint_lsn = ckpt_lsn
        return RecoveryResult(
            db=db,
            checkpoint_lsn=ckpt_lsn,
            last_lsn=last_lsn,
            replayed=replayed,
            skipped=skipped,
            torn=torn,
            truncated_bytes=truncated,
        )


def bootstrap(directory: str) -> tuple["Database", int, int]:
    """Non-mutating recover: seed a **replica** from a primary's files.

    Rebuilds the state from the checkpoint plus the intact log prefix
    exactly like :func:`recover`, but never repairs the log (the
    primary is alive and owns its files), never attaches a WAL to the
    result, and never dumps the flight ring (replicas resync routinely;
    a resync is not a crash).  Returns ``(db, last_lsn, valid_bytes)``:
    the replayed database, the highest LSN it contains, and the byte
    offset just past the last intact record — the shipper resumes
    tailing from there.
    """
    ckpt = checkpoint_path(directory)
    if not os.path.exists(ckpt):
        raise PersistenceError(
            f"no checkpoint under {directory!r}: not a durable database "
            "directory (Database.open creates one)"
        )
    doc = read_document(ckpt)
    records, valid_bytes, _scan_error = _wal.scan(wal_path(directory))
    db = load_database(doc)
    durability = doc.get("durability", {})
    ckpt_lsn = int(durability.get("lsn", 0))
    db.supply.advance_to(int(durability.get("next_oid", 0)))
    last_lsn = ckpt_lsn
    for rec in records:
        lsn = rec["lsn"]
        if lsn <= ckpt_lsn:
            continue
        if lsn <= last_lsn:
            raise WalError(f"non-monotone record lsn {lsn} after {last_lsn}")
        apply_record(db, rec)
        last_lsn = lsn
    return db, last_lsn, valid_bytes


# ---------------------------------------------------------------------------
# Record replay
# ---------------------------------------------------------------------------


def apply_record(db: "Database", rec: dict) -> None:
    """Apply one intact WAL record's physical delta to ``db``.

    Semantic validation failures raise :class:`WalError` — the record's
    checksum held, so either the log was tampered with beyond what a
    CRC catches or the writer was buggy; both must fail loudly.  So
    does a kind this reader does not know (e.g. the whole-membership
    ``delta`` of older logs): misreading it could silently drop or
    duplicate state.
    """
    kind = rec.get("kind")
    try:
        if kind == "define":
            db.define(rec["source"])
        elif kind == "shard":
            db.shard(rec["class"], k=int(rec["k"]), by=rec.get("by"))
        elif kind == "shard-delta":
            _apply_shard_delta(db, rec)
        elif kind == "full":
            _apply_state(db, rec)
            _restore_definitions(db, rec.get("definitions", []))
        else:
            raise WalError(f"record lsn {rec.get('lsn')}: unknown kind {kind!r}")
    except WalError:
        raise
    except Exception as exc:
        raise WalError(
            f"record lsn {rec.get('lsn')} does not apply: {exc}"
        ) from exc
    db.supply.advance_to(int(rec.get("next_oid", 0)))


def _with_logged_objects(schema, oe: ObjectEnv, objects: dict) -> ObjectEnv:
    """``oe`` plus a record's logged objects, each checked against the
    schema (known class, exactly the declared attribute set)."""
    decoded: dict[str, ObjectRecord] = {}
    for oid, entry in sorted(objects.items()):
        cname = entry["class"]
        if cname not in schema:
            raise WalError(f"object {oid}: unknown class {cname!r}")
        declared = [a for a, _ in schema.atypes(cname)]
        given = entry.get("attrs", {})
        if sorted(given) != sorted(declared):
            raise WalError(
                f"object {oid}: attribute set {sorted(given)} does not "
                f"match class {cname} ({sorted(declared)})"
            )
        try:
            attrs = tuple((a, value_from_json(given[a])) for a in declared)
            decoded[oid] = ObjectRecord(cname, attrs)
        except (PersistenceError, EvalError) as exc:
            raise WalError(f"object {oid}: {exc}") from exc
    return oe.with_objects(decoded)


def _checked_members(
    schema, ee: ExtentEnv, oe: ObjectEnv, extent: str, members
) -> frozenset[str]:
    """A record's members of ``extent``: a known extent, and live
    objects of exactly its class."""
    if extent not in ee:
        raise WalError(f"unknown extent {extent!r} in record")
    want = schema.extent_class(extent)
    for oid in members:
        if oid not in oe:
            raise WalError(
                f"extent {extent!r} references missing object {oid}"
            )
        if oe.class_of(oid) != want:
            raise WalError(
                f"extent {extent!r} holds {oid} of class "
                f"{oe.class_of(oid)!r}, expected {want!r}"
            )
    return frozenset(members)


def _apply_state(db: "Database", rec: dict) -> None:
    """Replay a ``full`` record: the whole EE/OE, replaced."""
    schema = db.schema
    oe = _with_logged_objects(schema, ObjectEnv(), rec.get("objects", {}))
    ee = ExtentEnv.for_schema(schema)
    for extent, members in sorted(rec.get("extents", {}).items()):
        ee = ee.with_members(
            extent, _checked_members(schema, ee, oe, extent, members)
        )
    # OE before EE: same installation order as Database commit
    db.oe = oe
    db.ee = ee


def _apply_shard_delta(db: "Database", rec: dict) -> None:
    """Replay one ``A``-only commit: an additive extent-membership union.

    ``shard-delta`` records carry only the commit's *added* members per
    extent (plus the new objects), never whole extents — so replay is a
    set union, which is idempotent and order-insensitive within the
    LSN-ordered prefix.  The record's ``"shards"`` stanza (which shard
    each oid was installed into) is observability metadata: replay
    recomputes the partition from the live layout rather than trusting
    the log, so a database recovered under a different (or no) shard
    declaration still reaches the identical extent state.
    """
    schema = db.schema
    oe = _with_logged_objects(schema, db.oe, rec.get("objects", {}))
    ee = db.ee
    for extent, added in sorted(rec.get("adds", {}).items()):
        added = _checked_members(schema, ee, oe, extent, added)
        if added:
            ee = ee.with_members(extent, ee.members(extent) | added)
    # OE before EE: same installation order as Database commit
    db.oe = oe
    db.ee = ee


def _restore_definitions(db: "Database", sources: list[str]) -> None:
    """Reset the definition environment to exactly ``sources``.

    Full records capture the whole DE because the unattributed state
    changes that produce them (transaction rollback, restore) may have
    *removed* definitions — replaying only additions cannot express
    that.
    """
    current = [d for d in db.definitions]
    if [*sources] == [
        _pretty_definition(db, name) for name in current
    ]:
        return
    db._defs_version += 1
    db._definitions.clear()
    db._def_types.clear()
    db.machine.defs = db._definitions
    for source in sources:
        db.define(source)


def _pretty_definition(db: "Database", name: str) -> str:
    from repro.lang.pprint import pretty_definition

    return pretty_definition(db.definitions[name])
