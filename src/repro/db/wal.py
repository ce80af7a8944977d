"""An effect-guided write-ahead log for :class:`~repro.db.Database`.

A database saved only by :func:`repro.db.persistence.save` loses every
commit since the last full dump when the process dies.  The WAL closes
that window: every commit appends one **length-prefixed, checksummed**
record *before* the new EE/OE is installed, so a crash at any byte
boundary loses at most the commits whose records never reached the
disk — recovery (:mod:`repro.db.recovery`) replays the intact prefix
and truncates the torn tail.

The §4 effect system is what makes the log *cheap*.  By Theorem 5 the
dynamic trace of a committed statement is a subeffect of its static
effect ε, so the physical delta of an ``A(C)``-only commit is bounded
by the extents the ``A`` atoms name: its ``shard-delta`` record
carries just the oids that joined those extents plus their object
records — a size independent of the extents'.  A commit whose effect
contains a ``U`` atom forces a **full** delta instead — attribute
reads carry no effect atom (the §5 reference-chasing caveat, the same
coarsening :mod:`repro.sched` applies), so no smaller bound exists.  Unattributed state changes
(transaction rollback, :meth:`Database.restore`) likewise log full
records.

On-disk format (``wal.log``)::

    8-byte header  b"IOQLWAL\\x01"
    record*        4-byte BE payload length
                   4-byte BE CRC32 of the payload
                   payload: UTF-8 JSON (one commit)

Each payload carries a monotone ``lsn``; a checkpoint remembers the
highest LSN it folded, so recovery after a crash *between* writing a
new checkpoint and truncating the log simply skips the already-folded
records.  Readers come in two flavours: :func:`read_records` is strict
(any corruption raises :class:`WalError` — a checksummed log never
yields a silently wrong store) and :func:`scan` is tolerant (it returns
the valid prefix plus the byte offset where it ends, which is what
crash recovery truncates to).

Append failure is self-repairing: if an injected ``wal.append`` /
``wal.fsync`` fault (or a real I/O error) interrupts an append, the
file is truncated back to its pre-append length before the exception
propagates — the caller's commit fails, and the log agrees that it
never happened.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import ReproError
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.resilience.faults import maybe_fault

MAGIC = b"IOQLWAL\x01"
_FRAME = struct.Struct(">II")  # payload length, CRC32(payload)

#: Hard cap on one record's payload; a longer length prefix is corruption.
MAX_RECORD_BYTES = 256 * 1024 * 1024


class WalError(ReproError):
    """A write-ahead log file is corrupt, torn, or unusable."""


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(raw: bytes, offset: int) -> dict:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalError(
            f"record at byte {offset}: checksummed payload is not JSON "
            f"({exc})"
        ) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("lsn"), int):
        raise WalError(
            f"record at byte {offset}: payload is not a WAL record object"
        )
    return doc


class WriteAheadLog:
    """Appender over one ``wal.log`` file.

    The writer keeps the file open in binary append mode and assigns
    each record the next LSN.  ``sync=True`` (the default) fsyncs every
    record — the durability the crash-point sweep certifies;
    ``sync=False`` only flushes to the OS, trading the tail of an
    OS-level crash for latency (a torn tail still recovers to a prefix
    either way).
    """

    def __init__(self, path: str, *, next_lsn: int = 1, sync: bool = True):
        self.path = os.path.abspath(path)
        self.sync = sync
        self._next_lsn = next_lsn
        # recent fsync latencies (seconds), always on: the health
        # surface reports exact p50/p99 from here even with obs off
        self.fsync_times: deque = deque(maxlen=256)
        existing = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        self._fh = open(self.path, "ab")
        if existing == 0:
            self._fh.write(MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record (0 if none)."""
        return self._next_lsn - 1

    def size(self) -> int:
        """Current on-disk length in bytes (header included)."""
        self._fh.flush()
        return os.path.getsize(self.path)

    # -- writing ---------------------------------------------------------
    def append(self, record: dict[str, Any]) -> int:
        """Frame ``record``, append it, make it durable; returns its LSN.

        The record dict must not already carry an ``lsn`` — the log owns
        numbering.  On *any* failure past the ``wal.append`` fault site
        the file is truncated back to its pre-append length, so a failed
        commit leaves no half-record behind.
        """
        if self._fh.closed:
            raise WalError("write-ahead log is closed")
        lsn = self._next_lsn
        record = dict(record)
        record["lsn"] = lsn
        payload = json.dumps(
            record, ensure_ascii=False, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        frame = _frame(payload)
        start = self._fh.tell()
        fsync_s: float | None = None
        try:
            maybe_fault("wal.append")
            self._fh.write(frame)
            self._fh.flush()
            maybe_fault("wal.fsync")
            if self.sync:
                t0 = time.monotonic()
                os.fsync(self._fh.fileno())
                fsync_s = time.monotonic() - t0
                self.fsync_times.append(fsync_s)
        except BaseException as exc:
            # self-repair: the commit is failing, so the log must agree
            # that it never happened
            try:
                self._fh.truncate(start)
                self._fh.seek(start)
            except OSError as oserr:  # pragma: no cover - disk-level failure
                self._fh.close()
                raise WalError(
                    f"wal append failed and the partial record could not "
                    f"be removed: {oserr}"
                ) from oserr
            # black box: the failed append plus everything that led to
            # it (the commit's effect, the injected fault) hits disk
            # next to the log it concerns
            _flight.record(
                "wal-append-failed",
                lsn=lsn,
                kind=record.get("kind", "?"),
                error=f"{type(exc).__name__}: {exc}",
            )
            _flight.crash_dump(
                "wal-append-failed",
                error=exc,
                directory=os.path.dirname(self.path),
            )
            raise
        self._next_lsn = lsn + 1
        _flight.record(
            "wal-append",
            lsn=lsn,
            kind=record.get("kind", "?"),
            bytes=len(frame),
        )
        if _OBS.enabled:
            _METRICS.counter("wal_records_total", kind=record.get("kind", "?")).inc()
            _METRICS.counter("wal_bytes_total").inc(len(frame))
            if self.sync:
                _METRICS.counter("wal_fsyncs_total").inc()
                if fsync_s is not None:
                    _METRICS.histogram("wal_fsync_seconds").observe(fsync_s)
        return lsn

    def reset(self, *, next_lsn: int | None = None) -> None:
        """Truncate the log back to its header (checkpoint folding).

        LSNs keep counting monotonically unless explicitly restarted —
        a crash between checkpoint and reset must leave the folded
        records recognisably *old* (LSN ≤ the checkpoint's).
        """
        if self._fh.closed:
            raise WalError("write-ahead log is closed")
        self._fh.truncate(len(MAGIC))
        self._fh.seek(len(MAGIC))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if next_lsn is not None:
            self._next_lsn = next_lsn


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def scan(path: str) -> tuple[list[dict], int, WalError | None]:
    """Tolerantly read ``path``: ``(records, valid_bytes, error)``.

    ``records`` is the longest prefix of intact records, ``valid_bytes``
    the file offset just past the last of them (where crash recovery
    truncates), and ``error`` describes the first torn/corrupt record —
    ``None`` when the whole file is intact.  A missing file is an empty
    log.  Only a corrupt *header* is unrecoverable (there is no valid
    prefix to keep) and raises.
    """
    if not os.path.exists(path):
        return [], 0, None
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise WalError(
            f"{path}: not a write-ahead log (bad or truncated header)"
        )
    records: list[dict] = []
    offset = len(MAGIC)
    while offset < len(raw):
        try:
            record, end = _read_one(raw, offset)
        except WalError as exc:
            return records, offset, exc
        records.append(record)
        offset = end
    return records, offset, None


def _read_one(raw: bytes, offset: int) -> tuple[dict, int]:
    if offset + _FRAME.size > len(raw):
        raise WalError(f"record at byte {offset}: torn frame header")
    length, crc = _FRAME.unpack_from(raw, offset)
    if length > MAX_RECORD_BYTES:
        raise WalError(
            f"record at byte {offset}: implausible length {length} "
            f"(corrupt length prefix)"
        )
    body_start = offset + _FRAME.size
    body_end = body_start + length
    if body_end > len(raw):
        raise WalError(
            f"record at byte {offset}: torn payload "
            f"({body_end - len(raw)} byte(s) missing)"
        )
    payload = raw[body_start:body_end]
    if zlib.crc32(payload) != crc:
        raise WalError(f"record at byte {offset}: checksum mismatch")
    return _decode_payload(payload, offset), body_end


@dataclass(frozen=True)
class TailResult:
    """One :func:`tail` poll: the intact frames past a byte offset.

    ``offset`` is the position just past the last intact record — the
    next poll's starting point.  ``reset=True`` means the file shrank
    below the requested offset (a checkpoint folded the log); the
    caller's offset is meaningless and it must resynchronise from the
    checkpoint.  ``error`` is the first torn/corrupt frame at
    ``offset`` — for a live log that is usually an append still in
    flight, which the next poll will see completed; a *persistent*
    error while the file keeps growing is mid-file corruption.
    ``first_lsn`` is the LSN of the log's first frame, reported only
    when the poll found nothing past a non-header offset: a log reset
    and regrown to exactly that offset looks idle by size alone, but
    its first frame then lies past everything the caller shipped.
    """

    records: tuple[dict, ...]
    offset: int
    size: int
    reset: bool = False
    error: WalError | None = None
    first_lsn: int | None = None


def tail(path: str, offset: int) -> TailResult:
    """Incrementally read intact frames of ``path`` from byte ``offset``.

    This is the replication shipper's reader: tolerant like
    :func:`scan`, but resumable — it never re-reads shipped frames and
    never mutates the file (the primary owns repair).  A missing file
    or one shorter than ``offset`` reports ``reset`` rather than
    raising: both mean the stream the offset referred to is gone.
    """
    if not os.path.exists(path):
        return TailResult((), len(MAGIC), 0, reset=offset > len(MAGIC))
    with open(path, "rb") as fh:
        raw = fh.read()
    size = len(raw)
    if size < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise WalError(
            f"{path}: not a write-ahead log (bad or truncated header)"
        )
    offset = max(offset, len(MAGIC))
    if size < offset:
        return TailResult((), offset, size, reset=True)
    records: list[dict] = []
    error: WalError | None = None
    while offset < size:
        try:
            record, end = _read_one(raw, offset)
        except WalError as exc:
            error = exc
            break
        records.append(record)
        offset = end
    first_lsn = None
    if not records and error is None and offset > len(MAGIC):
        try:
            first_lsn = _read_one(raw, len(MAGIC))[0]["lsn"]
        except WalError:
            # shipped frames are never rewritten, only truncated away:
            # a torn first frame means the log was reset under us
            return TailResult((), offset, size, reset=True)
    return TailResult(
        tuple(records), offset, size, error=error, first_lsn=first_lsn
    )


def read_records(path: str) -> list[dict]:
    """Strictly read every record of ``path``.

    Any torn or corrupt record — including a torn tail that recovery
    would silently truncate — raises :class:`WalError`.  This is the
    audit-grade reader; recovery uses :func:`scan`.
    """
    records, _, error = scan(path)
    if error is not None:
        raise error
    return records


def iter_records(path: str) -> Iterator[dict]:
    """Iterate :func:`read_records` (strict)."""
    return iter(read_records(path))


def truncate_to(path: str, valid_bytes: int) -> None:
    """Chop a torn tail off ``path`` (idempotent; fsyncs the result)."""
    size = os.path.getsize(path)
    if size <= valid_bytes:
        return
    with open(path, "r+b") as fh:
        fh.truncate(max(valid_bytes, len(MAGIC)))
        fh.flush()
        os.fsync(fh.fileno())
