"""Crash recovery: the prefix-consistency contract, certified by sweep.

The headline experiment (`TestCrashPointSweep`) builds a durable
database with 50+ journalled commits — shard-delta records, define records
and ``U``-effect full records — remembering the exact (EE, OE, defs)
after every one.  It then simulates a crash at **every record boundary
and intra-record byte offset** of the log (every single byte under
``REPRO_SWEEP_FULL=1``; boundaries plus deterministic samples in quick
mode) by truncating — or tearing, i.e. truncating and appending
garbage — a copy of the log, recovering from the copy, and asserting
the result is **exactly** the state after the longest complete record
prefix.  Not ∼-equivalent: byte-identical oids, extents and records,
because replay is physical.

A bit-flip sweep asserts the other half of the contract: a corrupted
middle of the log either recovers to a (shorter) prefix or raises
loudly — no crash point and no flipped bit ever yields a state that
some prefix of the committed sequence cannot explain.
"""

import os
import random
import shutil
import struct
import zlib

import pytest

from repro.db import recovery, wal
from repro.db.database import Database
from repro.db.persistence import PersistenceError
from repro.db.recovery import apply_record, recover
from repro.db.shards import ShardSpec
from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord
from repro.db.wal import MAGIC, WalError
from repro.errors import TransientFault
from repro.lang.ast import IntLit, MethodCall, OidRef, StrLit
from repro.methods.ast import AccessMode
from repro.resilience import faults as fault_injection
from repro.resilience.faults import FaultPlan, FaultRule, inject
from tests.conftest import EMPLOYEE_ODL

FULL_SWEEP = os.environ.get("REPRO_SWEEP_FULL", "") not in ("", "0")

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Team extends Object (extent Teams) {
    attribute string tag;
}
"""

ACCOUNT_ODL = """
class Account extends Object (extent Accounts) {
    attribute int balance;
    int deposit(int amount) effect U(Account) {
        this.balance := this.balance + amount;
        return this.balance;
    }
}
"""


def _state(db):
    return (db.ee, db.oe, tuple(sorted(db.definitions)))


def _assert_state(db, expected, label):
    ee, oe, defs = expected
    assert db.ee == ee, f"{label}: extents diverge"
    assert db.oe == oe, f"{label}: objects diverge"
    assert tuple(sorted(db.definitions)) == defs, f"{label}: defs diverge"


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    fault_injection.uninstall()


# ---------------------------------------------------------------------------
# Basic open / recover lifecycle
# ---------------------------------------------------------------------------


class TestOpen:
    def test_open_without_checkpoint_or_odl_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="no checkpoint"):
            Database.open(str(tmp_path / "fresh"))

    def test_open_creates_then_reopens(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        db.run('new Person(name: "Ada", age: 36)')
        db.close()
        db2 = Database.open(d)
        assert len(db2.extent("Persons")) == 1
        # the reopened database keeps journalling
        db2.run('new Person(name: "Bob", age: 41)')
        db2.close()
        db3 = Database.open(d)
        assert len(db3.extent("Persons")) == 2
        db3.close()

    def test_recover_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="no checkpoint"):
            recover(str(tmp_path))

    def test_read_only_queries_append_nothing(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        db.run('new Person(name: "Ada", age: 36)')
        size = db.wal.size()
        db.run("{ p.name | p <- Persons }")
        db.run("1 + 2")
        assert db.wal.size() == size
        db.close()

    def test_checkpoint_folds_and_skips_on_stale_log(self, tmp_path):
        # the crash window between writing a checkpoint and resetting
        # the log: folded records must be skipped, not replayed twice
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        for i in range(5):
            db.run(f'new Person(name: "p{i}", age: {20 + i})')
        stale = open(recovery.wal_path(d), "rb").read()
        db.checkpoint()
        for i in range(2):
            db.run(f'new Team(tag: "t{i}")')
        fresh = open(recovery.wal_path(d), "rb").read()
        expected = _state(db)
        db.close()
        # stitch the pre-checkpoint records back in front, as if the
        # reset never reached the disk
        with open(recovery.wal_path(d), "wb") as fh:
            fh.write(MAGIC + stale[len(MAGIC):] + fresh[len(MAGIC):])
        res = recover(d, attach=False)
        assert res.skipped == 5 and res.replayed == 2
        _assert_state(res.db, expected, "checkpoint crash window")

    def test_recovered_database_resumes_oid_supply_past_the_log(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        db.run('new Person(name: "Ada", age: 36)')
        db.run('new Person(name: "Bob", age: 41)')
        old = set(db.oe.oids())
        db.close()
        db2 = Database.open(d)
        db2.run('new Person(name: "Eve", age: 50)')
        fresh = set(db2.oe.oids()) - old
        assert len(fresh) == 1 and fresh.isdisjoint(old)
        db2.close()


# ---------------------------------------------------------------------------
# The crash-point sweep
# ---------------------------------------------------------------------------


def _build_history(directory):
    """≥50 journalled commits; returns the state after each record.

    ``states[k]`` is the exact state a recovery that sees the first
    ``k`` log records must reproduce (``states[0]`` = the initial
    checkpoint).  The history mixes the three record kinds: ``delta``
    (inserts), ``define``, and ``full`` (a snapshot restore).
    """
    db = Database.open(directory, ODL)
    states = [_state(db)]
    rng = random.Random(9_2003)
    snap = None
    for i in range(52):
        roll = rng.random()
        if i == 20:
            snap = db.snapshot()
            continue  # snapshots are not commits: no record
        if i == 30:
            db.restore(snap)  # full record (unattributed change)
        elif roll < 0.1:
            db.define(
                f"define q{i}() as {{ p | p <- Persons, p.age > {i} }};"
            )
        elif roll < 0.55:
            db.run(f'new Person(name: "p{i}", age: {18 + i % 40})')
        else:
            db.run(f'new Team(tag: "t{i}")')
        states.append(_state(db))
    db.close()
    return states


def _record_boundaries(raw):
    """Byte offsets at which the log is a complete record prefix."""
    boundaries = [len(MAGIC)]
    off = len(MAGIC)
    frame = struct.Struct(">II")
    while off < len(raw):
        length, _ = frame.unpack_from(raw, off)
        off += frame.size + length
        boundaries.append(off)
    assert off == len(raw)
    return boundaries


def _prefix_for(cut, boundaries):
    """How many complete records a log cut at byte ``cut`` retains."""
    return max(k for k, b in enumerate(boundaries) if b <= cut)


def _sweep_cuts(raw, boundaries):
    """Every byte in full mode; boundaries + per-record samples in quick."""
    if FULL_SWEEP:
        return list(range(len(MAGIC), len(raw) + 1))
    cuts = set(boundaries)
    rng = random.Random(2003)
    for start, end in zip(boundaries, boundaries[1:]):
        # the frame header, one payload byte, and the last byte of the
        # record are the interesting tears; plus two random offsets
        cuts.update((start + 1, start + 9, end - 1))
        cuts.update(rng.randrange(start + 1, end) for _ in range(2))
    return sorted(c for c in cuts if len(MAGIC) <= c <= len(raw))


def _crash_copy(src_dir, dst_dir, log_bytes):
    os.makedirs(dst_dir, exist_ok=True)
    shutil.copy(
        recovery.checkpoint_path(src_dir), recovery.checkpoint_path(dst_dir)
    )
    with open(recovery.wal_path(dst_dir), "wb") as fh:
        fh.write(log_bytes)


class TestCrashPointSweep:
    @pytest.fixture(scope="class")
    def history(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("wal-sweep"))
        states = _build_history(directory)
        raw = open(recovery.wal_path(directory), "rb").read()
        boundaries = _record_boundaries(raw)
        assert len(boundaries) - 1 == len(states) - 1 >= 50
        return directory, states, raw, boundaries

    def test_history_is_long_enough(self, history):
        _, states, _, boundaries = history
        assert len(boundaries) - 1 >= 50  # the acceptance floor

    def test_truncation_at_every_crash_point_recovers_a_prefix(
        self, history, tmp_path
    ):
        directory, states, raw, boundaries = history
        crash_dir = str(tmp_path / "crash")
        for cut in _sweep_cuts(raw, boundaries):
            _crash_copy(directory, crash_dir, raw[:cut])
            res = recover(crash_dir, attach=False)
            k = _prefix_for(cut, boundaries)
            assert res.torn == (cut not in boundaries)
            _assert_state(res.db, states[k], f"truncated at byte {cut}")

    def test_torn_write_at_every_crash_point_recovers_a_prefix(
        self, history, tmp_path
    ):
        # a torn write leaves garbage, not silence, after the last good
        # record — recovery must cut it off just the same
        directory, states, raw, boundaries = history
        crash_dir = str(tmp_path / "torn")
        rng = random.Random(5)
        cuts = _sweep_cuts(raw, boundaries)
        if not FULL_SWEEP:
            cuts = cuts[:: max(1, len(cuts) // 80)]
        for cut in cuts:
            garbage = bytes(rng.randrange(256) for _ in range(11))
            _crash_copy(directory, crash_dir, raw[:cut] + garbage)
            res = recover(crash_dir, attach=False)
            assert res.torn
            k = _prefix_for(cut, boundaries)
            _assert_state(res.db, states[k], f"torn write at byte {cut}")

    def test_bit_flips_recover_a_prefix_or_raise(self, history, tmp_path):
        directory, states, raw, boundaries = history
        crash_dir = str(tmp_path / "flip")
        rng = random.Random(7)
        if FULL_SWEEP:
            positions = range(len(raw))
        else:
            positions = sorted(
                rng.sample(range(len(raw)), min(200, len(raw)))
            )
        for pos in positions:
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << rng.randrange(8)
            _crash_copy(directory, crash_dir, bytes(flipped))
            try:
                res = recover(crash_dir, attach=False)
            except (WalError, PersistenceError):
                continue  # loud failure is within the contract
            k = _prefix_for(pos, boundaries)
            _assert_state(
                res.db, states[k], f"bit flip at byte {pos}"
            )

    def test_recovered_prefix_answers_queries(self, history, tmp_path):
        # a recovered prefix is a *working* database, not just equal envs
        directory, states, raw, boundaries = history
        crash_dir = str(tmp_path / "alive")
        cut = boundaries[len(boundaries) // 2]
        _crash_copy(directory, crash_dir, raw[:cut])
        db = recover(crash_dir, attach=False).db
        names = db.run("{ p.name | p <- Persons }").value
        assert len(names.items) == len(db.extent("Persons"))


# ---------------------------------------------------------------------------
# Idempotence: recovery may itself crash
# ---------------------------------------------------------------------------


class TestRecoveryIdempotence:
    def _torn_directory(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        for i in range(6):
            db.run(f'new Person(name: "p{i}", age: {30 + i})')
        db.close()
        path = recovery.wal_path(d)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        return d

    def test_recovering_twice_reaches_the_same_state(self, tmp_path):
        d = self._torn_directory(tmp_path)
        first = recover(d, attach=False)
        assert first.torn
        second = recover(d, attach=False)
        assert not second.torn  # the tail was repaired on the first run
        _assert_state(second.db, _state(first.db), "second recovery")

    def test_crash_during_replay_then_clean_recovery(self, tmp_path):
        d = self._torn_directory(tmp_path)
        plan = FaultPlan([FaultRule("recovery.replay", at=3)])
        with inject(plan):
            with pytest.raises(TransientFault):
                recover(d, attach=False)
        res = recover(d, attach=False)
        assert not res.torn  # repair preceded the crashed replay
        assert res.replayed == 5
        assert len(res.db.extent("Persons")) == 5

    def test_repeated_crashes_converge(self, tmp_path):
        d = self._torn_directory(tmp_path)
        for at in (1, 2, 4):
            with inject(FaultPlan([FaultRule("recovery.replay", at=at)])):
                with pytest.raises(TransientFault):
                    recover(d, attach=False)
            fault_injection.uninstall()
        res = recover(d, attach=False)
        assert len(res.db.extent("Persons")) == 5


# ---------------------------------------------------------------------------
# U-effect commits log full records (the §5 coarsening)
# ---------------------------------------------------------------------------


class TestUpdateCommits:
    def test_update_commit_is_a_full_record(self, tmp_path):
        d = str(tmp_path / "bank")
        db = Database.open(d, ACCOUNT_ODL, method_mode=AccessMode.EFFECTFUL)
        db.run("new Account(balance: 100)")
        (a,) = sorted(db.extent("Accounts"))
        db.run(MethodCall(OidRef(a), "deposit", (IntLit(25),)))
        records = wal.read_records(recovery.wal_path(d))
        assert [r["kind"] for r in records] == ["shard-delta", "full"]
        expected = _state(db)
        db.close()
        res = recover(d, attach=False)
        _assert_state(res.db, expected, "after update replay")
        balance = res.db.run(f"{a}.balance").value
        assert balance == IntLit(125)

    def test_update_crash_loses_only_the_update(self, tmp_path):
        d = str(tmp_path / "bank")
        db = Database.open(d, ACCOUNT_ODL, method_mode=AccessMode.EFFECTFUL)
        db.run("new Account(balance: 100)")
        (a,) = sorted(db.extent("Accounts"))
        pre_update = _state(db)
        db.run(MethodCall(OidRef(a), "deposit", (IntLit(25),)))
        db.close()
        path = recovery.wal_path(d)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 1)
        res = recover(d, attach=False)
        _assert_state(res.db, pre_update, "torn update record")


# ---------------------------------------------------------------------------
# Semantic validation of checksummed records
# ---------------------------------------------------------------------------


def _both_kinds(objects, members):
    """One payload as each replayable state record: a ``shard-delta``
    (``members`` are added oids) and a ``full`` (whole extents)."""
    return [
        {"lsn": 1, "kind": "shard-delta", "objects": objects, "adds": members},
        {"lsn": 1, "kind": "full", "objects": objects, "extents": members},
    ]


class TestApplyRecordValidation:
    def _db(self):
        return Database.from_odl(ODL)

    def test_unknown_kind_raises(self):
        with pytest.raises(WalError, match="unknown kind"):
            apply_record(self._db(), {"lsn": 1, "kind": "mystery"})

    def test_legacy_whole_membership_delta_is_an_unknown_kind(self):
        # the pre-merge-install record kind: replaying its whole-extent
        # membership as additive would be silently wrong, so it is refused
        rec = {
            "lsn": 1,
            "kind": "delta",
            "objects": {},
            "extents": {"Persons": []},
        }
        with pytest.raises(WalError, match="unknown kind 'delta'"):
            apply_record(self._db(), rec)

    def test_unknown_class_raises(self):
        objects = {"@Alien_0": {"class": "Alien", "attrs": {}}}
        for rec in _both_kinds(objects, {}):
            with pytest.raises(WalError, match="unknown class"):
                apply_record(self._db(), rec)

    def test_wrong_attribute_set_raises(self):
        objects = {
            "@Person_0": {
                "class": "Person",
                "attrs": {"name": {"t": "str", "v": "x"}},
            }
        }
        for rec in _both_kinds(objects, {}):
            with pytest.raises(WalError, match="attribute set"):
                apply_record(self._db(), rec)

    def test_extent_with_missing_object_raises(self):
        for rec in _both_kinds({}, {"Persons": ["@Person_9"]}):
            with pytest.raises(WalError, match="missing object"):
                apply_record(self._db(), rec)

    def test_unknown_extent_raises(self):
        for rec in _both_kinds({}, {"Ufos": []}):
            with pytest.raises(WalError, match="unknown extent"):
                apply_record(self._db(), rec)

    def test_non_monotone_lsns_raise(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        db.run('new Person(name: "Ada", age: 36)')
        db.close()
        path = recovery.wal_path(d)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:  # duplicate the record: lsn 1, 1
            fh.write(raw + raw[len(MAGIC):])
        with pytest.raises(WalError, match="non-monotone"):
            recover(d, attach=False)


# ---------------------------------------------------------------------------
# A-only commits log O(delta) bytes; shard layouts are journalled
# ---------------------------------------------------------------------------


def _hr_store(directory, employees):
    """A durable HR store holding one manager and ``employees``
    employees, bulk-built in memory and then checkpointed."""
    db = Database.from_odl(EMPLOYEE_ODL)
    boss = "@Manager_0"
    recs = {
        boss: ObjectRecord(
            "Manager",
            (
                ("name", StrLit("Grace")),
                ("age", IntLit(50)),
                ("address", StrLit("NYC")),
                ("level", IntLit(3)),
            ),
        )
    }
    staff = [f"@Employee_{i + 1}" for i in range(employees)]
    for i, oid in enumerate(staff):
        recs[oid] = ObjectRecord(
            "Employee",
            (
                ("name", StrLit(f"emp{i}")),
                ("age", IntLit(20 + i % 40)),
                ("address", StrLit("London")),
                ("EmpID", IntLit(i)),
                ("GrossSalary", IntLit(3000 + i % 4000)),
                ("UniqueManager", OidRef(boss)),
            ),
        )
    db.oe = ObjectEnv(recs)
    db.ee = ExtentEnv(
        {
            "Persons": ("Person", frozenset()),
            "Managers": ("Manager", frozenset([boss])),
            "Employees": ("Employee", frozenset(staff)),
        }
    )
    db.supply.advance_to(employees + 1)
    db.attach_wal(directory, sync=False)
    return db


class TestWalBytesPerWrite:
    """An ``A``-only commit logs what it added, not the extents it
    joined: one object's record costs the same at any extent size, up
    to the width of its oid's digits."""

    def _bytes_per_write(self, tmp_path, employees):
        db = _hr_store(str(tmp_path / f"hr{employees}"), employees)
        path = recovery.wal_path(db.wal_dir)
        sizes = [os.path.getsize(path)]
        db.insert(
            "Employee", name="new", age=30, address="Paris",
            EmpID=employees, GrossSalary=4000,
            UniqueManager=OidRef("@Manager_0"),
        )
        sizes.append(os.path.getsize(path))
        db.run('new Person(name: "p", age: 1, address: "x")')
        sizes.append(os.path.getsize(path))
        db.close()
        return sizes[1] - sizes[0], sizes[2] - sizes[1]

    def test_bytes_do_not_grow_with_extent_size(self, tmp_path):
        small = self._bytes_per_write(tmp_path, 500)
        large = self._bytes_per_write(tmp_path, 8000)
        for s, l in zip(small, large):
            assert abs(l - s) <= 64, (small, large)
            assert l < 1024, (small, large)


class TestShardLayoutDurability:
    def test_shard_record_advances_the_star_mark(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), ODL)
        db.insert("Person", name="a", age=1)
        db.shard("Person", k=4, by="age")
        (rec,) = wal.read_records(recovery.wal_path(db.wal_dir))[-1:]
        assert {k: rec[k] for k in ("kind", "class", "k", "by")} == {
            "kind": "shard", "class": "Person", "k": 4, "by": "age",
        }
        assert db.write_marks()["*"] == rec["lsn"]
        db.close()

    def test_wal_only_recovery_keeps_the_layout(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, ODL)
        db.shard("Person", k=4, by="age")
        db.shard("Team", k=2)
        for i in range(6):
            db.insert("Person", name=f"p{i}", age=i)
        expected = _state(db)
        db.close()  # no checkpoint since shard(): the log alone has it
        got = recover(d, attach=False).db
        _assert_state(got, expected, "sharded WAL-only recovery")
        assert got._shards.spec("Persons") == ShardSpec(
            "Person", "Persons", 4, "age"
        )
        assert got._shards.spec("Teams") == ShardSpec("Team", "Teams", 2)

    def test_invalid_shard_record_raises(self):
        rec = {"lsn": 1, "kind": "shard", "class": "Person", "k": 2, "by": "zip"}
        with pytest.raises(WalError, match="does not apply"):
            apply_record(Database.from_odl(ODL), rec)
