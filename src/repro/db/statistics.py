"""Per-(extent, attribute) statistics for the cost-based optimizer v2.

The optimizer's original :class:`~repro.optimizer.cost.CostModel` priced
predicates with the System-R constants (0.5 default, 0.1 equality) and
collections it could not see through at a flat guess.  This module is
the catalog that replaces those constants with measurements of the live
store:

* **row counts** — read directly off the live EE (exact and cheap, so
  they are never cached);
* **distinct counts** — per (extent, attribute), exact up to
  :data:`EXACT_DISTINCT_CAP` tracked values and a KMV (k-minimum-values)
  sketch beyond that, giving the 1/distinct equality selectivity;
* **value frequencies** — exact per-value counts below the cap, frozen
  to a top-:data:`MCV_SIZE` most-common-values list beyond it, so
  equality against a known literal (and equi-joins between two
  frequency-tracked columns) are priced by measured skew instead of the
  uniform 1/distinct guess;
* **equi-depth histograms** — per integer attribute, up to
  :data:`HISTOGRAM_BUCKETS` buckets, giving range selectivities for
  ``<``/``<=``/``>``/``>=`` predicates.

Maintenance follows the Theorem 5 effect discipline that already
governs the plan/result caches and :class:`~repro.db.store.AttributeIndexes`:

* an ``A(C)``-only commit can only *grow* the extent of ``C`` — cached
  column stats for the touched extents are **folded forward** with the
  added objects' values when the commit path supplies them, otherwise
  evicted; stats on untouched extents are promoted to the new store
  version;
* any ``U`` atom may have rewritten attribute values anywhere, so every
  column stat is dropped;
* unattributed state changes (restore, rollback, recovery, replica
  installs) advance the store version without a promotion, so every
  cached column stat lazily invalidates on its next version check —
  the safe default.

Staleness of *plans* is handled by the **stats epoch**: a monotone
counter bumped whenever an extent's row count drifts geometrically
(roughly 2×) from the anchor it had when the epoch was last bumped.
Compiled plans record the epoch they were costed against
(:class:`~repro.exec.cache.PlanEntry`), and the engine treats an epoch
mismatch as a cache miss — so a generator order chosen against an empty
catalog is re-costed after the extent grows, while steady-state commits
recompile nothing (O(log n) recompiles over an n-row load).

A wrong or stale estimate can only cost performance, never answers —
correctness is carried entirely by the effect side conditions.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping

from repro.db.store import column_values
from repro.lang.ast import IntLit, Query
from repro.model.schema import Schema

EXACT_DISTINCT_CAP = 4096
"""Distinct values tracked exactly before falling back to the sketch."""

SKETCH_K = 256
"""Number of minimum hashes the KMV distinct sketch retains."""

HISTOGRAM_BUCKETS = 16
"""Maximum equi-depth buckets per integer attribute."""

MCV_SIZE = 16
"""Most-common values kept once exact frequency tracking overflows."""

_HASH_SPACE = float(1 << 64)


class DistinctSketch:
    """KMV (k-minimum-values) distinct-count estimator.

    Keeps the :data:`SKETCH_K` smallest 64-bit hashes seen; the
    estimate is ``(k-1) * 2^64 / kth_smallest`` once full, exact count
    below that.  Insertion is O(log k); duplicates collapse because the
    same value hashes identically.
    """

    __slots__ = ("k", "_heap", "_members")

    def __init__(self, k: int = SKETCH_K):
        self.k = k
        self._heap: list[int] = []  # max-heap via negation
        self._members: set[int] = set()

    def add(self, value: Query) -> None:
        h = hash(value) & 0xFFFFFFFFFFFFFFFF
        if h in self._members:
            return
        if len(self._heap) < self.k:
            self._members.add(h)
            heapq.heappush(self._heap, -h)
            return
        largest = -self._heap[0]
        if h < largest:
            self._members.discard(largest)
            self._members.add(h)
            heapq.heapreplace(self._heap, -h)

    def estimate(self) -> float:
        n = len(self._heap)
        if n < self.k:
            return float(n)
        kth = -self._heap[0]
        if kth <= 0:
            return float(n)
        return (self.k - 1) * _HASH_SPACE / float(kth)


class ColumnStats:
    """Distinct count + optional equi-depth histogram for one column.

    Built from a full scan of the extent's live members; refined in
    place when an ``A``-only commit folds new rows forward.  ``rows``
    is the membership the stats were computed over — the live row count
    always comes from the EE, so a reader comparing the two can see
    drift.
    """

    __slots__ = (
        "extent",
        "attr",
        "rows",
        "_exact",
        "_sketch",
        "_freq",
        "_freq_frozen",
        "_bounds",
        "_counts",
        "_hist_rows",
        "_min",
        "_numeric",
    )

    def __init__(self, extent: str, attr: str):
        self.extent = extent
        self.attr = attr
        self.rows = 0
        self._exact: set[Query] | None = set()
        self._sketch: DistinctSketch | None = None
        # per-value counts: exact while the column is below the distinct
        # cap, frozen to the MCV_SIZE most common values beyond it
        self._freq: dict[Query, int] = {}
        self._freq_frozen = False
        # histogram: _bounds[i] is the inclusive upper bound of bucket i
        # (ascending); _counts[i] is the number of rows in it; _min is
        # the dataset minimum (the lower edge of bucket 0).
        self._bounds: list[int] = []
        self._counts: list[int] = []
        self._hist_rows = 0
        self._min = 0
        self._numeric = True

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls, extent: str, attr: str, oe, members: Iterable[str]
    ) -> "ColumnStats":
        stats = cls(extent, attr)
        ints: list[int] = []
        for value in column_values(oe, members, attr):
            stats._note_distinct(value)
            stats.rows += 1
            if stats._numeric:
                if isinstance(value, IntLit):
                    ints.append(value.value)
                else:
                    stats._numeric = False
        if stats._numeric and ints:
            stats._build_histogram(ints)
        return stats

    def _build_histogram(self, ints: list[int]) -> None:
        ints.sort()
        n = len(ints)
        buckets = min(HISTOGRAM_BUCKETS, n)
        bounds: list[int] = []
        counts: list[int] = []
        start = 0
        for b in range(buckets):
            end = ((b + 1) * n) // buckets
            if end <= start:
                continue
            hi = ints[end - 1]
            # merge runs of equal values into the same bucket so bounds
            # stay strictly increasing (equi-depth on distinct cuts)
            while end < n and ints[end] == hi:
                end += 1
            if bounds and bounds[-1] == hi:
                counts[-1] += end - start
            else:
                bounds.append(hi)
                counts.append(end - start)
            start = end
            if start >= n:
                break
        self._bounds = bounds
        self._counts = counts
        self._hist_rows = n
        self._min = ints[0]

    def _note_distinct(self, value: Query) -> None:
        if not self._freq_frozen:
            self._freq[value] = self._freq.get(value, 0) + 1
        elif value in self._freq:
            self._freq[value] += 1
        if self._exact is not None:
            self._exact.add(value)
            if len(self._exact) > EXACT_DISTINCT_CAP:
                sketch = DistinctSketch()
                for v in self._exact:
                    sketch.add(v)
                self._sketch = sketch
                self._exact = None
                self._freq = dict(
                    sorted(
                        self._freq.items(),
                        key=lambda kv: kv[1],
                        reverse=True,
                    )[:MCV_SIZE]
                )
                self._freq_frozen = True
        else:
            assert self._sketch is not None
            self._sketch.add(value)

    # -- incremental refinement (A-only commits) ---------------------------
    def fold(self, oe, added: Iterable[str]) -> None:
        """Fold newly added oids' values into the stats in place."""
        for value in column_values(oe, added, self.attr):
            self._note_distinct(value)
            self.rows += 1
            if not self._numeric:
                continue
            if not isinstance(value, IntLit):
                self._numeric = False
                self._bounds = []
                self._counts = []
                self._hist_rows = 0
                continue
            if self._bounds:
                i = bisect_left(self._bounds, value.value)
                if i >= len(self._bounds):
                    i = len(self._bounds) - 1
                    self._bounds[i] = value.value  # extend the top bucket
                self._counts[i] += 1
                self._hist_rows += 1
                if value.value < self._min:
                    self._min = value.value

    # -- estimates ---------------------------------------------------------
    def distinct(self) -> float:
        if self._exact is not None:
            return float(len(self._exact))
        assert self._sketch is not None
        return self._sketch.estimate()

    def eq_selectivity(self, value: Query | None = None) -> float:
        """Selectivity of ``column = value``.

        With a concrete comparand the frequency table answers: an exact
        or MCV hit is its measured count, an exact miss is ≤ one row,
        and an MCV miss spreads the residual mass uniformly over the
        non-MCV distincts.  Without one, the uniform 1/distinct guess.
        """
        d = self.distinct()
        if d <= 0.0 or self.rows <= 0:
            return 1.0
        if value is not None and self._freq:
            count = self._freq.get(value)
            if count is not None:
                return min(1.0, count / self.rows)
            if not self._freq_frozen:
                return min(1.0, 1.0 / self.rows)
            mcv_rows = sum(self._freq.values())
            rest_rows = max(0.0, float(self.rows - mcv_rows))
            rest_d = max(1.0, d - len(self._freq))
            return min(1.0, (rest_rows / rest_d) / self.rows)
        return min(1.0, 1.0 / d)

    @property
    def has_histogram(self) -> bool:
        return bool(self._bounds) and self._hist_rows > 0

    def le_fraction(self, v: int) -> float:
        """Estimated P(column <= v) from the equi-depth histogram."""
        if not self.has_histogram:
            return 0.5
        total = float(self._hist_rows)
        i = bisect_left(self._bounds, v)
        if i >= len(self._bounds):
            return 1.0
        below = sum(self._counts[:i])
        # within the containing bucket assume uniformity over its span
        lo = self._bounds[i - 1] + 1 if i > 0 else self._min
        hi = self._bounds[i]
        if v < lo:
            frac_in = 0.0
        elif hi <= lo:
            frac_in = 1.0 if v >= hi else 0.0
        else:
            frac_in = min(1.0, max(0.0, (v - lo + 1) / float(hi - lo + 1)))
        return min(1.0, (below + frac_in * self._counts[i]) / total)

    def range_selectivity(self, op: str, v: int) -> float:
        """Selectivity of ``column <op> v`` for op in <, <=, >, >=."""
        if not self.has_histogram:
            return 0.5
        if op == "<=":
            return self.le_fraction(v)
        if op == "<":
            return self.le_fraction(v - 1)
        if op == ">":
            return max(0.0, 1.0 - self.le_fraction(v))
        if op == ">=":
            return max(0.0, 1.0 - self.le_fraction(v - 1))
        return 0.5

    def to_dict(self) -> dict:
        return {
            "extent": self.extent,
            "attr": self.attr,
            "rows": self.rows,
            "distinct": round(self.distinct(), 1),
            "exact": self._exact is not None,
            "histogram_buckets": len(self._bounds),
        }


def join_selectivity(left: ColumnStats, right: ColumnStats) -> float:
    """Selectivity of ``left.col = right.col`` over the cross product.

    When both columns still carry exact frequency tables the matching
    row count is computed directly (skew-proof); otherwise the textbook
    ``1/max(distinct)`` estimate.
    """
    if (
        not left._freq_frozen
        and not right._freq_frozen
        and left._freq
        and right._freq
        and left.rows > 0
        and right.rows > 0
    ):
        small, big = (
            (left, right)
            if len(left._freq) <= len(right._freq)
            else (right, left)
        )
        matches = sum(
            c * big._freq.get(v, 0) for v, c in small._freq.items()
        )
        return min(1.0, matches / float(left.rows * right.rows))
    d = max(left.distinct(), right.distinct())
    if d <= 0.0:
        return 1.0
    return min(1.0, 1.0 / d)


class StatisticsCatalog:
    """The database's per-column statistics, effect-maintained.

    Mirrors :class:`~repro.db.store.AttributeIndexes`: column stats are
    built lazily at a store version and answer only while that version
    (or an effect-promoted successor) is current.  The catalog also owns
    the **stats epoch** used to invalidate cached plans on geometric
    row-count drift.
    """

    def __init__(self):
        self._columns: dict[tuple[str, str], tuple[int, ColumnStats]] = {}
        self._anchors: dict[str, int] = {}
        self.epoch = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._columns)

    # -- epoch -------------------------------------------------------------
    def observe(self, ee) -> int:
        """Re-anchor row counts, bumping the epoch on material drift.

        Material = roughly a 2× change (with a small absolute slack so
        tiny extents don't thrash).  Called on every plan-cache lookup
        and after every commit — O(#extents) dict work.
        """
        with self._lock:
            bumped = False
            for extent in ee.names():
                rows = len(ee.members(extent))
                anchor = self._anchors.get(extent)
                if anchor is None:
                    self._anchors[extent] = rows
                    continue
                if rows > 2 * anchor + 8 or 2 * rows + 8 < anchor:
                    self._anchors[extent] = rows
                    bumped = True
            if bumped:
                self.epoch += 1
            return self.epoch

    # -- column access -----------------------------------------------------
    def column(
        self, ee, oe, version: int, extent: str, attr: str
    ) -> ColumnStats:
        """Stats for ``extent.attr`` valid at ``version`` (lazy build)."""
        key = (extent, attr)
        with self._lock:
            hit = self._columns.get(key)
            if hit is not None and hit[0] == version:
                return hit[1]
            stats = ColumnStats.build(extent, attr, oe, ee.members(extent))
            self._columns[key] = (version, stats)
            return stats

    # -- effect-guided maintenance ----------------------------------------
    def note_write(
        self,
        schema: Schema,
        effect,
        pre: int,
        post: int,
        adds: Mapping[str, Iterable[str]] | None = None,
        oe=None,
        ee=None,
    ) -> None:
        """Theorem 5 maintenance after a committed write.

        ``adds`` maps extent name → newly added oids when the commit
        path knows them (every ``A``-only commit does); with ``oe``
        present, touched columns are folded forward instead of
        evicted.
        """
        with self._lock:
            if effect.updates():
                self._columns.clear()
            else:
                touched = set()
                for cname in effect.adds():
                    try:
                        touched.add(schema.class_extent(cname))
                    except Exception:
                        continue
                for key in list(self._columns):
                    version, stats = self._columns[key]
                    if key[0] in touched:
                        added = adds.get(key[0]) if adds is not None else None
                        if (
                            added is not None
                            and oe is not None
                            and version == pre
                        ):
                            stats.fold(oe, added)
                            self._columns[key] = (post, stats)
                        else:
                            del self._columns[key]
                    elif version == pre:
                        self._columns[key] = (post, stats)
        if ee is not None:
            self.observe(ee)

    def clear(self) -> None:
        with self._lock:
            self._columns.clear()

    # -- eager build / introspection --------------------------------------
    def analyze(self, schema: Schema, ee, oe, version: int) -> dict:
        """Eagerly build stats for every (extent, attribute) column.

        Returns a JSON-safe summary (the shell's ``.analyze``).
        """
        self.observe(ee)
        summary: dict[str, dict] = {}
        for extent in sorted(ee.names()):
            cname = ee.class_of(extent)
            try:
                attrs = schema.atypes(cname)
            except Exception:
                continue
            for attr, _ in attrs:
                try:
                    stats = self.column(ee, oe, version, extent, attr)
                except Exception:
                    continue
                summary[f"{extent}.{attr}"] = stats.to_dict()
        return summary

    def snapshot(self) -> dict:
        """Health-surface view: epoch, anchors, analyzed columns."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "anchored_extents": len(self._anchors),
                "analyzed_columns": len(self._columns),
                "columns": {
                    f"{extent}.{attr}": version
                    for (extent, attr), (version, _) in sorted(
                        self._columns.items()
                    )
                },
            }
