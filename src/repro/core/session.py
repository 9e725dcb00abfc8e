"""Batched update sessions over one view (the heavy-traffic path).

The per-update pipeline of :class:`repro.core.ufilter.UFilter` re-runs
probe queries and re-walks the marked ASG for every incoming update.
An :class:`UpdateSession` amortizes that work across a whole batch:

* **shared compile** — the marked view ASG comes out of an
  :class:`repro.core.asg_cache.ASGStore`, so building + STAR marking
  runs once per (schema, view) per process, not once per checker;
* **probe caching** — a :class:`repro.core.translation.ProbeCache` is
  attached to the translator: updates anchored at the same view node
  with the same predicate signature reuse PQ1/PQ2 results, and
  repeated PQ3 key probes collapse too.  The cache is kept current by
  its own :class:`repro.rdb.database.ChangeLog`: at the start of each
  execute, after each applied update and after each rollback, the
  session takes the relations whose versions moved since the cache's
  last refresh and drops every cached probe that read one of them.
  Writes made outside the session between two executes, other
  sessions' included, are caught the same way;
* **conflict detection** — before any SQL is applied, the queued dirty
  deletes and inserts of the batch are cross-checked: duplicate
  driving-key inserts, inserts under a parent tuple another update
  deletes, and replaces of deleted tuples are rejected up front;
* **one transaction** — the surviving translations are applied through
  :mod:`repro.rdb.transactions` as a single unit.

Two execution modes:

* ``staged`` (default): check every update against the pre-batch state
  (probes run read-only, so the cache never needs invalidating), then
  detect conflicts, then apply all surviving plans in one transaction.
  With ``atomic=True`` any rejected or conflicting update aborts the
  whole batch before a single statement runs.  Each entry's apply is
  savepointed, so a non-atomic batch that hits an engine error at
  apply time (the hybrid strategy's way of reporting data conflicts)
  loses only the failing update.
* ``interleaved``: check and apply update-by-update inside one open
  transaction — later updates see earlier effects, and the probe cache
  drops what each applied update wrote.  A savepoint per update lets
  non-atomic sessions undo just a failing update and continue; atomic
  sessions roll the entire batch back.

Sessions are also the *retry boundary* of the fault-tolerance layer:
transient failures (:class:`repro.errors.TransientError` — another
committer's :class:`~repro.errors.ConflictError`, an injected engine
fault) are absorbed by bounded retry with exponential backoff, each
update gets an optional wall-clock budget (blown budgets roll the
update back via its savepoint), and a *graceful-degradation policy*
decides what a stuck failure costs: ``abort-batch`` (all-or-nothing),
``skip-update`` (lose just the failing update) or ``commit-prefix``
(keep everything applied before the failure, skip the rest).  When the
database carries a write-ahead journal, each staged update's planned
operations are journaled as a durable intent before the first statement
runs, and a bumped ``recovery_epoch`` (crash repair happened) drops the
probe cache before the next batch trusts it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from ..errors import (
    ConstraintViolation,
    TransientError,
    UFilterError,
    UpdateTimeoutError,
)
from ..rdb.database import ChangeLog, Database
from ..xquery.ast import ViewQuery
from ..xquery.parser import parse_view_query
from ..xquery.update_ast import ViewUpdate
from .asg_cache import ASGStore, shared_store
from .translation import ProbeCache, TupleDelete, TupleInsert, TupleUpdate
from .ufilter import CheckReport, Outcome, UFilter

__all__ = [
    "FAILURE_POLICIES",
    "SessionEntry",
    "SessionResult",
    "UpdateSession",
    "run_per_update",
    "serialize_ops",
]


def serialize_ops(ops: Sequence[Any]) -> list[dict[str, Any]]:
    """Planned tuple operations as JSON-able intent payloads.

    The inverse lives in :meth:`repro.rdb.database.Database._redo_op`:
    a recovered intent re-executes through ordinary DML.
    """
    from ..rdb.wal import encode_row

    serialized: list[dict[str, Any]] = []
    for op in ops:
        if isinstance(op, TupleDelete):
            serialized.append({
                "op": "delete", "rel": op.relation,
                "rowids": sorted(op.rowids),
            })
        elif isinstance(op, TupleUpdate):
            serialized.append({
                "op": "update", "rel": op.relation,
                "rowids": sorted(op.rowids),
                "changes": encode_row(op.changes),
            })
        elif isinstance(op, TupleInsert) and op.role != "skip":
            serialized.append({
                "op": "insert", "rel": op.relation,
                "values": encode_row(op.values),
            })
    return serialized

MODES = ("staged", "interleaved")

#: strategies whose structured plans a staged session can defer-apply
STAGEABLE_STRATEGIES = ("outside", "hybrid")

#: graceful-degradation policies for updates that stay failed after the
#: retry budget (default: derived from the ``atomic`` flag)
FAILURE_POLICIES = ("abort-batch", "skip-update", "commit-prefix")


@dataclass
class SessionEntry:
    """One queued update and what the session did with it."""

    index: int
    name: str
    update: ViewUpdate
    #: pending / planned / applied / rejected / conflict / failed /
    #: skipped / rolled-back
    status: str = "pending"
    reason: str = ""
    report: Optional[CheckReport] = None

    @property
    def outcome(self) -> Optional[Outcome]:
        return self.report.outcome if self.report is not None else None

    def describe(self) -> str:
        line = f"{self.name:8} {self.status:12}"
        if self.outcome is not None:
            line += f" ({self.outcome.value})"
        if self.reason:
            line += f" — {self.reason}"
        return line


@dataclass
class SessionResult:
    """Batch-level outcome plus the probe/cache accounting."""

    mode: str
    atomic: bool
    entries: list[SessionEntry] = field(default_factory=list)
    committed: bool = False
    rows_affected: int = 0
    #: SELECT plans executed while this batch ran (probes + re-checks)
    probe_executions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: undo records replayed when the batch (partially) rolled back
    rolled_back: int = 0
    #: executor-layer accounting for the batch (see tests/README.md for
    #: the full ``db.stats`` counter vocabulary)
    rows_scanned: int = 0
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    hash_joins: int = 0
    #: find_rowids / select_rowids probes served from the compiled
    #: rowid-plan cache (FK checks, cascades, WHERE-driven DML)
    rowid_cache_hits: int = 0
    #: plan-cache validations that kept a plan across sub-threshold
    #: DML drift instead of recompiling
    replans_avoided: int = 0
    #: compiled probe plans whose join tree came out bushy — the DP
    #: enumerator beat every left-deep order on the estimates
    bushy_plans: int = 0
    #: post-translation QA accounting (sessions opened with ``qa=True``)
    qa_findings: int = 0
    qa_errors: int = 0
    #: re-checks triggered by QA (cache cleared + update re-checked)
    qa_retries_used: int = 0
    #: transient-failure retries consumed across the batch (apply
    #: re-attempts after ConflictError / injected faults)
    retries_used: int = 0
    #: updates rolled back for blowing their per-update time budget
    timeouts: int = 0
    #: the graceful-degradation policy this batch ran under
    policy: str = ""

    @property
    def applied(self) -> list[SessionEntry]:
        return [entry for entry in self.entries if entry.status == "applied"]

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for entry in self.entries:
            tally[entry.status] = tally.get(entry.status, 0) + 1
        return tally

    def summary(self) -> str:
        lines = [
            f"batch of {len(self.entries)} update(s), mode={self.mode}, "
            f"atomic={self.atomic}: "
            + (", ".join(f"{n} {s}" for s, n in sorted(self.counts().items()))
               or "empty"),
            f"  committed: {self.committed}; rows affected: {self.rows_affected}",
            f"  probes executed: {self.probe_executions} "
            f"(cache hits: {self.cache_hits}, misses: {self.cache_misses}, "
            f"invalidations: {self.cache_invalidations})",
            f"  executor: {self.rows_scanned} rows scanned, "
            f"{self.plans_compiled} plan(s) compiled, "
            f"{self.plan_cache_hits} plan-cache hit(s), "
            f"{self.hash_joins} hash join(s), "
            f"{self.rowid_cache_hits} rowid-cache hit(s), "
            f"{self.replans_avoided} replan(s) avoided, "
            f"{self.bushy_plans} bushy plan(s)",
        ]
        if self.retries_used or self.timeouts:
            lines.append(
                f"  fault handling ({self.policy}): "
                f"{self.retries_used} retr"
                f"{'y' if self.retries_used == 1 else 'ies'} used, "
                f"{self.timeouts} timeout(s)"
            )
        lines.extend(f"  {entry.describe()}" for entry in self.entries)
        return "\n".join(lines)


class UpdateSession:
    """Check and apply a sequence of view updates as one pipeline.

    Parameters
    ----------
    db:
        The relational database the view is published over.
    view:
        The view definition (query text or parsed :class:`ViewQuery`).
    strategy:
        Step-3 strategy; staged mode supports ``outside`` and
        ``hybrid`` (the internal strategy applies through the mapping
        relational view and produces no deferrable plan).
    index_temp_tables:
        Attach ad-hoc hash indexes to materialized probe results
        (default on — sessions exist to make heavy traffic fast).
    asg_store:
        The marked-ASG registry to compile through; defaults to the
        process-wide :data:`repro.core.asg_cache.shared_store`.
    cache:
        A :class:`ProbeCache` to (re)use; fresh by default.  The
        cache reads the write history through its own
        :class:`~repro.rdb.database.ChangeLog`, dropping every probe
        over a relation written since its last refresh, so sessions
        over one database never hide writes from each other.  A cache
        not yet tracking *db* is emptied first: the age of its entries
        is unknown.
    qa:
        Run the post-translation QA audit (:mod:`repro.core.qa`) on
        every checked plan.  Off by default: sessions exist for
        throughput, and the audit re-probes base data per plan.
    qa_retries:
        With ``qa=True``: how many times a plan whose audit failed (or
        reported stale probe rowids) is re-checked after clearing the
        probe cache before the failure sticks.  Bounded, like any
        auto-retry on a QA gate.
    retries:
        Per-update budget of re-attempts after a *transient* failure
        (:class:`~repro.errors.TransientError`: conflicts, injected
        faults).  Each re-attempt first rolls the update back to its
        savepoint.  Default 0: transient failures stick immediately.
    backoff:
        Base delay (seconds) before retry *n*, growing exponentially
        (``backoff * 2**(n-1)``).  Default 0: retry immediately.
    update_timeout:
        Wall-clock budget (seconds) per update.  A blown budget rolls
        the update back via its savepoint and counts as a *fatal*
        failure (:class:`~repro.errors.UpdateTimeoutError` — retrying
        work that blew its budget would blow it again).
    on_failure:
        Graceful-degradation policy for updates still failed after the
        retry budget: ``abort-batch`` / ``skip-update`` /
        ``commit-prefix``.  Default ``None`` derives it from each
        execute's ``atomic`` flag (True → abort-batch, False →
        skip-update), preserving the pre-policy behaviour.
    sleep / clock:
        Injectable timing functions (``time.sleep`` /
        ``time.monotonic``), so retry/timeout tests run deterministic
        and instant.
    """

    def __init__(
        self,
        db: Database,
        view: Union[str, ViewQuery],
        strategy: str = "outside",
        index_temp_tables: bool = True,
        asg_store: Optional[ASGStore] = None,
        cache: Optional[ProbeCache] = None,
        qa: bool = False,
        qa_retries: int = 1,
        retries: int = 0,
        backoff: float = 0.0,
        update_timeout: Optional[float] = None,
        on_failure: Optional[str] = None,
        sleep: Optional[Callable[[float], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.db = db
        self.strategy = strategy
        self.index_temp_tables = index_temp_tables
        self.qa = qa
        self.qa_retries = max(0, qa_retries)
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.update_timeout = update_timeout
        if on_failure is not None and on_failure not in FAILURE_POLICIES:
            raise UFilterError(
                f"unknown failure policy {on_failure!r}; "
                f"pick one of {FAILURE_POLICIES}"
            )
        self.on_failure = on_failure
        self._sleep = sleep if sleep is not None else time.sleep
        self._clock = clock if clock is not None else time.monotonic
        self._recovery_epoch = db.recovery_epoch
        store = shared_store if asg_store is None else asg_store
        parsed_view = parse_view_query(view) if isinstance(view, str) else view
        self.ufilter = UFilter(
            db, parsed_view, cached_asg=store.get_or_build(parsed_view, db.schema)
        )
        self.cache = ProbeCache() if cache is None else cache
        if self.cache.changes is None or self.cache.changes.db is not db:
            self.cache.clear()
            self.cache.changes = ChangeLog(db)
        self.ufilter.checker.translator.cache = self.cache
        self._queue: list[ViewUpdate] = []

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------

    def add(self, update: Union[str, ViewUpdate], name: str = "") -> ViewUpdate:
        """Queue one update (text or parsed) for the next execute()."""
        parsed = self.ufilter.parse(
            update, name=name or f"#{len(self._queue) + 1}"
        )
        self._queue.append(parsed)
        return parsed

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        updates: Optional[Sequence[Union[str, ViewUpdate]]] = None,
        mode: str = "staged",
        atomic: bool = True,
    ) -> SessionResult:
        """Run the queued (plus given) updates as one batch."""
        if mode not in MODES:
            raise UFilterError(f"unknown session mode {mode!r}; pick one of {MODES}")
        if mode == "staged" and self.strategy not in STAGEABLE_STRATEGIES:
            raise UFilterError(
                f"staged sessions support strategies {STAGEABLE_STRATEGIES}; "
                f"use mode='interleaved' for {self.strategy!r}"
            )
        if updates is not None:
            for update in updates:
                self.add(update)
        batch, self._queue = self._queue, []
        entries = [
            SessionEntry(index=i, name=update.name or f"#{i + 1}", update=update)
            for i, update in enumerate(batch)
        ]
        result = SessionResult(
            mode=mode, atomic=atomic, entries=entries,
            policy=self._policy(atomic),
        )
        if self.db.recovery_epoch != self._recovery_epoch:
            # crash recovery repaired state since we last probed it:
            # every cached probe result is suspect
            self.cache.clear()
            self._recovery_epoch = self.db.recovery_epoch
        # writes since the last batch (direct DML, other callers) drop
        # the probes they stale before any probe is trusted
        self._refresh_cache()
        stats_before = dict(self.db.stats)
        hits_before, misses_before = self.cache.hits, self.cache.misses
        invalidations_before = self.cache.invalidations
        if mode == "staged":
            self._run_staged(entries, atomic, result)
        else:
            self._run_interleaved(entries, atomic, result)
        stats = self.db.stats
        result.probe_executions = stats["selects"] - stats_before["selects"]
        result.rows_scanned = stats["rows_scanned"] - stats_before["rows_scanned"]
        result.plans_compiled = (
            stats["plans_compiled"] - stats_before["plans_compiled"]
        )
        result.plan_cache_hits = (
            stats["plan_cache_hits"] - stats_before["plan_cache_hits"]
        )
        result.hash_joins = stats["hash_joins"] - stats_before["hash_joins"]
        result.rowid_cache_hits = (
            stats["rowid_cache_hits"] - stats_before["rowid_cache_hits"]
        )
        result.replans_avoided = (
            stats["replans_avoided"] - stats_before["replans_avoided"]
        )
        result.bushy_plans = stats["bushy_plans"] - stats_before["bushy_plans"]
        result.cache_hits = self.cache.hits - hits_before
        result.cache_misses = self.cache.misses - misses_before
        result.cache_invalidations = (
            self.cache.invalidations - invalidations_before
        )
        return result

    # ------------------------------------------------------------------
    # staged mode
    # ------------------------------------------------------------------

    def _run_staged(
        self, entries: list[SessionEntry], atomic: bool, result: SessionResult
    ) -> None:
        # Phase 1 — check every update against the pre-batch state.
        # Nothing mutates, so every probe result stays valid and the
        # cache serves repeated contexts without invalidation.
        for entry in entries:
            report = self._checked_report(entry.update, result)
            entry.report = report
            if report.outcome.accepted:
                entry.status = "planned"
            else:
                entry.status = "rejected"
                entry.reason = report.reason or report.outcome.value

        # Phase 2 — cross-update conflict detection on the queued plans.
        self._detect_conflicts(
            [entry for entry in entries if entry.status == "planned"]
        )

        # Phase 3 — one transactional apply, under the failure policy.
        policy = result.policy
        bad = next(
            (e for e in entries if e.status in ("rejected", "conflict")), None
        )
        if bad is not None and policy == "abort-batch":
            for entry in entries:
                if entry.status == "planned":
                    entry.status = "skipped"
                    entry.reason = (
                        f"atomic batch aborted: {bad.name} was {bad.status}"
                    )
            return
        planned = [entry for entry in entries if entry.status == "planned"]
        if bad is not None and policy == "commit-prefix":
            # prefix semantics: nothing queued after the first check
            # failure runs, but everything before it still commits
            for entry in planned:
                if entry.index > bad.index:
                    entry.status = "skipped"
                    entry.reason = f"commit-prefix: {bad.name} was {bad.status}"
            planned = [e for e in planned if e.status == "planned"]
        self.db.begin()
        for position, entry in enumerate(planned):
            verdict, undone = self._apply_with_retry(entry, result)
            if verdict == "applied":
                continue
            if policy == "abort-batch":
                result.rolled_back = undone + self._rollback_all_with_retry()
                for other in planned:
                    if other is entry:
                        continue
                    if other.status == "applied":
                        other.status = "rolled-back"
                    else:
                        other.status = "skipped"
                    other.reason = f"batch aborted by {entry.name}"
                return
            if policy == "commit-prefix":
                for later in planned[position + 1:]:
                    if later.status == "planned":
                        later.status = "skipped"
                        later.reason = f"commit-prefix: stopped at {entry.name}"
                break
            # skip-update: the savepoint already undid it; carry on
        self._commit_with_retry(result)
        result.committed = True
        self._refresh_cache()

    def _apply_with_retry(
        self, entry: SessionEntry, result: SessionResult
    ) -> tuple[str, int]:
        """Apply one planned entry inside its savepoint, retrying
        transient failures within the budget.  Returns the verdict
        (``applied``/``failed``) and the undo records its last rollback
        replayed."""
        assert entry.report is not None and entry.report.data is not None
        ops = entry.report.data.planned_ops
        started = self._clock()
        attempt = 0
        while True:
            mark = self.db.savepoint()
            try:
                self.db.faults.hit("session.apply")
                if self.db.wal is not None:
                    # the plan is durable before its first statement runs
                    self.db.log_intent(entry.name, serialize_ops(ops))
                affected = self._apply_planned(ops)
                self._enforce_budget(entry.name, started)
            except UpdateTimeoutError as exc:
                undone = self._rollback_to_with_retry(mark)
                result.timeouts += 1
                entry.status = "failed"
                entry.reason = str(exc)
                return "failed", undone
            except TransientError as exc:
                undone = self._rollback_to_with_retry(mark)
                if attempt >= self.retries or self._budget_blown(started):
                    entry.status = "failed"
                    entry.reason = (
                        f"transient failure stuck after {attempt} "
                        f"retr{'y' if attempt == 1 else 'ies'}: {exc}"
                    )
                    return "failed", undone
                attempt += 1
                result.retries_used += 1
                self._backoff_sleep(attempt)
            except ConstraintViolation as exc:
                undone = self._rollback_to_with_retry(mark)
                entry.status = "failed"
                entry.reason = f"engine error at apply time: {exc}"
                return "failed", undone
            else:
                result.rows_affected += affected
                entry.status = "applied"
                return "applied", 0

    def _checked_report(
        self, update: ViewUpdate, result: SessionResult
    ) -> CheckReport:
        """Phase-1 check with the (optional) QA gate and bounded retry.

        A failed audit is most often a stale probe cache (the
        ``stale-rowid`` signature): the cache is cleared and the update
        re-checked up to ``qa_retries`` times before the failure sticks.
        Transient faults during the (side-effect-free) check are retried
        within the session's retry budget.
        """
        report = self._check_only(update, result)
        if not self.qa:
            return report
        retries = 0
        while retries < self.qa_retries and self._qa_retryable(report):
            self.cache.clear()
            retries += 1
            result.qa_retries_used += 1
            report = self._check_only(update, result)
        self._tally_qa(report, result)
        return report

    def _check_only(
        self, update: ViewUpdate, result: SessionResult
    ) -> CheckReport:
        """One ``execute=False`` check, retrying transient faults.

        Checking never mutates base relations, so a transient failure
        mid-probe needs no rollback — just another attempt.
        """
        attempt = 0
        while True:
            try:
                return self.ufilter.check(
                    update,
                    strategy=self.strategy,
                    execute=False,
                    index_temp_tables=self.index_temp_tables,
                    qa=self.qa,
                )
            except TransientError:
                if attempt >= self.retries:
                    raise
                attempt += 1
                result.retries_used += 1
                self._backoff_sleep(attempt)

    @staticmethod
    def _qa_retryable(report: CheckReport) -> bool:
        from .qa import CHECK_STALE_ROWID, qa_errors

        if report.data is None:
            return False
        findings = report.data.qa_findings
        if any(f.check == CHECK_STALE_ROWID for f in findings):
            return True
        return bool(qa_errors(findings))

    @staticmethod
    def _annotate_qa(entry: SessionEntry, report: CheckReport) -> None:
        from .qa import qa_errors

        if report.data is None:
            return
        errors = qa_errors(report.data.qa_findings)
        if errors and not entry.reason:
            entry.reason = "QA: " + "; ".join(
                finding.describe() for finding in errors[:3]
            )

    @staticmethod
    def _tally_qa(report: CheckReport, result: SessionResult) -> None:
        from .qa import qa_errors

        if report.data is None:
            return
        findings = report.data.qa_findings
        result.qa_findings += len(findings)
        result.qa_errors += len(qa_errors(findings))

    def _apply_planned(self, ops: Sequence[Any]) -> int:
        """Replay one update's structured translation against the engine.

        Rowids another batch member already deleted are silently gone —
        the same zero-effect semantics a second DELETE statement would
        have had.  Supporting inserts keep the hybrid strategy's
        consistent-duplicate tolerance: a unique-key violation on a
        tuple that agrees with the existing row is skipped, not fatal.
        """
        affected = 0
        checker = self.ufilter.checker
        for op in ops:
            if isinstance(op, TupleDelete):
                if op.rowids:
                    affected += self.db.delete(op.relation, op.rowids)
            elif isinstance(op, TupleUpdate):
                table = self.db.table(op.relation)
                for rowid in sorted(op.rowids):
                    if rowid in table:
                        self.db.update(op.relation, rowid, op.changes)
                        affected += 1
            elif isinstance(op, TupleInsert):
                if op.role == "skip":
                    continue
                try:
                    self.db.insert(op.relation, op.values)
                    affected += 1
                except ConstraintViolation:
                    if op.role == "supporting":
                        existing = checker._existing_row(op)
                        if existing is not None and (
                            checker._consistent_with_existing(op, existing)
                        ):
                            continue
                    raise
        return affected

    # ------------------------------------------------------------------
    # conflict detection (staged mode)
    # ------------------------------------------------------------------

    def _insert_key(self, insert: TupleInsert) -> Optional[tuple[str, tuple]]:
        if insert.relation not in self.db.schema:
            return None
        key = self.db.relation(insert.relation).primary_key
        if key is None:
            return None
        values = tuple(insert.values.get(column) for column in key.columns)
        if any(value is None for value in values):
            return None
        return (insert.relation, values)

    def _detect_conflicts(self, planned: list[SessionEntry]) -> None:
        """Cross-check the queued dirty deletes/inserts, in batch order.

        A later update loses against an earlier one: it is marked
        ``conflict`` and its plan is dropped from the apply phase.
        Consistent duplicate *supporting* inserts are downgraded to
        skips instead (intra-batch duplication consistency, mirroring
        what the outside strategy does against existing base data).
        """
        deleted: dict[str, set[int]] = {}
        inserted: dict[tuple[str, tuple], tuple[str, TupleInsert]] = {}
        for entry in planned:
            assert entry.report is not None and entry.report.data is not None
            ops = entry.report.data.planned_ops
            reason = self._entry_conflict(entry, ops, deleted, inserted)
            if reason:
                entry.status = "conflict"
                entry.reason = reason
                continue
            for op in ops:
                if isinstance(op, TupleDelete):
                    deleted.setdefault(op.relation, set()).update(op.rowids)
                elif isinstance(op, TupleInsert) and op.role != "skip":
                    key = self._insert_key(op)
                    if key is not None and key not in inserted:
                        inserted[key] = (entry.name, op)

    def _entry_conflict(
        self,
        entry: SessionEntry,
        ops: Sequence[Any],
        deleted: dict[str, set[int]],
        inserted: dict[tuple[str, tuple], tuple[str, TupleInsert]],
    ) -> str:
        pending_skips: list[TupleInsert] = []
        for op in ops:
            if isinstance(op, TupleUpdate):
                overlap = op.rowids & deleted.get(op.relation, set())
                if overlap:
                    return (
                        f"replaces {op.relation} tuple(s) {sorted(overlap)} "
                        f"deleted earlier in the batch"
                    )
            elif isinstance(op, TupleInsert):
                key = self._insert_key(op)
                if key is not None and key in inserted:
                    earlier_name, earlier_op = inserted[key]
                    if op.role == "driving":
                        return (
                            f"duplicate insert: a {op.relation} tuple with "
                            f"key {key[1]!r} is already queued by {earlier_name}"
                        )
                    if self._values_agree(op, earlier_op):
                        pending_skips.append(op)
                    else:
                        return (
                            f"duplication consistency violated within the "
                            f"batch: {op.relation} key {key[1]!r} disagrees "
                            f"with the values queued by {earlier_name}"
                        )
                parent_conflict = self._deleted_parent_conflict(op, deleted)
                if parent_conflict:
                    return parent_conflict
        for op in pending_skips:
            op.role = "skip"
        return ""

    def _values_agree(self, a: TupleInsert, b: TupleInsert) -> bool:
        for attribute, value in a.values.items():
            if value is None:
                continue
            other = b.values.get(attribute)
            if other is not None and other != value:
                return False
        return True

    def _deleted_parent_conflict(
        self, insert: TupleInsert, deleted: dict[str, set[int]]
    ) -> str:
        if insert.relation not in self.db.schema:
            return ""
        for fk in self.db.relation(insert.relation).foreign_keys:
            values = tuple(insert.values.get(column) for column in fk.columns)
            if any(value is None for value in values):
                continue
            for rowid in deleted.get(fk.ref_relation, ()):  # pre-batch rows
                if rowid not in self.db.table(fk.ref_relation):
                    continue
                parent = self.db.row(fk.ref_relation, rowid)
                if all(
                    parent.get(ref_column) == value
                    for ref_column, value in zip(fk.ref_columns, values)
                ):
                    return (
                        f"inserts a {insert.relation} tuple under a "
                        f"{fk.ref_relation} tuple deleted earlier in the batch"
                    )
        return ""

    # ------------------------------------------------------------------
    # interleaved mode
    # ------------------------------------------------------------------

    def _run_interleaved(
        self, entries: list[SessionEntry], atomic: bool, result: SessionResult
    ) -> None:
        policy = result.policy
        self.db.begin()
        for position, entry in enumerate(entries):
            verdict = self._interleaved_one(entry, result)
            if verdict == "applied":
                continue
            if policy == "abort-batch":
                result.rolled_back = self._rollback_all_with_retry()
                self._refresh_cache()
                for earlier in entries[:position]:
                    if earlier.status == "applied":
                        earlier.status = "rolled-back"
                        earlier.reason = f"batch aborted by {entry.name}"
                for later in entries[position + 1:]:
                    later.status = "skipped"
                    later.reason = f"atomic batch aborted by {entry.name}"
                return
            if policy == "commit-prefix":
                for later in entries[position + 1:]:
                    later.status = "skipped"
                    later.reason = f"commit-prefix: stopped at {entry.name}"
                break
            # skip-update: the savepoint already undid it; carry on
        self._commit_with_retry(result)
        result.committed = True

    def _interleaved_one(
        self, entry: SessionEntry, result: SessionResult
    ) -> str:
        """Check + apply one update inside its savepoint, retrying
        transient failures within the budget.  Returns the entry's
        final status."""
        started = self._clock()
        attempt = 0
        while True:
            mark = self.db.savepoint()
            reason = ""
            engine_error = False
            try:
                report = self.ufilter.check(
                    entry.update,
                    strategy=self.strategy,
                    execute=True,
                    index_temp_tables=self.index_temp_tables,
                    qa=self.qa,
                )
                entry.report = report
                if self.qa:
                    # the plan already applied, so the audit ran in
                    # ``applied`` mode (state-independent checks only);
                    # errors annotate the entry rather than undo it
                    self._tally_qa(report, result)
                    self._annotate_qa(entry, report)
                failed = not report.outcome.accepted
                if failed:
                    reason = report.reason or report.outcome.value
                else:
                    self._enforce_budget(entry.name, started)
            except UpdateTimeoutError as exc:
                self._rollback_to_with_retry(mark)
                self._refresh_cache()
                result.timeouts += 1
                entry.status = "failed"
                entry.reason = str(exc)
                return "failed"
            except TransientError as exc:
                self._rollback_to_with_retry(mark)
                self._refresh_cache()
                if attempt >= self.retries or self._budget_blown(started):
                    entry.status = "failed"
                    entry.reason = (
                        f"transient failure stuck after {attempt} "
                        f"retr{'y' if attempt == 1 else 'ies'}: {exc}"
                    )
                    return "failed"
                attempt += 1
                result.retries_used += 1
                self._backoff_sleep(attempt)
                continue
            except ConstraintViolation as exc:
                failed = True
                engine_error = True
                reason = f"engine error: {exc}"
            if not failed:
                entry.status = "applied"
                data = entry.report.data if entry.report else None
                if data is not None:
                    result.rows_affected += data.rows_affected
                self._refresh_cache()
                return "applied"
            entry.status = "failed" if engine_error else "rejected"
            entry.reason = reason
            self._rollback_to_with_retry(mark)
            self._refresh_cache()
            return entry.status

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _policy(self, atomic: bool) -> str:
        """The degradation policy for this execute (explicit, or
        derived from ``atomic`` for backward compatibility)."""
        if self.on_failure is not None:
            return self.on_failure
        return "abort-batch" if atomic else "skip-update"

    def _backoff_sleep(self, attempt: int) -> None:
        delay = self.backoff * (2 ** (attempt - 1))
        if delay > 0:
            self._sleep(delay)

    def _budget_blown(self, started: float) -> bool:
        return (
            self.update_timeout is not None
            and self._clock() - started > self.update_timeout
        )

    def _enforce_budget(self, name: str, started: float) -> None:
        if self._budget_blown(started):
            raise UpdateTimeoutError(
                f"update {name} exceeded its {self.update_timeout:g}s budget"
            )

    def _commit_with_retry(self, result: SessionResult) -> None:
        """Commit the batch, absorbing transient faults writing the
        journal's commit marker (the transaction stays open until the
        marker lands, so another attempt is always safe)."""
        attempt = 0
        while True:
            try:
                self.db.commit()
                return
            except TransientError:
                if attempt >= self.retries:
                    raise
                attempt += 1
                result.retries_used += 1
                self._backoff_sleep(attempt)

    def _rollback_to_with_retry(self, mark: int) -> int:
        """Roll back to a savepoint, absorbing transient faults in the
        replay itself.

        The undo machinery is resumable (conditional application +
        staged pending tail), so simply calling ``rollback_to`` again
        finishes an interrupted replay.  Even zero-retry sessions get
        one repair attempt: an unfinished rollback would wedge the
        whole transaction.
        """
        attempt = 0
        while True:
            try:
                return self.db.rollback_to(mark)
            except TransientError:
                attempt += 1
                if attempt > max(self.retries, 1):
                    raise
                self._backoff_sleep(attempt)

    def _rollback_all_with_retry(self) -> int:
        """Roll the whole batch back, absorbing transient replay faults
        (``rollback`` resumes the staged pending tail when re-called)."""
        attempt = 0
        while True:
            try:
                return self.db.rollback()
            except TransientError:
                attempt += 1
                if attempt > max(self.retries, 1):
                    raise
                self._backoff_sleep(attempt)

    def _refresh_cache(self) -> None:
        """Drop the cached probes over every relation written since the
        cache's last refresh, cascades and rollbacks included."""
        self.cache.maintain(self.db, self.cache.changes.take())


def run_per_update(
    db: Database,
    view: Union[str, ViewQuery],
    updates: Sequence[Union[str, ViewUpdate]],
    strategy: str = "outside",
) -> list[CheckReport]:
    """The no-session baseline: one isolated check + apply per update.

    Benchmarks compare this (probes re-run for every update) against
    :meth:`UpdateSession.execute` on an identical workload.
    """
    checker = UFilter(db, view)
    return [
        checker.check(update, strategy=strategy, execute=True)
        for update in updates
    ]
