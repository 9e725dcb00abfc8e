"""The U-Filter pipeline (Fig. 5) and its result taxonomy (Fig. 6).

``UFilter`` wires the three checking steps together:

1. :func:`validate_update` — schema validation against local constraints;
2. :func:`star_check` over the marked ASGs — untranslatable updates are
   rejected, conditions are attached to conditionally translatable ones;
3. :class:`DataChecker` — probe-based context/point checks and, for
   updates that survive, the translated SQL (optionally executed).

The per-update outcome is a :class:`CheckReport`; ``Outcome`` refines
the paper's taxonomy with the data-level results (DATA_CONFLICT for
Step-3 rejections, TRANSLATED once SQL has been produced/applied).

Note on u4-style inserts: the paper's Section 6 walks an insert with a
key conflict through the data check, but its own STAR rules already
classify inserts on unsafe-insert nodes as untranslatable at Step 2
(Observation 2 — BookView's book node is unsafe-insert because the
publisher relation is republished).  The pipeline is faithful to the
formal rules; ``force_data_check=True`` reproduces the Section-6
narrative by sending such updates to Step 3 anyway.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import ReproError
from ..rdb.database import Database
from ..xquery.ast import ViewQuery
from ..xquery.parser import parse_view_query
from ..xquery.update_ast import ViewUpdate
from ..xquery.update_parser import parse_view_update
from ..xquery.update_template import (
    TemplateCache,
    UpdateTemplate,
    literal_skeleton,
    sentinel_text,
)
from .asg import BaseASG
from .asg_builder import build_base_asg, build_view_asg
from .datacheck import DataChecker, DataCheckResult
from .star import Category, StarVerdict, mark_view_asg, star_check
from .update_binding import ResolvedUpdate, rebind_update, resolve_update
from .validation import ValidationResult, validate_update

__all__ = ["Outcome", "CheckReport", "UFilter"]


class Outcome(enum.Enum):
    INVALID = "invalid"
    UNTRANSLATABLE = "untranslatable"
    CONDITIONALLY_TRANSLATABLE = "conditionally translatable"
    UNCONDITIONALLY_TRANSLATABLE = "unconditionally translatable"
    DATA_CONFLICT = "data conflict"
    TRANSLATED = "translated"

    @property
    def accepted(self) -> bool:
        """True when the update may proceed to (or through) translation."""
        return self in (
            Outcome.CONDITIONALLY_TRANSLATABLE,
            Outcome.UNCONDITIONALLY_TRANSLATABLE,
            Outcome.TRANSLATED,
        )


@dataclass
class CheckReport:
    update: ViewUpdate
    outcome: Outcome
    stage: str                      # validation / star / data / translation
    reason: str = ""
    validation: Optional[ValidationResult] = None
    star: Optional[StarVerdict] = None
    data: Optional[DataCheckResult] = None
    resolved: Optional[ResolvedUpdate] = None
    condition: Optional[str] = None
    #: per-stage wall-clock seconds
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def sql_updates(self) -> list[str]:
        return list(self.data.statements) if self.data else []

    @property
    def probe_queries(self) -> list[str]:
        return list(self.data.probes) if self.data else []

    def summary(self) -> str:
        name = self.update.name or "update"
        lines = [f"{name}: {self.outcome.value} (stage: {self.stage})"]
        if self.reason:
            lines.append(f"  reason: {self.reason}")
        if self.condition:
            lines.append(f"  condition: {self.condition}")
        for probe in self.probe_queries:
            lines.append(f"  probe: {probe}")
        for statement in self.sql_updates:
            lines.append(f"  sql: {statement}")
        return "\n".join(lines)


@dataclass
class _Shape:
    """One cached update shape: its parse template and, once an update
    of the shape has been checked, the literal-free results of
    resolution and STAR marking."""

    template: UpdateTemplate
    resolved: Optional[ResolvedUpdate] = None
    verdict: Optional[StarVerdict] = None


class UFilter:
    """The lightweight view update checker of the paper.

    Parameters
    ----------
    db:
        The relational database the view is published over.
    view:
        The view definition (query text or parsed :class:`ViewQuery`).

    Prepared updates
    ----------------
    Update texts go through a per-checker :class:`TemplateCache`
    (``self.templates``, 256 shapes, least recently used evicted),
    keyed by the text's *skeleton*: the text with its quoted strings
    (bar the ``document(...)`` name) and its non-blank leaf-element
    text blanked (:mod:`repro.xquery.update_template`).  A skeleton's
    first text parses it once with a unique sentinel in each blanked
    region; the result is kept only if every sentinel is exactly one
    WHERE operand or one fragment text node, and otherwise the skeleton
    is marked uncacheable and its texts take the full parse.  Later
    texts of the shape bind their literals into a fresh
    :class:`ViewUpdate`, normalized as the parser would (text that
    would normalize to empty falls back to the full parse).

    What the shape keeps: the parsed template, the update's resolution
    against ``G_V`` (bindings, target, leaves, operation nodes — rebound
    with the new literals, unless a predicate failed to resolve) and
    its STAR verdict.  What every update reruns: Step-1 validation,
    which reads the literals, and the Step-3 data check.
    ``CheckReport.timings["parse"]`` is the parse (or bind) time.
    """

    def __init__(
        self,
        db: Database,
        view: Union[str, ViewQuery],
        cached_asg: Optional[str] = None,
    ) -> None:
        self.db = db
        self.view = parse_view_query(view) if isinstance(view, str) else view
        start = time.perf_counter()
        if cached_asg is not None:
            # §3.1: the compiled graphs are reusable across checker
            # instances — rehydrate instead of re-marking
            from .asg_cache import load_view_asg

            self.view_asg = load_view_asg(cached_asg, db.schema)
        else:
            self.view_asg = build_view_asg(self.view, db.schema)
        self.base_asg: BaseASG = build_base_asg(self.view_asg, db.schema)
        if cached_asg is None:
            mark_view_asg(self.view_asg, self.base_asg)
        #: compile-time STAR marking cost (the paper reports 0.12–0.15 s)
        self.marking_seconds = time.perf_counter() - start
        self.checker = DataChecker(db, self.view_asg)
        #: update shapes seen by this checker, filled lazily
        self.templates = TemplateCache()

    def dump_asg(self) -> str:
        """Serialize the marked view ASG (pass back as ``cached_asg``)."""
        from .asg_cache import dump_view_asg

        return dump_view_asg(self.view_asg)

    # ------------------------------------------------------------------

    def parse(self, update: Union[str, ViewUpdate], name: str = "") -> ViewUpdate:
        return self._prepare(update, name)[0]

    def _prepare(
        self, update: Union[str, ViewUpdate], name: str = ""
    ) -> tuple[ViewUpdate, Optional[_Shape]]:
        """The parsed update and, when it came from a template, its shape."""
        if isinstance(update, ViewUpdate):
            return update, None
        cache = self.templates
        split = literal_skeleton(update)
        if split is None:
            cache.uncacheable += 1
            return parse_view_update(update, name=name), None
        skeleton, regions = split
        known, shape = cache.lookup(skeleton)
        if not known:
            cache.misses += 1
            shape = self._compile_shape(skeleton, [kind for kind, _ in regions])
            cache.put(skeleton, shape)
        bound = None if shape is None else shape.template.bind(regions, update, name)
        if bound is None:
            if known:
                cache.uncacheable += 1
            return parse_view_update(update, name=name), None
        if known:
            cache.hits += 1
        return bound, shape

    @staticmethod
    def _compile_shape(skeleton: str, kinds: list[str]) -> Optional[_Shape]:
        try:
            parsed = parse_view_update(sentinel_text(skeleton))
        except ReproError:
            return None  # the text's own parse reports the error
        template = UpdateTemplate.compile(parsed, kinds)
        return None if template is None else _Shape(template)

    def check(
        self,
        update: Union[str, ViewUpdate],
        strategy: str = "outside",
        execute: bool = False,
        run_data_checks: bool = True,
        force_data_check: bool = False,
        expand_cascades: bool = False,
        index_temp_tables: bool = False,
        qa: bool = False,
    ) -> CheckReport:
        """Run the update through the three-step filter.

        ``execute=True`` applies the translated SQL to the database;
        otherwise probes run read-only and the SQL is only generated.
        ``run_data_checks=False`` stops after Step 2 (schema-only mode).
        ``force_data_check=True`` sends even untranslatable updates to
        Step 3 (Section-6 narrative mode; see the module docstring).
        ``expand_cascades=True`` translates subtree deletes into one
        statement per relation instead of relying on engine cascades.
        ``index_temp_tables=True`` attaches ad-hoc hash indexes to
        materialized probe results (outside strategy), turning its
        temp-table joins into index nested loops.
        ``qa=True`` runs the post-translation QA audit
        (:mod:`repro.core.qa`) over the planned ops; pre-apply ERROR
        findings demote the outcome to DATA_CONFLICT, and all findings
        land on ``report.data.qa_findings``.
        """
        timings: dict[str, float] = {}
        start = time.perf_counter()
        parsed, shape = self._prepare(update)
        timings["parse"] = time.perf_counter() - start

        start = time.perf_counter()
        if shape is not None and shape.resolved is not None:
            resolved = rebind_update(shape.resolved, parsed)
        else:
            resolved = resolve_update(self.view_asg, parsed)
            # predicate errors quote the literals: those shapes re-resolve
            if shape is not None and not any(p.error for p in resolved.predicates):
                shape.resolved = rebind_update(resolved, parsed)
        validation = validate_update(self.view_asg, resolved)
        timings["validation"] = time.perf_counter() - start
        if not validation.valid:
            return CheckReport(
                update=parsed,
                outcome=Outcome.INVALID,
                stage="validation",
                reason=validation.reason,
                validation=validation,
                resolved=resolved,
                timings=timings,
            )

        start = time.perf_counter()
        if shape is not None and shape.verdict is not None:
            verdict = shape.verdict
        else:
            verdict = star_check(self.view_asg, resolved)
            if shape is not None:
                shape.verdict = verdict
        timings["star"] = time.perf_counter() - start
        if verdict.category is Category.UNTRANSLATABLE and not force_data_check:
            return CheckReport(
                update=parsed,
                outcome=Outcome.UNTRANSLATABLE,
                stage="star",
                reason=verdict.reason,
                validation=validation,
                star=verdict,
                resolved=resolved,
                timings=timings,
            )

        if not run_data_checks:
            outcome = (
                Outcome.CONDITIONALLY_TRANSLATABLE
                if verdict.category is Category.CONDITIONALLY_TRANSLATABLE
                else Outcome.UNCONDITIONALLY_TRANSLATABLE
            )
            return CheckReport(
                update=parsed,
                outcome=outcome,
                stage="star",
                reason=verdict.reason,
                validation=validation,
                star=verdict,
                resolved=resolved,
                condition=verdict.condition,
                timings=timings,
            )

        start = time.perf_counter()
        data = self.checker.check_and_translate(
            resolved,
            verdict,
            strategy=strategy,
            execute=execute,
            expand_cascades=expand_cascades,
            index_temp_tables=index_temp_tables,
            qa=qa,
        )
        timings["data"] = time.perf_counter() - start
        if not data.ok:
            return CheckReport(
                update=parsed,
                outcome=Outcome.DATA_CONFLICT,
                stage="data",
                reason=data.conflict,
                validation=validation,
                star=verdict,
                data=data,
                resolved=resolved,
                condition=verdict.condition,
                timings=timings,
            )
        return CheckReport(
            update=parsed,
            outcome=Outcome.TRANSLATED,
            stage="translation",
            reason=verdict.reason,
            validation=validation,
            star=verdict,
            data=data,
            resolved=resolved,
            condition=verdict.condition,
            timings=timings,
        )

    # convenience wrappers ---------------------------------------------------

    def classify(self, update: Union[str, ViewUpdate]) -> Outcome:
        """Schema-level classification only (Steps 1–2, no data access)."""
        return self.check(update, run_data_checks=False).outcome

    def describe_asg(self) -> str:
        return self.view_asg.describe()

    def updatability_matrix(self) -> list[dict[str, str]]:
        """Per-node updatability at view-definition time.

        Keller [22] proposed choosing update translators in a dialog
        when the view is defined; the STAR marks make that dialog
        automatic: for every complex element of the view, report how a
        delete and an insert anchored there would classify — before any
        update ever arrives.  Conditions are named where applicable.
        """
        from .star import CONDITION_DUP_CONSISTENCY, CONDITION_MINIMIZATION

        rows: list[dict[str, str]] = []
        for node in self.view_asg.internal_nodes():
            if node.safe_delete is False:
                delete = "untranslatable"
            elif node.upoint_clean:
                delete = "unconditionally translatable"
            else:
                delete = f"conditional ({CONDITION_MINIMIZATION})"
            if node.safe_insert is False:
                insert = "untranslatable"
            elif node.upoint_clean:
                insert = "unconditionally translatable"
            else:
                insert = f"conditional ({CONDITION_DUP_CONSISTENCY})"
            rows.append(
                {
                    "node": node.node_id,
                    "element": node.name,
                    "mark": node.mark,
                    "delete": delete,
                    "insert": insert,
                    "reason": node.unsafe_reason,
                }
            )
        return rows
