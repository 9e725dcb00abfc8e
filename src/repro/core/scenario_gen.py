"""Seeded scenario generator: random schema/view/update round-trips.

Property-based QA for the whole pipeline.  Each *scenario* is a small
random world drawn from a seed:

* a relational schema shaped like the paper's running example — an FK
  chain ``parent <- child [<- grand]``, optionally with the parent
  relation *shared* (republished at the view's top level, the BookView
  publisher pattern that makes minimization and duplication
  consistency interesting);
* sample data with deliberate duplicates and FK fan-out;
* a view query publishing the chain as nested elements (with an
  optional value filter on an integer column);
* a handful of view updates (subtree inserts, deletes, leaf replaces)
  whose keys sometimes collide with existing data on purpose.

Each update is then **round-tripped** — publish, check, translate,
apply — independently under every data-check strategy, and the runs
are cross-checked:

* all three strategies must agree on accept/reject
  (``outcome-mismatch``) and on the final base state
  (``state-mismatch``);
* the compiled engine paths must agree with the interpreted oracles
  (``oracle-mismatch``: the same check re-run with
  ``Database.oracle_mode`` forcing ``optimize=False`` /
  ``compiled=False`` everywhere);
* the rectangle rule of Definition 1 must hold for accepted updates
  (``rectangle``, via :func:`repro.core.verify.check_rectangle`);
* the post-translation QA audit (:mod:`repro.core.qa`) must be free of
  ERROR findings on accepted updates (``qa-error``);
* an interleaved :class:`repro.core.session.UpdateSession` over the
  whole update list must land on the same final state as checking the
  updates one by one with no session (``session-mismatch`` — this is
  the probe-cache coherence cross-check);
* nothing may escape as an unhandled exception (``exception``).

Every failed cross-check becomes a :class:`Divergence` carrying the
scenario seed; ``repro qa --seed N --scenarios 1`` (or
``replay(seed)`` here) reproduces it deterministically.  The module is
pure stdlib — the hypothesis integration lives in the test-suite,
which feeds seeds through :func:`generate_scenario` so failures shrink
to the smallest misbehaving seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..rdb import Database, Schema, SQLEngine, parse_script
from .asg_cache import ASGStore
from .qa import qa_errors
from .session import UpdateSession
from .ufilter import UFilter
from .verify import check_rectangle

__all__ = [
    "Scenario",
    "Divergence",
    "RunSummary",
    "generate_scenario",
    "run_scenario",
    "run_many",
    "replay",
]

STRATEGIES = ("internal", "hybrid", "outside")

_NAME_POOL = ("alpha", "beta", "gamma", "delta")


@dataclass
class Scenario:
    """One generated world: schema + data + view + updates."""

    seed: int
    depth: int                     # 2 = parent/child, 3 = ... /grand
    shared: bool                   # parent republished at the top level
    ddl: str
    rows: dict[str, list[dict[str, Any]]]
    view_text: str
    #: (name, update text) in intended application order
    updates: list[tuple[str, str]] = field(default_factory=list)

    def describe(self) -> str:
        shapes = ", ".join(name for name, _ in self.updates)
        return (
            f"seed={self.seed} depth={self.depth} shared={self.shared} "
            f"rows={ {r: len(v) for r, v in self.rows.items()} } "
            f"updates=[{shapes}]"
        )


@dataclass(frozen=True)
class Divergence:
    """One failed cross-check, reproducible from the scenario seed."""

    kind: str                      # outcome-mismatch | state-mismatch |
    #                                oracle-mismatch | rectangle |
    #                                qa-error | session-mismatch | exception
    seed: int
    update: str                    # update name within the scenario
    detail: str

    def describe(self) -> str:
        return f"[seed {self.seed}] {self.update}: {self.kind} — {self.detail}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "update": self.update,
            "detail": self.detail,
        }


@dataclass
class RunSummary:
    scenarios: int = 0
    updates_checked: int = 0
    accepted: int = 0
    rejected: int = 0
    qa_warnings: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        lines = [
            f"{self.scenarios} scenario(s), {self.updates_checked} update "
            f"round-trip(s): {self.accepted} accepted, {self.rejected} "
            f"rejected, {self.qa_warnings} QA warning(s), "
            f"{len(self.divergences)} divergence(s)",
        ]
        lines.extend(f"  {d.describe()}" for d in self.divergences[:20])
        extra = len(self.divergences) - 20
        if extra > 0:
            lines.append(f"  (+{extra} more)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _ddl(depth: int) -> str:
    parts = [
        """
CREATE TABLE parent(
    pid VARCHAR2(10),
    pname VARCHAR2(20),
    CONSTRAINTS GenParPK PRIMARYKEY (pid));
""",
        """
CREATE TABLE child(
    cid VARCHAR2(10),
    pid VARCHAR2(10),
    cname VARCHAR2(20),
    cnum INTEGER,
    CONSTRAINTS GenChPK PRIMARYKEY (cid),
    FOREIGNKEY (pid) REFERENCES parent (pid));
""",
    ]
    if depth >= 3:
        parts.append(
            """
CREATE TABLE grand(
    gid VARCHAR2(10),
    cid VARCHAR2(10),
    gname VARCHAR2(20),
    CONSTRAINTS GenGrPK PRIMARYKEY (gid),
    FOREIGNKEY (cid) REFERENCES child (cid));
"""
        )
    return "".join(parts)


def _view_text(depth: int, shared: bool, cnum_cap: Optional[int]) -> str:
    child_filter = f" AND ($c/cnum < {cnum_cap})" if cnum_cap is not None else ""
    grand = ""
    if depth >= 3:
        grand = """,
                FOR $g IN document("default.xml")/grand/row
                WHERE ($g/cid = $c/cid)
                RETURN {
                    <grand>
                        $g/gid, $g/gname
                    </grand>}"""
    republish = ""
    if shared:
        republish = """,
FOR $q IN document("default.xml")/parent/row
RETURN {
    <pub>
        $q/pid, $q/pname
    </pub>}"""
    return f"""
<GenView>
FOR $p IN document("default.xml")/parent/row
RETURN {{
    <parent>
        $p/pid, $p/pname,
        FOR $c IN document("default.xml")/child/row
        WHERE ($c/pid = $p/pid){child_filter}
        RETURN {{
            <child>
                $c/cid, $c/cname, $c/cnum{grand}
            </child>}}
    </parent>}}{republish}
</GenView>
"""


def _insert_child(rng: random.Random, scenario: Scenario) -> tuple[str, str]:
    existing = [row["cid"] for row in scenario.rows["child"]]
    # collide with an existing key ~1/4 of the time (conflict paths)
    if existing and rng.random() < 0.25:
        cid = rng.choice(existing)
    else:
        cid = f"C{rng.randrange(10, 99)}"
    pid = rng.choice([row["pid"] for row in scenario.rows["parent"]]
                     + [f"P{rng.randrange(10, 99)}"])
    grand = ""
    if scenario.depth >= 3 and rng.random() < 0.6:
        gid = f"G{rng.randrange(10, 99)}"
        grand = f"""
        <grand>
            <gid>{gid}</gid>
            <gname>{rng.choice(_NAME_POOL)}</gname>
        </grand>"""
    text = f"""
FOR $p IN document("GenView.xml")/parent
WHERE $p/pid/text() = "{pid}"
UPDATE $p {{
INSERT
    <child>
        <cid>{cid}</cid>
        <cname>{rng.choice(_NAME_POOL)}</cname>
        <cnum>{rng.randrange(0, 10)}</cnum>{grand}
    </child>}}
"""
    return ("insert-child", text)


def _insert_grand(rng: random.Random, scenario: Scenario) -> tuple[str, str]:
    children = [row["cid"] for row in scenario.rows["child"]]
    cid = rng.choice(children) if children and rng.random() < 0.8 else "C0"
    existing = [row["gid"] for row in scenario.rows.get("grand", [])]
    if existing and rng.random() < 0.25:
        gid = rng.choice(existing)
    else:
        gid = f"G{rng.randrange(10, 99)}"
    text = f"""
FOR $c IN document("GenView.xml")/parent/child
WHERE $c/cid/text() = "{cid}"
UPDATE $c {{
INSERT
    <grand>
        <gid>{gid}</gid>
        <gname>{rng.choice(_NAME_POOL)}</gname>
    </grand>}}
"""
    return ("insert-grand", text)


def _delete_children(rng: random.Random, scenario: Scenario) -> tuple[str, str]:
    pids = [row["pid"] for row in scenario.rows["parent"]]
    pid = rng.choice(pids) if pids and rng.random() < 0.8 else "P0"
    text = f"""
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pid/text() = "{pid}"
UPDATE $p {{
    DELETE $p/child }}
"""
    return ("delete-children", text)


def _delete_one_child(rng: random.Random, scenario: Scenario) -> tuple[str, str]:
    children = [row["cid"] for row in scenario.rows["child"]]
    cid = rng.choice(children) if children and rng.random() < 0.8 else "C0"
    text = f"""
FOR $p IN document("GenView.xml")/parent,
    $c IN $p/child
WHERE $c/cid/text() = "{cid}"
UPDATE $p {{
    DELETE $c }}
"""
    return ("delete-child", text)


def _delete_parent(rng: random.Random, scenario: Scenario) -> tuple[str, str]:
    pids = [row["pid"] for row in scenario.rows["parent"]]
    pid = rng.choice(pids) if pids and rng.random() < 0.8 else "P0"
    text = f"""
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pid/text() = "{pid}"
UPDATE $root {{
    DELETE $p }}
"""
    return ("delete-parent", text)


def _replace_leaf(rng: random.Random, scenario: Scenario) -> tuple[str, str]:
    children = [row["cid"] for row in scenario.rows["child"]]
    cid = rng.choice(children) if children and rng.random() < 0.8 else "C0"
    if rng.random() < 0.5:
        leaf, value = "cname", rng.choice(_NAME_POOL)
    else:
        leaf, value = "cnum", rng.randrange(0, 10)
    text = f"""
FOR $c IN document("GenView.xml")/parent/child
WHERE $c/cid/text() = "{cid}"
UPDATE $c {{
    REPLACE $c/{leaf} WITH <{leaf}>{value}</{leaf}> }}
"""
    return (f"replace-{leaf}", text)


def generate_scenario(seed: int) -> Scenario:
    """Draw one scenario deterministically from *seed*."""
    rng = random.Random(seed)
    depth = rng.choice((2, 3, 3))
    shared = rng.random() < 0.4
    cnum_cap = rng.choice((None, 5, 8))

    parents = [
        {"pid": f"P{i + 1}", "pname": rng.choice(_NAME_POOL)}
        for i in range(rng.randrange(1, 4))
    ]
    children = [
        {
            "cid": f"C{i + 1}",
            "pid": rng.choice(parents)["pid"],
            "cname": rng.choice(_NAME_POOL),
            "cnum": rng.randrange(0, 10),
        }
        for i in range(rng.randrange(0, 5))
    ]
    rows: dict[str, list[dict[str, Any]]] = {
        "parent": parents,
        "child": children,
    }
    if depth >= 3:
        rows["grand"] = [
            {
                "gid": f"G{i + 1}",
                "cid": rng.choice(children)["cid"],
                "gname": rng.choice(_NAME_POOL),
            }
            for i in range(rng.randrange(0, 4) if children else 0)
        ]

    scenario = Scenario(
        seed=seed,
        depth=depth,
        shared=shared,
        ddl=_ddl(depth),
        rows=rows,
        view_text=_view_text(depth, shared, cnum_cap),
    )
    makers: list[Callable[[random.Random, Scenario], tuple[str, str]]] = [
        _insert_child,
        _delete_children,
        _delete_one_child,
        _delete_parent,
        _replace_leaf,
    ]
    if depth >= 3:
        makers += [_insert_grand]
    for index in range(rng.randrange(2, 5)):
        name, text = rng.choice(makers)(rng, scenario)
        scenario.updates.append((f"u{index + 1}-{name}", text))
    return scenario


# ---------------------------------------------------------------------------
# round-trip execution
# ---------------------------------------------------------------------------

def _build_db(scenario: Scenario) -> Database:
    db = Database(Schema())
    engine = SQLEngine(db)
    for statement in parse_script(scenario.ddl):
        engine.execute(statement)
    for relation_name, rows in scenario.rows.items():
        db.load(relation_name, rows)
    return db


def _fingerprint(db: Database) -> dict[str, list[tuple]]:
    """Content-only state image (rowids excluded: allocation may differ
    between strategies that insert helper tuples in different orders)."""
    return {
        name: sorted(
            tuple(sorted(row.items())) for _, row in db.table(name).scan()
        )
        for name in db.tables
    }


def _checked(
    db: Database,
    scenario: Scenario,
    update_text: str,
    strategy: str,
    store: ASGStore,
    *,
    oracle: bool = False,
    qa: bool = True,
):
    """One isolated check+apply on a clone; returns (report, fingerprint)."""
    working = db.clone()
    working.oracle_mode = oracle
    ufilter = UFilter(
        working,
        scenario.view_text,
        cached_asg=store.get_or_build(scenario.view_text, working.schema),
    )
    report = ufilter.check(update_text, strategy=strategy, execute=True, qa=qa)
    return report, _fingerprint(working)


def run_scenario(
    scenario: Scenario,
    store: Optional[ASGStore] = None,
    summary: Optional[RunSummary] = None,
) -> list[Divergence]:
    """Round-trip every update of *scenario*; returns the divergences."""
    store = ASGStore() if store is None else store
    summary = RunSummary() if summary is None else summary
    divergences: list[Divergence] = []

    def bad(kind: str, update: str, detail: str) -> None:
        divergences.append(
            Divergence(kind=kind, seed=scenario.seed, update=update, detail=detail)
        )

    base = _build_db(scenario)
    for name, text in scenario.updates:
        summary.updates_checked += 1
        results: dict[str, tuple[Any, dict]] = {}
        failed = False
        for strategy in STRATEGIES:
            try:
                results[strategy] = _checked(base, scenario, text, strategy, store)
            # The divergence harness: every escape becomes an "exception"
            # finding instead of aborting the sweep; SimulatedCrash stays
            # a BaseException and sails past this handler by design.
            # repro: allow[REP003]
            except Exception as exc:  # noqa: BLE001 — every escape is a finding
                bad("exception", name, f"{strategy}: {type(exc).__name__}: {exc}")
                failed = True
        if failed:
            continue

        flags = {s: results[s][0].outcome.accepted for s in STRATEGIES}
        if len(set(flags.values())) > 1:
            detail = "; ".join(
                f"{s}: {results[s][0].outcome.value}"
                f" ({results[s][0].reason})" if results[s][0].reason else
                f"{s}: {results[s][0].outcome.value}"
                for s in STRATEGIES
            )
            bad("outcome-mismatch", name, detail)
            continue
        accepted = flags["outside"]
        if accepted:
            summary.accepted += 1
        else:
            summary.rejected += 1

        if accepted:
            prints = {s: results[s][1] for s in STRATEGIES}
            if any(prints[s] != prints["outside"] for s in STRATEGIES):
                bad(
                    "state-mismatch",
                    name,
                    "final base state differs between strategies",
                )

        # QA: warnings are tallied, ERRORs on accepted updates are bugs
        for strategy in STRATEGIES:
            data = results[strategy][0].data
            findings = data.qa_findings if data is not None else []
            errors = qa_errors(findings)
            summary.qa_warnings += len(findings) - len(errors)
            if accepted and errors:
                bad(
                    "qa-error",
                    name,
                    f"{strategy}: " + "; ".join(f.describe() for f in errors),
                )

        # interpreted oracle must agree with the compiled engine paths
        try:
            oracle_report, oracle_print = _checked(
                base, scenario, text, "outside", store, oracle=True
            )
        # Oracle escapes are findings, not aborts.
        # repro: allow[REP003]
        except Exception as exc:  # noqa: BLE001
            bad("exception", name, f"oracle: {type(exc).__name__}: {exc}")
        else:
            if oracle_report.outcome.accepted != accepted:
                bad(
                    "oracle-mismatch",
                    name,
                    f"compiled: {results['outside'][0].outcome.value}, "
                    f"interpreted: {oracle_report.outcome.value} "
                    f"({oracle_report.reason})",
                )
            elif accepted and oracle_print != results["outside"][1]:
                bad(
                    "oracle-mismatch",
                    name,
                    "final base state differs between compiled and "
                    "interpreted engine paths",
                )

        # Definition 1 (the rectangle) for accepted updates
        try:
            rectangle = check_rectangle(base, scenario.view_text, text)
        # Rectangle-check escapes are findings, not aborts.
        # repro: allow[REP003]
        except Exception as exc:  # noqa: BLE001
            bad("exception", name, f"rectangle: {type(exc).__name__}: {exc}")
        else:
            if rectangle.accepted and rectangle.holds is False:
                bad(
                    "rectangle",
                    name,
                    "u(DEF_V(D)) != DEF_V(U(D))"
                    + (" (spurious base change)"
                       if rectangle.spurious_base_change else ""),
                )

    # whole-list session cross-check: interleaved session == no-session
    if scenario.updates:
        try:
            sequential = base.clone()
            ufilter = UFilter(
                sequential,
                scenario.view_text,
                cached_asg=store.get_or_build(
                    scenario.view_text, sequential.schema
                ),
            )
            for _, text in scenario.updates:
                ufilter.check(text, strategy="outside", execute=True, qa=False)

            batched = base.clone()
            session = UpdateSession(
                batched, scenario.view_text, strategy="outside", qa=True
            )
            for name, text in scenario.updates:
                session.add(text, name=name)
            session.execute(mode="interleaved", atomic=False)

            if _fingerprint(sequential) != _fingerprint(batched):
                bad(
                    "session-mismatch",
                    "*batch*",
                    "interleaved session final state differs from "
                    "per-update checking (probe-cache invalidation?)",
                )
        # Session cross-check escapes are findings, not aborts.
        # repro: allow[REP003]
        except Exception as exc:  # noqa: BLE001
            bad("exception", "*batch*", f"session: {type(exc).__name__}: {exc}")

    summary.scenarios += 1
    summary.divergences.extend(divergences)
    return divergences


def run_many(
    count: int,
    seed: int = 0,
    on_progress: Optional[Callable[[int, RunSummary], None]] = None,
) -> RunSummary:
    """Round-trip *count* scenarios drawn from ``seed, seed+1, ...``."""
    summary = RunSummary()
    store = ASGStore()
    for offset in range(count):
        run_scenario(generate_scenario(seed + offset), store, summary)
        if on_progress is not None:
            on_progress(offset + 1, summary)
    return summary


def replay(seed: int) -> RunSummary:
    """Re-run exactly one scenario (for reproducing a divergence)."""
    summary = RunSummary()
    run_scenario(generate_scenario(seed), ASGStore(), summary)
    return summary
