"""ProbeCache key canonicalization and invalidation.

The cache used to key probes on bare ``repr()`` of predicate literals
and key values: ``1`` vs ``1.0`` on a DOUBLE column (or ``"1"`` vs
``1`` on an INTEGER column) composed the *same* SQL but missed each
other's entries — and any repr collision across types would have
wrongly shared one.  Keys now canonicalize through column-type
coercion + ``sql_literal``.  Invalidation follows the database's
change log: a write must drop every entry whose read set it touched
(cascades, rollbacks and direct DML between executes included), and
nothing else.
"""

import pytest

from repro.core import UFilter, UpdateSession, run_per_update
from repro.core.translation import ProbeCache, ProbeResult
from repro.core.update_binding import PredicateResolution, ResolvedUpdate
from repro.core.asg import ValueConstraint
from repro.workloads import books

from test_qa import CHAIN_VIEW, build_chain_db


def resolved_with(relation, attribute, op, literal):
    resolution = PredicateResolution(
        predicate=None,
        relation=relation,
        attribute=attribute,
        constraint=ValueConstraint(op=op, literal=literal),
    )
    return ResolvedUpdate(update=None, predicates=[resolution])


@pytest.fixture()
def book_translator(book_db):
    return UFilter(book_db, books.BOOK_VIEW_QUERY).checker.translator


@pytest.fixture()
def chain_translator():
    db = build_chain_db()
    return UFilter(db, CHAIN_VIEW).checker.translator


class FakeNode:
    node_id = "n1"


# ---------------------------------------------------------------------------
# context keys (PQ1/PQ2)
# ---------------------------------------------------------------------------

def context_key(translator, literal):
    return ProbeCache.context_key(
        FakeNode(),
        resolved_with("book", "price", "=", literal),
        narrow=False,
        canon=translator._literal_signature,
    )


def test_int_and_float_literal_share_a_double_key(book_translator):
    assert context_key(book_translator, 37) == context_key(book_translator, 37.0)


def test_lexical_and_numeric_literal_share_an_integer_key(chain_translator):
    lexical = ProbeCache.context_key(
        FakeNode(),
        resolved_with("child", "cnum", "=", "1"),
        narrow=False,
        canon=chain_translator._literal_signature,
    )
    numeric = ProbeCache.context_key(
        FakeNode(),
        resolved_with("child", "cnum", "=", 1),
        narrow=False,
        canon=chain_translator._literal_signature,
    )
    assert lexical == numeric


def test_type_distinct_literals_stay_apart(book_translator):
    """'37' on a VARCHAR column renders quoted; 37 on DOUBLE does not —
    canonicalization must not merge across genuinely distinct types."""
    on_title = ProbeCache.context_key(
        FakeNode(),
        resolved_with("book", "title", "=", "37"),
        narrow=False,
        canon=book_translator._literal_signature,
    )
    on_price = context_key(book_translator, 37)
    assert on_title != on_price


def test_distinct_values_stay_apart(book_translator):
    assert context_key(book_translator, 37) != context_key(book_translator, 48)


def test_default_canon_uses_sql_literal_not_repr():
    key_a = ProbeCache.context_key(
        FakeNode(), resolved_with("r", "a", "=", 1.0), narrow=False
    )
    key_b = ProbeCache.context_key(
        FakeNode(), resolved_with("r", "a", "=", 1), narrow=False
    )
    # sql_literal(1.0) == '1.0' vs sql_literal(1) == '1': without a
    # schema there is no coercion, but the rendering is still SQL
    assert key_a != key_b
    assert key_a[3][0][3] == "1.0"
    assert key_b[3][0][3] == "1"


# ---------------------------------------------------------------------------
# key-probe keys (PQ3)
# ---------------------------------------------------------------------------

def test_key_probe_key_canonicalizes_strings_vs_numbers():
    assert ProbeCache.key_probe_key("child", (1,)) == ProbeCache.key_probe_key(
        "child", (1,)
    )
    # quoted string and bare int render differently — distinct entries
    assert ProbeCache.key_probe_key("child", ("1",)) != ProbeCache.key_probe_key(
        "child", (1,)
    )


def test_key_probe_cache_hit_after_type_coercion(chain_translator):
    """The translator coerces key values through the column types before
    keying, so a lexical '1' and a numeric 1 probe collapse."""
    from repro.core.translation import TupleInsert

    first = TupleInsert("child", {"cid": "C1", "pid": "P1", "cname": "c", "cnum": 1})
    probe_cache = ProbeCache()
    chain_translator.cache = probe_cache
    chain_translator.key_probe(first)
    misses = probe_cache.misses
    chain_translator.key_probe(first)
    assert probe_cache.hits == 1
    assert probe_cache.misses == misses


# ---------------------------------------------------------------------------
# invalidation by the database's change log
# ---------------------------------------------------------------------------

def entry(cache, name, read_relations):
    cache.put(
        ("context", name, False, ()),
        ProbeResult(sql=f"-- {name}", rows=[]),
        frozenset(read_relations),
    )


def test_invalidate_drops_intersecting_entries_only():
    cache = ProbeCache()
    entry(cache, "on-child", {"parent", "child"})
    entry(cache, "on-grand", {"grand"})
    dropped = cache.invalidate({"child"})
    assert dropped == 1
    assert cache.get(("context", "on-grand", False, ())) is not None
    assert cache.get(("context", "on-child", False, ())) is None


def test_maintain_drains_the_change_log_into_drops():
    db = build_chain_db()
    cache = ProbeCache()
    entry(cache, "reads-child", {"child"})
    entry(cache, "reads-offview", {"offview"})
    db.deltas.take()
    db.update("child", db.find_rowids("child", {"cid": "C1"}).pop(), {"cname": "e"})
    assert cache.maintain(db, db.deltas.take()) == 1
    assert cache.maintain(db, db.deltas.take()) == 0  # nothing new written
    assert len(cache) == 1
    assert cache.get(("context", "reads-offview", False, ())) is not None


DELETE_P1 = """
FOR $root IN document("GenView.xml"),
    $p IN $root/parent
WHERE $p/pid/text() = "P1"
UPDATE $root {
    DELETE $p }
"""


def test_interleaved_session_invalidates_cascade_reachable_entries():
    """End to end: a parent delete that cascades through child into
    grand drops the cached probes over every relation the cascade
    wrote; entries on untouched relations survive."""
    db = build_chain_db()
    db.deltas.take()  # the load predates the entries below
    session = UpdateSession(db, CHAIN_VIEW)
    entry(session.cache, "reads-grand", {"grand"})
    entry(session.cache, "reads-offview", {"offview"})
    session.add(DELETE_P1)
    result = session.execute(mode="interleaved")
    assert result.committed
    assert db.count("grand") == 0
    assert session.cache.get(("context", "reads-offview", False, ())) is not None
    assert session.cache.get(("context", "reads-grand", False, ())) is None


# ---------------------------------------------------------------------------
# coherence of a long-lived session
# ---------------------------------------------------------------------------

DELETE_P2 = DELETE_P1.replace('"P1"', '"P2"')

#: a parent with one child: the apply inserts the parent, then the child
INSERT_FAMILY = """
    FOR $root IN document("GenView.xml")
    UPDATE $root {{
    INSERT
        <parent>
            <pid>{pid}</pid>
            <pname>family</pname>
            <child>
                <cid>{cid}</cid>
                <cname>kin</cname>
                <cnum>3</cnum>
            </child>
        </parent> }}
"""


def chain_state(db):
    return {
        relation: sorted(tuple(sorted(row.items())) for row in db.rows(relation))
        for relation in ("parent", "child", "grand")
    }


def test_long_lived_session_probes_match_uncached_reruns(monkeypatch):
    """One interleaved, non-atomic session over the chain workload sees
    inserts, a cascading delete, an update that fails mid-apply and is
    rolled back to its savepoint, and a direct write between two
    executes.  After every execute each cached probe must hold the rows
    an uncached re-run returns, and the final state must match checking
    the same updates one by one without a session.

    The direct write renames parent "a"; a cache that misses it keeps a
    context probe that still finds "a" and applies the next child
    insert under a parent that no longer matches.
    """
    from repro.core import translation
    from repro.rdb import FaultPlan, execute_select
    from repro.workloads import chains

    plans = {}

    def recording(db, plan, *args, **kwargs):
        plans[plan.to_sql()] = plan
        return execute_select(db, plan, *args, **kwargs)

    monkeypatch.setattr(translation, "execute_select", recording)

    def child(k):
        return chains.STREAM_INSERT_CHILD.format(cid=f"CX{k}", num=k)

    def parent(k):
        return chains.STREAM_INSERT_PARENT.format(pid=f"PX{k}")

    db = chains.build_chain_db(seed_parents=3)
    baseline = chains.build_chain_db(seed_parents=3)
    session = UpdateSession(db, CHAIN_VIEW)

    def run(updates, expected, skip_in_baseline=()):
        result = session.execute(updates, mode="interleaved", atomic=False)
        assert [e.status for e in result.entries] == expected
        for probe, _ in session.cache._entries.values():
            fresh = execute_select(db, plans[probe.sql])
            assert [list(r.items()) for r in probe.rows] == [
                list(r.items()) for r in fresh
            ], probe.sql
        run_per_update(
            baseline,
            CHAIN_VIEW,
            [u for i, u in enumerate(updates) if i not in skip_in_baseline],
        )
        return result

    run([child(1), child(2), parent(1)], ["applied"] * 3)
    run([DELETE_P2, child(3)], ["applied"] * 2)
    assert db.count("child") == 4  # C2 went with P2; C1 + three inserts
    # the fault fires at the family's second planned insert (the child),
    # after its parent landed: the savepoint must undo the parent too
    db.faults.arm(FaultPlan(at=2, site="datacheck.insert", action="error"))
    run(
        [INSERT_FAMILY.format(pid="PF", cid="CF"), child(4)],
        ["failed", "applied"],
        skip_in_baseline={0},
    )
    db.faults.disarm()
    assert not db.find_rowids("parent", {"pid": "PF"})

    for target in (db, baseline):
        rowid = target.find_rowids("parent", {"pid": "P1"}).pop()
        target.update("parent", rowid, {"pname": "z"})
    run([child(5), parent(5)], ["rejected", "applied"])
    assert "CX5" not in {row["cid"] for row in db.rows("child")}
    assert session.cache.hits > 0
    assert chain_state(db) == chain_state(baseline)


def test_sessions_over_one_database_do_not_steal_each_others_changes():
    """Each probe cache reads the write history from its own position.

    Session A caches the context probe for parent "a"; a direct write
    renames "a"; session B executes, taking the change for its own
    cache.  A must still see the rename: its next child insert is
    rejected, not applied under a parent that no longer matches.
    """
    from repro.workloads import chains

    def child(k):
        return chains.STREAM_INSERT_CHILD.format(cid=f"CX{k}", num=k)

    db = chains.build_chain_db()
    a = UpdateSession(db, CHAIN_VIEW)
    b = UpdateSession(db, CHAIN_VIEW)
    first = a.execute([child(1)], mode="interleaved", atomic=False)
    assert [e.status for e in first.entries] == ["applied"]
    rowid = db.find_rowids("parent", {"pid": "P1"}).pop()
    db.update("parent", rowid, {"pname": "z"})
    b.execute([chains.STREAM_INSERT_PARENT.format(pid="PB")], mode="interleaved")
    second = a.execute([child(2)], mode="interleaved", atomic=False)
    assert [e.status for e in second.entries] == ["rejected"]
    assert not db.find_rowids("child", {"cid": "CX2"})


def test_a_cache_tracks_its_own_database():
    db = build_chain_db()
    cache = ProbeCache()
    entry(cache, "stale", {"child"})
    session = UpdateSession(db, CHAIN_VIEW, cache=cache)
    # entries of unknown age are dropped when a session adopts the cache
    assert len(cache) == 0 and cache.changes.db is db
    entry(cache, "reads-child", {"child"})
    UpdateSession(db, CHAIN_VIEW, cache=cache)  # already tracking db: kept
    assert len(cache) == 1
    db.update("child", db.find_rowids("child", {"cid": "C1"}).pop(), {"cname": "e"})
    session.execute([], mode="interleaved")
    assert len(cache) == 0
