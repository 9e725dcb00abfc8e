"""The FK-chain workload: parent <- child <- grand (+ offview).

The chain view has **no shared relations** (unlike BookView's
publisher), so both ``<parent>`` and ``<child>`` inserts are
unconditionally translatable — the only shape in the sample workloads
that can sustain an unbounded write stream through a long-lived
session.  The probe-cache coherence tests drive one through it.

``STREAM_INSERT_CHILD`` targets its parent by ``pname`` on purpose:
``pname`` carries no index, so its cached context probe is the costly
one to recompute, and a stale copy of it would anchor the child under
a parent that no longer matches.
"""

from __future__ import annotations

from ..rdb import Database, Schema, SQLEngine, parse_script

__all__ = [
    "CHAIN_DDL",
    "CHAIN_VIEW",
    "STREAM_INSERT_CHILD",
    "STREAM_INSERT_PARENT",
    "build_chain_db",
]

CHAIN_DDL = """
CREATE TABLE parent(
    pid VARCHAR2(10),
    pname VARCHAR2(20),
    CONSTRAINTS QaParPK PRIMARYKEY (pid));

CREATE TABLE child(
    cid VARCHAR2(10),
    pid VARCHAR2(10),
    cname VARCHAR2(20),
    cnum INTEGER,
    CONSTRAINTS QaChPK PRIMARYKEY (cid),
    FOREIGNKEY (pid) REFERENCES parent (pid));

CREATE TABLE grand(
    gid VARCHAR2(10),
    cid VARCHAR2(10),
    gname VARCHAR2(20),
    CONSTRAINTS QaGrPK PRIMARYKEY (gid),
    FOREIGNKEY (cid) REFERENCES child (cid));

CREATE TABLE offview(
    oid VARCHAR2(10),
    CONSTRAINTS QaOffPK PRIMARYKEY (oid));
"""

CHAIN_VIEW = """
<GenView>
FOR $p IN document("default.xml")/parent/row
RETURN {
    <parent>
        $p/pid, $p/pname,
        FOR $c IN document("default.xml")/child/row
        WHERE ($c/pid = $p/pid)
        RETURN {
            <child>
                $c/cid, $c/cname, $c/cnum,
                FOR $g IN document("default.xml")/grand/row
                WHERE ($g/cid = $c/cid)
                RETURN {
                    <grand>
                        $g/gid, $g/gname
                    </grand>}
            </child>}
    </parent>}
</GenView>
"""

#: insert a child under the parent named "a" — the reused context probe
#: reads ``parent`` filtered on the unindexed ``pname``
STREAM_INSERT_CHILD = """
    FOR $root IN document("GenView.xml"),
        $p IN $root/parent
    WHERE $p/pname/text() = "a"
    UPDATE $p {{
    INSERT
        <child>
            <cid>{cid}</cid>
            <cname>streamed</cname>
            <cnum>{num}</cnum>
        </child> }}
"""

#: insert a fresh top-level parent — a write to ``parent`` that drops
#: the cached context probe of ``STREAM_INSERT_CHILD``
STREAM_INSERT_PARENT = """
    FOR $root IN document("GenView.xml")
    UPDATE $root {{
    INSERT
        <parent>
            <pid>{pid}</pid>
            <pname>seed</pname>
        </parent> }}
"""


def build_chain_db(seed_parents: int = 0) -> Database:
    """The chain database with its two sample families loaded.

    *seed_parents* extra parents (pids ``S0000``..) pad the parent
    table so full re-scans of it have a measurable cost.
    """
    db = Database(Schema())
    engine = SQLEngine(db)
    for statement in parse_script(CHAIN_DDL):
        engine.execute(statement)
    db.load("parent", [{"pid": "P1", "pname": "a"}, {"pid": "P2", "pname": "b"}])
    db.load(
        "child",
        [
            {"cid": "C1", "pid": "P1", "cname": "c", "cnum": 1},
            {"cid": "C2", "pid": "P2", "cname": "d", "cnum": 7},
        ],
    )
    db.load("grand", [{"gid": "G1", "cid": "C1", "gname": "g"}])
    for i in range(seed_parents):
        db.insert("parent", {"pid": f"S{i:04d}", "pname": "seed"})
    return db
