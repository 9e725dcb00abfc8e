"""Batched update sessions vs per-update checking.

A heavy-traffic front end does not check updates one at a time: an
:class:`repro.core.session.UpdateSession` shares the marked ASG, caches
probe results across the batch, cross-checks the queued plans and
applies the survivors in one transaction.  This module runs the same
≥20-update workload both ways over the BookView database and verifies

* the session issues **strictly fewer** probe ``SelectPlan``
  executions than the per-update baseline, and
* both leave the database in the **identical final state**.

The printed series mirrors the paper-style tables of the other
benchmark modules (x axis = batch size instead of DB size).
"""

import pytest

from repro.core import Outcome, UpdateSession, run_per_update
from repro.workloads import books

from .helpers import Series, timed

INSERT_REVIEW = """
    FOR $book IN document("BookView.xml")/book
    WHERE $book/title/text() = "Data on the Web"
    UPDATE $book {{
    INSERT
        <review>
            <reviewid>{rid}</reviewid>
            <comment>session comment {rid}</comment>
        </review>}}
"""

#: the target book is not in the view — rejected by the context check
INSERT_MISSING_CONTEXT = """
    FOR $book IN document("BookView.xml")/book
    WHERE $book/title/text() = "DB2 Universal Database"
    UPDATE $book {{
    INSERT
        <review>
            <reviewid>{rid}</reviewid>
            <comment>never lands</comment>
        </review>}}
"""


def batch_workload(size: int) -> list[str]:
    """Half translatable inserts (shared context), half rejected ones."""
    half = size // 2
    workload = [INSERT_REVIEW.format(rid=f"{500 + i}") for i in range(half)]
    workload += [
        INSERT_MISSING_CONTEXT.format(rid=f"{600 + i}")
        for i in range(size - half)
    ]
    return workload


def table_state(db):
    return {
        relation: sorted(
            tuple(sorted(row.items())) for row in db.rows(relation)
        )
        for relation in ("publisher", "book", "review")
    }


@pytest.mark.parametrize("size", [20, 40])
def test_session_beats_per_update(size):
    workload = batch_workload(size)

    db_each = books.build_book_database()
    reports = run_per_update(db_each, books.BOOK_VIEW_QUERY, workload)
    probes_each = db_each.stats["selects"]
    assert sum(r.outcome is Outcome.TRANSLATED for r in reports) == size // 2

    db_batch = books.build_book_database()
    session = UpdateSession(db_batch, books.BOOK_VIEW_QUERY)
    result = session.execute(workload, atomic=False)
    probes_batch = db_batch.stats["selects"]

    # the acceptance criterion: strictly fewer probe executions ...
    assert probes_batch < probes_each, (probes_batch, probes_each)
    assert result.probe_executions == probes_batch
    assert result.cache_hits > 0
    # ... with the identical final database state
    assert table_state(db_batch) == table_state(db_each)
    assert len(result.applied) == size // 2

    series = Series.get("Batch sessions: probe executions", "batch size")
    series.add("per-update", size, probes_each)
    series.add("sessioned", size, probes_batch)


def test_session_throughput(benchmark):
    """Wall-clock per batch: sessioned vs per-update checking."""
    workload = batch_workload(20)

    def run_batch():
        db = books.build_book_database()
        UpdateSession(db, books.BOOK_VIEW_QUERY).execute(workload, atomic=False)

    seconds_each = timed(
        lambda: run_per_update(
            books.build_book_database(), books.BOOK_VIEW_QUERY, workload
        )
    )
    seconds_batch = timed(run_batch)
    benchmark(run_batch)

    series = Series.get("Batch sessions: seconds per 20-update batch", "variant")
    series.add("per-update", "20 updates", seconds_each)
    series.add("sessioned", "20 updates", seconds_batch)
