"""Fig. 13 — a translatable view update over Vsuccess.

For each of the five relations, delete one element from the linearly
nested view, with and without the STAR schema checks.  The paper's
finding: the checking overhead is negligible (the two bars coincide),
and the update cost shrinks from REGION (huge cascade) to LINEITEM.

Every measured run executes inside a transaction that the setup of the
next round rolls back, so each round sees the same database.
"""

import pytest

from repro.core import Outcome, UFilter
from repro.workloads import tpch

from .helpers import Series, blind_translate_and_execute, checked_translate_and_execute, fresh_tpch

SCALE_MB = 1.0


@pytest.fixture(scope="module")
def env():
    db = fresh_tpch(SCALE_MB)
    return db, UFilter(db, tpch.v_success())


def _run(benchmark, env, relation, with_star):
    db, checker = env
    update = tpch.delete_update(relation, 0)

    def setup():
        if db.txn.active:
            db.rollback()
        db.begin()

    def blind():
        blind_translate_and_execute(checker, update)

    def checked():
        # the checker takes the text, as a service would: rounds after
        # the first bind it into the shape's cached template
        report = checked_translate_and_execute(checker, update.source_text)
        assert report.outcome is Outcome.TRANSLATED

    result = benchmark.pedantic(
        checked if with_star else blind, setup=setup, rounds=5, iterations=1
    )
    if db.txn.active:
        db.rollback()
    label = "Update With STARChecking" if with_star else "Update"
    Series.get("Fig. 13: translatable update over Vsuccess", "relation").add(
        label, relation, benchmark.stats.stats.min
    )


@pytest.mark.parametrize("relation", tpch.RELATIONS)
def test_update_without_checking(benchmark, env, relation):
    _run(benchmark, env, relation, with_star=False)


@pytest.mark.parametrize("relation", tpch.RELATIONS)
def test_update_with_star_checking(benchmark, env, relation):
    _run(benchmark, env, relation, with_star=True)
