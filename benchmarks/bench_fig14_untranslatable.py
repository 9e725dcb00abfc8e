"""Fig. 14 — an untranslatable view update over Vfail.

Vfail republishes the updated relation under the root, so deleting an
element of it is untranslatable.  Two systems are compared:

* **Update** (no checking): blindly translate and execute the deletes,
  discover the view side effect (the republished element vanished —
  detected by re-evaluating the view), then roll everything back;
* **Update With STARChecking**: STAR rejects the update before any SQL
  runs — near-constant time however big the database is.
"""

import pytest

from repro.core import Outcome, UFilter
from repro.workloads import tpch
from repro.xquery import evaluate_view

from .helpers import Series, blind_translate_and_execute, fresh_tpch

SCALE_MB = 1.0


@pytest.fixture(scope="module")
def environments():
    envs = {}
    for relation in tpch.RELATIONS:
        db = fresh_tpch(SCALE_MB)
        envs[relation] = (db, UFilter(db, tpch.v_fail(relation)))
    return envs


@pytest.mark.parametrize("relation", tpch.RELATIONS)
def test_blind_update_with_rollback(benchmark, environments, relation):
    db, checker = environments[relation]
    update = tpch.delete_update(relation, 0)

    def setup():
        if db.txn.active:
            db.rollback()

    def blind_update_detect_rollback():
        db.begin()
        blind_translate_and_execute(checker, update)
        # the damage is discovered only by comparing the view — an
        # expensive full re-evaluation — and must then be undone
        evaluate_view(db, checker.view)
        db.rollback()

    benchmark.pedantic(
        blind_update_detect_rollback, setup=setup, rounds=3, iterations=1
    )
    Series.get("Fig. 14: untranslatable update over Vfail", "relation").add(
        "Update (blind + rollback)", relation, benchmark.stats.stats.min
    )


@pytest.mark.parametrize("relation", tpch.RELATIONS)
def test_star_early_rejection(benchmark, environments, relation):
    db, checker = environments[relation]
    update = tpch.delete_update(relation, 0)

    def star_reject():
        # from text: later calls bind into the shape's cached template
        report = checker.check(update.source_text, run_data_checks=False)
        assert report.outcome is Outcome.UNTRANSLATABLE
        return report

    benchmark(star_reject)
    Series.get("Fig. 14: untranslatable update over Vfail", "relation").add(
        "Update With STARChecking", relation, benchmark.stats.stats.min
    )
