"""Prepared view updates bind to exactly what a fresh parse produces.

A checker parses each update shape once and binds the literals of
later texts into the template (:mod:`repro.xquery.update_template`),
reusing the shape's resolution and STAR verdict.  For every update
text of the bundled workloads and of perfbench's shapes, a warm
checker is compared against the uncached functions under random
literal rebindings: the bound AST, the resolution, the STAR verdict
and the whole check report must equal a fresh run.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import UFilter
from repro.core.star import star_check
from repro.core.update_binding import resolve_update
from repro.core.validation import validate_update
from repro.xml.nodes import XMLElement, XMLText
from repro.xquery.update_parser import parse_view_update
from repro.xquery.update_template import (
    MARK,
    TemplateCache,
    literal_skeleton,
)
from repro.workloads import books, generated, psd, tpch

ROOT = Path(__file__).resolve().parents[2]


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def _texts():
    """Update texts per corpus: the bundled workloads and perfbench's."""
    bench = _perfbench_workloads()
    return {
        "books": list(books.UPDATE_TEXTS.values()),
        "tpch-linear": [
            tpch.delete_by_key(relation, 1).source_text
            for relation in tpch.RELATIONS
        ] + [
            tpch.insert_lineitem_update(1, 9).source_text,
            bench.insert_lineitem(1, 7, 3, 120.5),
            bench.insert_lineitem(1, "x12", 3, 100.0),
            bench.delete_by_key("orders", 1),
            bench.delete_lineitem(1, 1),
            bench.delete_customer_named("No Such Customer #7"),
        ],
        "tpch-fail": [bench.delete_by_key("region", 1)],
        "tpch-bush": [bench.delete_bush_customers("NATION1")],
        "psd": [
            psd.delete_feature_update().source_text,
            psd.delete_entry_of_reference("R1").source_text,
            psd.insert_feature_update("E1").source_text,
        ],
        "generated": [text for _, text in generated.scenario().updates],
    }


TEXTS = _texts()
CASES = [(name, index) for name, texts in TEXTS.items() for index in range(len(texts))]


def _checkers():
    """A fresh checker per corpus, all of its texts checked once."""
    tpch_db = tpch.build_tpch_database(tpch.scale_rows(1), seed=3)
    worlds = {
        "books": (books.build_book_database(), books.BOOK_VIEW_QUERY),
        "tpch-linear": (tpch_db, tpch.v_linear()),
        "tpch-fail": (tpch_db, tpch.v_fail("region")),
        "tpch-bush": (tpch_db, tpch.v_bush()),
        "psd": (psd.build_psd_database(), psd.psd_view()),
        "generated": (generated.build_generated_database(),
                      generated.scenario().view_text),
    }
    out = {}
    for name, (db, view) in worlds.items():
        checker = UFilter(db, view)
        for text in TEXTS[name]:
            checker.check(text)
        out[name] = checker
    return out


@pytest.fixture(scope="module")
def warm():
    return _checkers()


#: literals worth a rebinding: whitespace, empty and quoted text,
#: entities (named, numeric, unknown, out of range), markup characters,
#: non-integer keys, padding, numbers, the sentinel character itself
SPECIAL = [
    "", " ", "   ", '""', "''", '"quoted"', "'single'", "“curly”",
    "&amp;", "a &amp; b", "&#65;", "&#x42;", "&#32;", "&nbsp;", "&#99999999999;",
    ">", "a > b", 'say "hi"', "x12", " x12 ", "  padded  ", "12", "0", "-3",
    "3.5", "98001", "P1", "C1", "DOMAIN", "Data on the Web", "AFRICA", MARK,
]
literal = st.one_of(
    st.sampled_from(SPECIAL),
    st.text(alphabet=st.sampled_from(list("ab1 .-&;#\"'<>")), max_size=8),
)


def rebind(text: str, values: list) -> str:
    """*text* with its i-th literal region's raw text replaced by
    ``values[i]`` (None keeps the original)."""
    skeleton, regions = literal_skeleton(text)
    pieces = skeleton.split(MARK)
    out = [pieces[0]]
    for (_, raw), value, piece in zip(regions, values, pieces[1:]):
        out.append(raw if value is None else value)
        out.append(piece)
    return "".join(out)


def dump(node):
    if isinstance(node, XMLText):
        return ("text", node.value)
    assert isinstance(node, XMLElement)
    return (node.tag, dict(node.attributes), [dump(c) for c in node.children])


def update_form(update):
    ops = [
        (op.kind, str(getattr(op, "path", "")),
         dump(op.fragment) if getattr(op, "fragment", None) is not None else None)
        for op in update.ops
    ]
    return (update.bindings, update.where, update.target_var, ops,
            update.source_text, update.name)


def resolution_form(resolved):
    return (
        {var: id(node) for var, node in resolved.env.items()},
        id(resolved.target),
        [(p.predicate, id(p.leaf), p.relation, p.attribute, p.constraint, p.error)
         for p in resolved.predicates],
        [(op.kind, id(op.node), op.text_delete,
          dump(op.fragment) if op.fragment is not None else None, op.error)
         for op in resolved.ops],
        resolved.error,
    )


def verdict_form(verdict):
    if verdict is None:
        return None
    return (verdict.category, id(verdict.node), verdict.condition, verdict.reason)


_TEMP = re.compile(r"TAB_ctx_\d+")


def report_form(report):
    data = report.data
    return (
        report.outcome, report.stage, report.reason, report.condition,
        [_TEMP.sub("TAB", q) for q in report.probe_queries],
        [_TEMP.sub("TAB", q) for q in report.sql_updates],
        [_TEMP.sub("TAB", repr(op)) for op in data.planned_ops] if data else None,
        report.validation.valid if report.validation else None,
        report.validation.reason if report.validation else None,
    )


def outcome_of(call):
    try:
        return call(), None
    except Exception as exc:  # the same failure must surface both ways
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), data=st.data())
def test_bound_updates_equal_fresh_parses(warm, case, data):
    name, index = case
    checker, texts = warm[name], TEXTS[name]
    _, regions = literal_skeleton(texts[index])
    values = data.draw(st.lists(st.none() | literal,
                                min_size=len(regions), max_size=len(regions)))
    text = rebind(texts[index], values)

    fresh, error = outcome_of(lambda: parse_view_update(text))
    hot, hot_error = outcome_of(lambda: checker.check(text))
    assert hot_error == error
    if error is not None:
        return
    assert update_form(hot.update) == update_form(fresh)

    asg = checker.view_asg
    resolved = resolve_update(asg, fresh)
    assert resolution_form(hot.resolved) == resolution_form(resolved)
    if validate_update(asg, resolved).valid:
        assert verdict_form(hot.star) == verdict_form(star_check(asg, resolved))
    cold = checker.check(fresh)  # a parsed update skips the template cache
    assert report_form(hot) == report_form(cold)
    assert verdict_form(hot.star) == verdict_form(cold.star)


def test_every_bundled_shape_is_templated():
    """The corpora exercise the template path, not only the fallback."""
    for name, checker in _checkers().items():
        assert checker.templates.uncacheable == 0, name
        for text in TEXTS[name]:
            before = checker.templates.hits
            checker.check(text)
            assert checker.templates.hits == before + 1, (name, text)


def test_literal_inside_a_comment_is_uncacheable():
    db = books.build_book_database()
    checker = UFilter(db, books.BOOK_VIEW_QUERY)
    text = books.UPDATE_TEXTS["u12"].replace(
        "UPDATE $book", '(: was "Data on the Web" :) UPDATE $book'
    )
    for title in ("Data on the Web", "TCP/IP Illustrated"):
        variant = text.replace('= "Data on the Web"', f'= "{title}"')
        report = checker.check(variant)
        fresh = parse_view_update(variant)
        assert update_form(report.update) == update_form(fresh)
        assert report_form(report) == report_form(checker.check(fresh))
    cache = checker.templates
    assert (cache.misses, cache.hits, cache.uncacheable) == (1, 0, 1)
    assert len(cache) == 1


def test_empty_literal_falls_back_to_the_full_parse():
    db = books.build_book_database()
    checker = UFilter(db, books.BOOK_VIEW_QUERY)
    checker.check(books.UPDATE_TEXTS["u13"])
    text = books.UPDATE_TEXTS["u13"].replace(
        "<comment>Easy read and useful.</comment>", '<comment>""</comment>'
    )
    report = checker.check(text)
    assert update_form(report.update) == update_form(parse_view_update(text))
    assert report.update.ops[0].fragment.children[1].children == []
    assert checker.templates.uncacheable == 1


def test_template_cache_is_bounded_least_recently_used():
    db = books.build_book_database()
    checker = UFilter(db, books.BOOK_VIEW_QUERY)
    capacity = TemplateCache.capacity
    shape = 'FOR $book IN document("BookView.xml")/book ' \
            'WHERE $book/price < {n} UPDATE $book {{ DELETE $book/review }}'
    checker.parse(shape.format(n=0))
    for n in range(1, capacity + 5):
        checker.parse(shape.format(n=n))
        checker.parse(shape.format(n=0))  # kept recent: never evicted
    cache = checker.templates
    assert len(cache) == capacity
    assert cache.misses == capacity + 5
    before = cache.hits
    checker.parse(shape.format(n=0))
    checker.parse(shape.format(n=capacity + 4))
    assert cache.hits == before + 2
    checker.parse(shape.format(n=1))  # evicted long ago
    assert cache.misses == capacity + 6


def test_parse_timing_is_reported():
    db = books.build_book_database()
    report = UFilter(db, books.BOOK_VIEW_QUERY).check(books.UPDATE_TEXTS["u2"])
    assert set(report.timings) == {"parse", "validation", "star"}
    assert report.timings["parse"] > 0
