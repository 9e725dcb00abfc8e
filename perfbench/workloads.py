"""The three benchmark workloads over the TPC-H views: check, stream, bulk.

Each workload builds its database and checkers in ``setup()``, generates
every update text from the seed there (before timing), and then drives
the public U-Filter API from one thread as a closed loop with one
client: the next update is sent only after the previous one returned.

Every generated update carries the outcome and the per-relation row
changes it must produce, fixed by construction and computed in plain
Python from the base rows.  Each update is checked against them outside
the timed region; a mismatch or an exception counts the update as
failed, with its cause.
"""

from __future__ import annotations

import bisect
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import Outcome, UFilter
from repro.core.asg_cache import ASGStore
from repro.core.session import UpdateSession
from repro.core.translation import TupleDelete, TupleInsert, TupleUpdate
from repro.workloads import tpch

RELATIONS = tpch.RELATIONS
PRIMARY_KEYS = {
    "region": ("r_regionkey",),
    "nation": ("n_nationkey",),
    "customer": ("c_custkey",),
    "orders": ("o_orderkey",),
    "lineitem": ("l_orderkey", "l_linenumber"),
}
#: child relation -> (its foreign-key column, the parent relation)
PARENTS = {
    "nation": ("n_regionkey", "region"),
    "customer": ("c_nationkey", "nation"),
    "orders": ("o_custkey", "customer"),
    "lineitem": ("l_orderkey", "orders"),
}

#: nominal size of a full run (7,830 rows) and of the smoke mode (398)
FULL_SCALE = 20
SMOKE_SCALE = 1

#: failures whose cause is a known, documented defect of the checker
#: (see README.md): (class, start of the cause, explanation).  They
#: count as failed updates but do not make the run incorrect.
KNOWN_DEFECTS = (
    ("bush_delete", "over-delete of region",
     "expand_cascades deletes the shared region row, cascading into other "
     "nations' customers: Translator.member_deletes skips the reference "
     "check that build_deletes applies under minimization"),
)


def known_defect(cls: str, cause: str) -> str:
    """The explanation of a known defect matching this failure, or ''."""
    for known_cls, prefix, explanation in KNOWN_DEFECTS:
        if cls == known_cls and cause.startswith(prefix):
            return explanation
    return ""


@dataclass(frozen=True)
class Effect:
    """Expected per-relation row changes, keyed by primary key."""

    deleted: dict = field(default_factory=dict)   # rel -> frozenset[key]
    optional: dict = field(default_factory=dict)  # rel -> keys that may go
    inserted: dict = field(default_factory=dict)  # rel -> {key: values}


NO_EFFECT = Effect()


@dataclass(frozen=True)
class Update:
    cls: str
    text: str
    #: Outcome for a checker report, or "applied" / "rejected" for a
    #: session entry
    expect: object
    effect: Effect = NO_EFFECT


@dataclass
class Tally:
    """What one timed pass measured: for every round, the class and the
    timed seconds of each update, in round order."""

    attempted: int = 0
    rounds: list = field(default_factory=list)   # [[(class, seconds)]]
    failures: Counter = field(default_factory=Counter)
    invariant_errors: set = field(default_factory=set)

    def fail(self, update: Update, cause: str) -> None:
        self.failures[(update.cls, cause)] += 1

    @property
    def busy(self) -> float:
        return sum(seconds for latencies in self.rounds for _, seconds in latencies)

    def best(self) -> list:
        """For each update of the round, its fastest repetition.

        Every round sends the same updates from the same state, so the
        fastest repetition of an update is the one least slowed by other
        load on the machine (the reasoning behind ``timeit``'s minimum);
        work the program does at a fixed place in the round is in every
        repetition."""
        return [min(repeats, key=lambda latency: latency[1])
                for repeats in zip(*self.rounds)]


class Base:
    """Plain-Python copy of the seeded rows, for expected effects."""

    def __init__(self, db) -> None:
        self.rows: dict = {}      # rel -> {key: row}
        self.key_of: dict = {}    # rel -> {rowid: key}
        for rel in RELATIONS:
            cols = PRIMARY_KEYS[rel]
            rows, keys = {}, {}
            for rowid, row in db.table(rel).scan():
                key = tuple(row[c] for c in cols)
                rows[key] = dict(row)
                keys[rowid] = key
            self.rows[rel] = rows
            self.key_of[rel] = keys
        self.counts = {rel: len(self.rows[rel]) for rel in RELATIONS}
        self.children: dict = {rel: {} for rel in PARENTS}
        for rel, (column, _) in PARENTS.items():
            for key in sorted(self.rows[rel]):
                parent = (self.rows[rel][key][column],)
                self.children[rel].setdefault(parent, []).append(key)

    def subtree(self, rel: str, key: tuple) -> dict:
        """*key* of *rel* plus every row below it on the FK chain."""
        out = {rel: [key]}
        order = list(RELATIONS)
        for child in order[order.index(rel) + 1:]:
            parents = out[order[order.index(child) - 1]]
            out[child] = [
                k for p in parents for k in self.children[child].get(p, ())
            ]
        return {r: frozenset(keys) for r, keys in out.items()}


def _present(db, rel: str, key: tuple) -> bool:
    return bool(db.index_on(rel, PRIMARY_KEYS[rel]).lookup(key))


def verify_applied(db, counts: dict, effect: Effect) -> str:
    """Compare the database against *counts* (rows before the update)
    changed by *effect*; returns the cause of a mismatch or ''."""
    over, under, wrong = [], [], []
    for rel in RELATIONS:
        exact = effect.deleted.get(rel, ())
        optional = effect.optional.get(rel, ())
        added = effect.inserted.get(rel, {})
        removed = counts[rel] + len(added) - db.count(rel)
        allowed = len(exact) + sum(1 for k in optional if not _present(db, rel, k))
        if removed > allowed:
            over.append(rel)
        elif removed < allowed or any(_present(db, rel, k) for k in exact):
            under.append(rel)
        index = db.index_on(rel, PRIMARY_KEYS[rel])
        for key, values in added.items():
            rowids = index.lookup(key)
            if len(rowids) != 1 or any(
                db.table(rel).get(next(iter(rowids)))[c] != v for c, v in values.items()
            ):
                wrong.append(rel)
                break
    causes = [f"{what} of {', '.join(rels)}" for what, rels in
              (("over-delete", over), ("under-delete", under), ("wrong insert", wrong)) if rels]
    return "; ".join(causes)


def verify_planned(report, update: Update, base: Base) -> str:
    """A read-only check: the outcome and the planned tuple operations."""
    if report.outcome is not update.expect:
        return f"outcome {report.outcome.value} (expected {update.expect.value})"
    if report.outcome is not Outcome.TRANSLATED:
        return ""
    deleted: dict = {}
    inserted: dict = {}
    for op in report.data.planned_ops:
        if isinstance(op, TupleDelete):
            keys = deleted.setdefault(op.relation, set())
            keys.update(base.key_of[op.relation][rowid] for rowid in op.rowids)
        elif isinstance(op, TupleInsert) and op.role != "skip":
            key = tuple(op.values[c] for c in PRIMARY_KEYS[op.relation])
            inserted.setdefault(op.relation, {})[key] = op.values
        elif isinstance(op, TupleUpdate):
            return f"unexpected update of {op.relation}"
    if deleted != {r: set(k) for r, k in update.effect.deleted.items()}:
        return "wrong planned deletes"
    expected = update.effect.inserted
    if set(inserted) != set(expected) or any(
        set(inserted[r]) != set(expected[r])
        or any(inserted[r][k][c] != v for k, row in expected[r].items()
               for c, v in row.items())
        for r in expected
    ):
        return "wrong planned inserts"
    return ""


# ---------------------------------------------------------------------------
# update texts
# ---------------------------------------------------------------------------

def insert_lineitem(order: int, line, quantity: int, price: float) -> str:
    return f"""FOR $o IN document("TpchView.xml")/region/nation/customer/order
WHERE $o/o_orderkey/text() = "{order}"
UPDATE $o {{ INSERT <lineitem><l_orderkey>{order}</l_orderkey><l_linenumber>{line}</l_linenumber><l_quantity>{quantity}</l_quantity><l_extendedprice>{price:.2f}</l_extendedprice></lineitem> }}"""


def delete_by_key(relation: str, key: int) -> str:
    path = "/".join(tpch._ELEMENT_PATHS[relation])
    return f"""FOR $root IN document("TpchView.xml"), $x IN $root/{path}
WHERE $x/{tpch._KEY_TAGS[relation]}/text() = "{key}"
UPDATE $root {{ DELETE $x }}"""


def delete_lineitem(order: int, line: int) -> str:
    return f"""FOR $root IN document("TpchView.xml"), $l IN $root/region/nation/customer/order/lineitem
WHERE $l/l_orderkey/text() = "{order}" AND $l/l_linenumber/text() = "{line}"
UPDATE $root {{ DELETE $l }}"""


def delete_bush_customers(nation_name: str) -> str:
    return f"""FOR $c IN document("TpchBush.xml")/customer
WHERE $c/n_name/text() = "{nation_name}"
UPDATE $c {{ DELETE $c }}"""


def delete_customer_named(name: str) -> str:
    return f"""FOR $root IN document("TpchView.xml"), $c IN $root/region/nation/customer
WHERE $c/c_name/text() = "{name}"
UPDATE $root {{ DELETE $c }}"""


def _lineitem_values(order: int, line: int, quantity: int, price: float) -> dict:
    return {"l_orderkey": order, "l_linenumber": line,
            "l_quantity": quantity, "l_extendedprice": float(f"{price:.2f}")}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A round of updates on the seeded TPC-H database, with its base
    model and the loop that times the round update by update."""

    name = ""
    classes: tuple = ()

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.db = None
        #: seconds the program spent being set up: data build, analyze,
        #: view compile and marking, warm-up; the benchmark's own row
        #: model and update generation are left out
        self.setup_seconds = 0.0

    @contextmanager
    def program(self):
        """Time a set-up step made by the program."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.setup_seconds += time.perf_counter() - start

    def build(self) -> None:
        scale = tpch.scale_rows(SMOKE_SCALE if self.smoke else FULL_SCALE)
        with self.program():
            self.db = tpch.build_tpch_database(scale, seed=self.seed)
            self.db.analyze()
        self.base = Base(self.db)
        self.rng = random.Random(self.seed)

    def checkers(self) -> list:
        """The UFilter instances the workload checks through."""
        raise NotImplementedError

    def probe_caches(self) -> list:
        return []

    def begin_round(self) -> None:
        pass

    def end_round(self, tally: Tally) -> None:
        pass

    def one(self, update: Update, tally: Tally) -> float:
        """Send one update, verify it; returns its timed seconds."""
        raise NotImplementedError

    def warm_up(self) -> None:
        tally = Tally()
        with self.program():
            self.begin_round()
        for update in self.round[:self.warm_up_updates]:
            self.setup_seconds += self.one(update, tally)
        self.end_round(tally)

    def run_round(self, tally: Tally, tracer=None) -> None:
        """Send the round's updates, each timed on its own."""
        self.begin_round()
        latencies = []
        for update in self.round:
            if tracer is not None:
                tracer.request += 1
            latencies.append((update.cls, self.one(update, tally)))
        tally.attempted += len(latencies)
        tally.rounds.append(latencies)
        self.end_round(tally)


class _PoolWorkload(Workload):
    """The round is a pool of cycles, one update per class each, always
    in the order of ``classes``: a class's cost depends on what ran
    before it (a rollback leaves statistics and plans to rebuild), so a
    fixed order keeps each class one shape in one context."""

    cycles = (0, 0)

    @property
    def warm_up_updates(self) -> int:
        return len(self.classes)

    def setup(self) -> None:
        self.build()
        self.compile()
        self.round = []
        for _ in range(self.cycles[self.smoke]):
            self.round.extend(self.generate(cls) for cls in self.classes)


class CheckWorkload(_PoolWorkload):
    """A read-only checking service: one UFilter per view, outside
    strategy, nothing executed."""

    name = "check"
    classes = ("insert", "delete", "conflict", "untranslatable", "invalid")
    cycles = (1000, 40)

    def compile(self) -> None:
        with self.program():
            self.linear = UFilter(self.db, tpch.v_linear())
            self.fail = UFilter(self.db, tpch.v_fail("region"))
        self.orders = sorted(self.base.rows["orders"])
        self.regions = sorted(self.base.rows["region"])
        self.versions = dict(self.db.data_versions)

    def checkers(self) -> list:
        return [self.linear, self.fail]

    def generate(self, cls: str) -> Update:
        rng = self.rng
        (order,) = rng.choice(self.orders)
        if cls == "insert":
            line, quantity, price = 4 + rng.randrange(1000), rng.randint(1, 50), rng.uniform(10, 9000)
            return Update(cls, insert_lineitem(order, line, quantity, price), Outcome.TRANSLATED,
                          Effect(inserted={"lineitem": {(order, line): _lineitem_values(order, line, quantity, price)}}))
        if cls == "delete":
            return Update(cls, delete_by_key("orders", order), Outcome.TRANSLATED,
                          Effect(deleted={"orders": frozenset({(order,)})}))
        if cls == "conflict":
            return Update(cls, insert_lineitem(order, 1, rng.randint(1, 50), rng.uniform(10, 9000)),
                          Outcome.DATA_CONFLICT)
        if cls == "untranslatable":
            (region,) = rng.choice(self.regions)
            return Update(cls, delete_by_key("region", region), Outcome.UNTRANSLATABLE)
        line = f"x{4 + rng.randrange(1000)}"
        return Update(cls, insert_lineitem(order, line, rng.randint(1, 50), 100.0), Outcome.INVALID)

    def one(self, update: Update, tally: Tally) -> float:
        checker = self.fail if update.cls == "untranslatable" else self.linear
        start = time.perf_counter()
        try:
            report = checker.check(update.text, strategy="outside")
        except Exception as exc:  # a crash is a failed update, not a dead run
            report, cause = None, f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if report is not None:
            cause = verify_planned(report, update, self.base)
        if cause:
            tally.fail(update, cause)
        return seconds

    def end_round(self, tally: Tally) -> None:
        if dict(self.db.data_versions) != self.versions or any(
            self.db.count(rel) != self.base.counts[rel] for rel in RELATIONS
        ):
            tally.invariant_errors.add("a read-only check changed the database")


class BulkWorkload(_PoolWorkload):
    """Fig. 16/17 subtree deletes, each executed between begin and
    rollback so every update sees the seeded state."""

    name = "bulk"
    classes = ("delete", "bush_delete", "noop")
    cycles = (35, 10)

    def compile(self) -> None:
        with self.program():
            self.linear = UFilter(self.db, tpch.v_linear())
            self.bush = UFilter(self.db, tpch.v_bush())
        self.nations = sorted(self.base.rows["nation"])
        self.effects: dict = {}

    def checkers(self) -> list:
        return [self.linear, self.bush]

    def generate(self, cls: str) -> Update:
        rng = self.rng
        nation = rng.choice(self.nations)
        if cls == "delete":
            return Update(cls, delete_by_key("nation", nation[0]), Outcome.TRANSLATED,
                          self._effect(cls, nation))
        if cls == "bush_delete":
            name = self.base.rows["nation"][nation]["n_name"]
            return Update(cls, delete_bush_customers(name), Outcome.TRANSLATED,
                          self._effect(cls, nation))
        name = f"No Such Customer #{rng.randrange(10**6)}"
        return Update(cls, delete_customer_named(name), Outcome.TRANSLATED)

    def _effect(self, cls: str, nation: tuple) -> Effect:
        """Rows the delete must remove.  On Vbush, nation and region are
        context joined into each customer element: a context row may go
        only when no surviving row references it."""
        if (cls, nation) not in self.effects:
            subtree = self.base.subtree("nation", nation)
            if cls == "delete":
                effect = Effect(deleted=subtree)
            else:
                region = (self.base.rows["nation"][nation]["n_regionkey"],)
                optional = {"nation": frozenset({nation})}
                if self.base.children["nation"].get(region) == [nation]:
                    optional["region"] = frozenset({region})
                deleted = {r: k for r, k in subtree.items() if r != "nation"}
                effect = Effect(deleted=deleted, optional=optional)
            self.effects[(cls, nation)] = effect
        return self.effects[(cls, nation)]

    def one(self, update: Update, tally: Tally) -> float:
        """Times begin -> check -> rollback, minus the verification made
        between the check and the rollback."""
        db = self.db
        checker = self.bush if update.cls == "bush_delete" else self.linear
        strategy = "outside" if update.cls == "bush_delete" else "hybrid"
        clock = time.perf_counter
        start = clock()
        db.begin()
        try:
            report = checker.check(update.text, strategy=strategy, execute=True,
                                   expand_cascades=True)
        except Exception as exc:  # a crash is a failed update, not a dead run
            report, cause = None, f"exception {type(exc).__name__}: {exc}"
        checked = clock()
        if report is not None:
            if report.outcome is not update.expect:
                cause = f"outcome {report.outcome.value} (expected {update.expect.value})"
            else:
                cause = verify_applied(db, self.base.counts, update.effect)
        verified = clock()
        db.rollback()
        seconds = (checked - start) + (clock() - verified)
        if any(db.count(rel) != self.base.counts[rel] for rel in RELATIONS):
            tally.invariant_errors.add("rollback did not restore the seeded rows")
        if cause:
            tally.fail(update, cause)
        return seconds


class StreamWorkload(Workload):
    """One long-lived UpdateSession over Vlinear with an in-memory
    journal: each update is its own interleaved, non-atomic execute.

    The round is one session of a fixed update sequence.  After it, the
    rows the stream left behind are deleted again (outside timing), so
    every session starts from the seeded rows and a run is a whole
    number of identical sessions.
    """

    name = "stream"
    classes = ("insert", "delete", "conflict")
    #: updates per session, and of them warm-up, full size and smoke
    session_lengths = (2400, 60)
    warm_up_lengths = (150, 20)
    #: Zipf exponent of the order-key skew
    ZIPF = 1.0
    #: shares of insert and delete draws; the rest are conflicts
    INSERTS, DELETES = 0.4, 0.4

    @property
    def warm_up_updates(self) -> int:
        return self.warm_up_lengths[self.smoke]

    def setup(self) -> None:
        self.build()
        with self.program():
            self.db.attach_wal()   # in memory: barriers are counted, never fsynced
            self.store = ASGStore()
            self.view = tpch.v_linear()
        self.session = None
        self.round = self._generate(self.session_lengths[self.smoke])

    def checkers(self) -> list:
        return [self.session.ufilter]

    def probe_caches(self) -> list:
        return [self.session.cache]

    def _generate(self, count: int) -> list:
        rng = self.rng
        orders = [key for (key,) in sorted(self.base.rows["orders"])]
        rng.shuffle(orders)   # popularity rank -> order key
        weights, total = [], 0.0
        for rank in range(len(orders)):
            total += 1.0 / (rank + 1) ** self.ZIPF
            weights.append(total)

        def hot() -> int:
            return orders[bisect.bisect_left(weights, rng.random() * total)]

        updates, live, next_line = [], [], {}
        for _ in range(count):
            draw = rng.random()
            writes = self.INSERTS + self.DELETES
            if draw < self.INSERTS or (draw < writes and not live):
                order = hot()
                line = next_line.get(order, 4)
                next_line[order] = line + 1
                quantity, price = rng.randint(1, 50), rng.uniform(10, 9000)
                live.append((order, line))
                updates.append(Update("insert", insert_lineitem(order, line, quantity, price), "applied",
                                      Effect(inserted={"lineitem": {(order, line): _lineitem_values(order, line, quantity, price)}})))
            elif draw < writes:
                slot = rng.randrange(len(live))
                live[slot], live[-1] = live[-1], live[slot]
                order, line = live.pop()
                updates.append(Update("delete", delete_lineitem(order, line), "applied",
                                      Effect(deleted={"lineitem": frozenset({(order, line)})})))
            else:
                order = hot()
                updates.append(Update("conflict", insert_lineitem(order, 1, rng.randint(1, 50), 100.0),
                                      "rejected"))
        return updates

    def begin_round(self) -> None:
        self.session = UpdateSession(self.db, self.view, asg_store=self.store)
        self.counts = {rel: self.db.count(rel) for rel in RELATIONS}
        self.live: set = set()

    def one(self, update: Update, tally: Tally) -> float:
        db = self.db
        start = time.perf_counter()
        try:
            result = self.session.execute([update.text], mode="interleaved", atomic=False)
            status = result.entries[0].status
        except Exception as exc:  # a crash is a failed update, not a dead run
            status = f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if status != update.expect:
            tally.fail(update, f"status {status} (expected {update.expect})")
        else:
            cause = verify_applied(db, self.counts, update.effect)
            if cause:
                tally.fail(update, cause)
        self.counts = {rel: db.count(rel) for rel in RELATIONS}
        self.live.update(update.effect.inserted.get("lineitem", ()))
        self.live.difference_update(update.effect.deleted.get("lineitem", ()))
        return seconds

    def end_round(self, tally: Tally) -> None:
        """Check the lineitem set against the model, then delete what
        the session inserted and left behind."""
        db = self.db
        expected = set(self.base.rows["lineitem"]) | self.live
        actual = {(row["l_orderkey"], row["l_linenumber"]) for _, row in db.table("lineitem").scan()}
        if actual != expected:
            tally.invariant_errors.add(
                f"final lineitem set differs from the model "
                f"({len(actual - expected)} extra, {len(expected - actual)} missing)"
            )
        index = db.index_on("lineitem", PRIMARY_KEYS["lineitem"])
        leftovers = sorted(rowid for key in sorted(self.live) for rowid in index.lookup(key))
        if leftovers:
            db.delete("lineitem", leftovers)
        db.deltas.take()
        if any(db.count(rel) != self.base.counts[rel] for rel in RELATIONS):
            tally.invariant_errors.add("the session reset did not restore the seeded rows")


WORKLOADS = {w.name: w for w in (CheckWorkload, StreamWorkload, BulkWorkload)}
