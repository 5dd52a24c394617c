"""Differential property harness: planned evaluation ≡ naive evaluation.

An optimizer that silently changes results is worse than a slow one, so
this suite *proves* the planner's rewrites (flattening, canonical child
order, De Morgan push-down, constant folding) and its memoized
evaluation order are observationally equivalent to the naive recursive
engine: a seeded generator produces thousands of random ASTs spanning
all 17 query node types, and every one must return bit-identical
patient arrays from both engines — on a normal store, an empty store
and a single-patient store.  The naive engine is
:class:`tests.naive_engine.NaiveEngine`.

This complements ``tests/test_query_property.py`` (naive engine vs a
``History``-object reference interpreter): together they chain
planned ≡ naive ≡ object-model semantics.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.events.store import EventStoreBuilder
from repro.query.ast import (
    AgeRange,
    Category,
    CodeMatch,
    Concept,
    CountAtLeast,
    EventAnd,
    EventNot,
    EventOr,
    FirstBefore,
    HasEvent,
    PatientAnd,
    PatientNot,
    PatientOr,
    SexIs,
    Source,
    TimeWindow,
    ValueRange,
)
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.planner import plan_query
from repro.simulate.fast import generate_store_fast
from tests.naive_engine import NaiveEngine

#: Every node type of the query AST; the generator must cover them all.
ALL_NODE_TYPES = (
    CodeMatch, Concept, Category, Source, ValueRange, TimeWindow,
    EventAnd, EventOr, EventNot,
    HasEvent, CountAtLeast, AgeRange, SexIs, FirstBefore,
    PatientAnd, PatientOr, PatientNot,
)
assert len(ALL_NODE_TYPES) == 17

_CODE_PATTERNS = [
    ("ICPC-2", "T90"), ("ICPC-2", "K8."), ("ICPC-2", "F.*|H.*"),
    ("ICPC-2", "ZZZ"), ("ICD-10", "E1[14]"), ("ICD-10", "I1.*"),
    ("ATC", "C07.*"), ("ATC", "A10.*"),
]
_CONCEPTS = ["T90", "K86", "K87", "P76", "R96"]
_CATEGORIES = [
    "gp_contact", "hospital_stay", "blood_pressure", "prescription",
    "diagnosis", "no_such_category",
]
_SOURCES = ["gp_claim", "hospital_inpatient", "municipal_home_care",
            "no_such_source"]


class QueryGenerator:
    """A seeded random AST generator spanning all 17 node types."""

    def __init__(self, seed: int, day_lo: int, day_hi: int) -> None:
        self.rng = random.Random(seed)
        self.day_lo = day_lo
        self.day_hi = day_hi

    def _day(self) -> int:
        return self.rng.randint(self.day_lo, self.day_hi)

    def event_atom(self):
        choice = self.rng.randrange(6)
        if choice == 0:
            return CodeMatch(*self.rng.choice(_CODE_PATTERNS))
        if choice == 1:
            return Concept(self.rng.choice(_CONCEPTS))
        if choice == 2:
            return Category(self.rng.choice(_CATEGORIES))
        if choice == 3:
            return Source(self.rng.choice(_SOURCES))
        if choice == 4:
            low = self.rng.uniform(50.0, 180.0)
            return ValueRange(low, low + self.rng.uniform(0.0, 120.0))
        first = self._day()
        return TimeWindow(first, self.rng.randint(first, self.day_hi))

    def event_expr(self, depth: int):
        if depth <= 0:
            return self.event_atom()
        choice = self.rng.randrange(5)
        if choice == 0:
            return self.event_atom()
        if choice == 1:
            return EventNot(self.event_expr(depth - 1))
        children = tuple(
            self.event_expr(depth - 1)
            for __ in range(self.rng.randint(2, 3))
        )
        return EventAnd(children) if choice in (2, 3) else EventOr(children)

    def patient_atom(self):
        choice = self.rng.randrange(5)
        if choice == 0:
            return HasEvent(self.event_expr(self.rng.randint(0, 2)))
        if choice == 1:
            return CountAtLeast(
                self.event_expr(self.rng.randint(0, 1)),
                self.rng.randint(1, 6),
            )
        if choice == 2:
            return FirstBefore(
                self.event_expr(self.rng.randint(0, 1)), self._day()
            )
        if choice == 3:
            low = self.rng.uniform(0.0, 80.0)
            return AgeRange(
                low, low + self.rng.uniform(0.0, 60.0), self._day()
            )
        return SexIs(self.rng.choice(["F", "M", "U"]))

    def patient_expr(self, depth: int):
        if depth <= 0:
            return self.patient_atom()
        choice = self.rng.randrange(5)
        if choice == 0:
            return self.patient_atom()
        if choice == 1:
            return PatientNot(self.patient_expr(depth - 1))
        children = tuple(
            self.patient_expr(depth - 1)
            for __ in range(self.rng.randint(2, 3))
        )
        return (
            PatientAnd(children) if choice in (2, 3) else PatientOr(children)
        )


def _store_small():
    store, __ = generate_store_fast(250, seed=11)
    return store


def _store_single():
    builder = EventStoreBuilder()
    builder.add_patient(7, birth_day=-9000, sex="F")
    builder.add_event(7, 15_400, "gp_contact", code="T90", system="ICPC-2",
                      source="gp_claim")
    builder.add_event(7, 15_410, "blood_pressure", value=150.0,
                      source="gp_claim")
    builder.add_event(7, 15_420, "hospital_stay", end=15_430,
                      code="E11", system="ICD-10", source="hospital_inpatient")
    return builder.build()


def _store_empty():
    return EventStoreBuilder().build()


_STORES = {
    "small": _store_small(),
    "single": _store_single(),
    "empty": _store_empty(),
}

#: (store name, generator seed, number of generated queries).  The small
#: store carries the bulk (the acceptance criterion's >= 2000 cases);
#: degenerate stores re-run a smaller corpus.
_RUNS = [("small", 2016, 2000), ("single", 77, 300), ("empty", 99, 300)]


def _generated_corpus(store, seed: int, count: int):
    day_lo = int(store.day.min()) if store.n_events else 15_000
    day_hi = int(store.day.max()) if store.n_events else 16_000
    gen = QueryGenerator(seed, day_lo, day_hi)
    return [gen.patient_expr(gen.rng.randint(0, 3)) for __ in range(count)]


@pytest.mark.parametrize("store_name,seed,count", _RUNS,
                         ids=[r[0] for r in _RUNS])
def test_planned_equals_naive(store_name, seed, count):
    store = _STORES[store_name]
    planned = QueryEngine(store)
    naive = NaiveEngine(store)
    for i, query in enumerate(_generated_corpus(store, seed, count)):
        fast = planned.patients(query)
        slow = naive.patients(query)
        assert np.array_equal(fast, slow), (
            f"case {i} on {store_name} store diverged: planned "
            f"{len(fast)} vs naive {len(slow)} patients for {query!r} "
            f"(plan: {plan_query(query).key})"
        )


def test_generator_covers_all_17_node_types():
    """The differential corpus genuinely exercises every AST node type."""
    remaining = set(ALL_NODE_TYPES)

    def visit(node):
        remaining.discard(type(node))
        for attr in ("children",):
            for child in getattr(node, attr, ()):
                visit(child)
        for attr in ("child", "expr"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, (str, int, float)):
                visit(child)

    store = _STORES["small"]
    for query in _generated_corpus(store, 2016, 2000):
        visit(query)
    assert not remaining, f"never generated: {remaining}"


def test_warm_cache_results_stay_identical():
    """Re-running a refinement sequence entirely from cache is exact."""
    store = _STORES["small"]
    planned = QueryEngine(store)
    naive = NaiveEngine(store)
    base = HasEvent(Concept("T90"))
    refinements = [
        base,
        PatientAnd((base, CountAtLeast(Category("gp_contact"), 2))),
        PatientAnd((base, CountAtLeast(Category("gp_contact"), 2),
                    SexIs("F"))),
    ]
    first_pass = [planned.patients(q).copy() for q in refinements]
    second_pass = [planned.patients(q) for q in refinements]
    for q, a, b in zip(refinements, first_pass, second_pass):
        assert np.array_equal(a, b)
        assert np.array_equal(a, naive.patients(q))
    assert planned.cache.stats.hits >= len(refinements)


def test_planned_equals_naive_with_tiny_cache():
    """Heavy eviction (a 2-entry LRU) must never change results."""
    store = _STORES["small"]
    planned = QueryEngine(store, cache=QueryCache(max_entries=2))
    naive = NaiveEngine(store)
    for query in _generated_corpus(store, 4242, 150):
        assert np.array_equal(planned.patients(query),
                              naive.patients(query))
    assert planned.cache.stats.evictions > 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
