"""Unit tests for the query planner, the LRU result cache and explain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
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
    TimeWindow,
)
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.planner import (
    AllEvents,
    AllPatients,
    EmptyEvents,
    NoPatients,
    SelectivityEstimator,
    normalize_event,
    normalize_patient,
    plan_query,
)
from tests.naive_engine import NaiveEngine

_A = Category("gp_contact")
_B = Category("hospital_stay")
_C = Category("blood_pressure")
_PA = SexIs("F")
_PB = HasEvent(_A)
_PC = AgeRange(40, 90, 15_700)


class TestNormalization:
    def test_flattens_nested_and(self):
        nested = EventAnd((EventAnd((_A, _B)), _C))
        flat = normalize_event(nested)
        assert isinstance(flat, EventAnd)
        assert set(flat.children) == {_A, _B, _C}

    def test_commuted_queries_share_one_plan_key(self):
        left = PatientAnd((_PA, PatientAnd((_PB, _PC))))
        right = PatientAnd((PatientAnd((_PC, _PA)), _PB))
        assert plan_query(left).key == plan_query(right).key

    def test_duplicate_children_deduped(self):
        assert normalize_event(EventAnd((_A, _A))) == _A
        assert normalize_patient(PatientOr((_PA, _PA))) == _PA

    def test_double_negation_cancels(self):
        assert normalize_event(EventNot(EventNot(_A))) == _A
        assert normalize_patient(PatientNot(PatientNot(_PA))) == _PA

    def test_de_morgan_pushes_not_to_leaves(self):
        norm = normalize_event(EventNot(EventAnd((_A, _B))))
        assert isinstance(norm, EventOr)
        assert set(norm.children) == {EventNot(_A), EventNot(_B)}
        norm = normalize_patient(PatientNot(PatientOr((_PA, _PB))))
        assert isinstance(norm, PatientAnd)
        assert set(norm.children) == {PatientNot(_PA), PatientNot(_PB)}

    def test_contradiction_folds_empty(self):
        assert normalize_event(EventAnd((_A, EventNot(_A)))) == EmptyEvents()
        assert normalize_patient(
            PatientAnd((_PA, PatientNot(_PA)))
        ) == NoPatients()

    def test_tautology_folds_universal(self):
        assert normalize_event(EventOr((_A, EventNot(_A)))) == AllEvents()
        assert normalize_patient(
            PatientOr((_PA, PatientNot(_PA)))
        ) == AllPatients()

    def test_empty_terms_propagate(self):
        empty = EventAnd((_A, EventNot(_A)))  # folds to EmptyEvents
        assert normalize_patient(HasEvent(empty)) == NoPatients()
        assert normalize_patient(CountAtLeast(empty, 3)) == NoPatients()
        assert normalize_patient(FirstBefore(empty, 15_000)) == NoPatients()
        # ... and through the boolean layer above.
        assert normalize_patient(
            PatientAnd((_PA, HasEvent(empty)))
        ) == NoPatients()
        assert normalize_patient(
            PatientOr((_PA, HasEvent(empty)))
        ) == _PA

    def test_has_event_of_universal_is_not_all_patients(self):
        # A patient with zero events is in the store but has no row.
        universal = EventOr((_A, EventNot(_A)))
        norm = normalize_patient(HasEvent(universal))
        assert norm == HasEvent(AllEvents())

    def test_event_expr_implicitly_wrapped(self):
        assert normalize_patient(_A) == HasEvent(_A)

    def test_unknown_nodes_rejected(self):
        class Weird:
            pass

        with pytest.raises(QueryError):
            plan_query(Weird())  # type: ignore[arg-type]


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache(max_entries=4)
        key = ("tok", "mask", "k")
        assert cache.get(key) is None
        stored = cache.put(key, np.arange(5))
        assert cache.get(key) is stored
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_entries_are_read_only(self):
        cache = QueryCache()
        array = cache.put(("t", "patients", "k"), np.arange(3, dtype=np.int64))
        with pytest.raises(ValueError):
            array[0] = 99

    def test_lru_eviction_by_entries(self):
        cache = QueryCache(max_entries=2)
        keys = [("t", "mask", str(i)) for i in range(3)]
        cache.put(keys[0], np.zeros(1))
        cache.put(keys[1], np.zeros(1))
        cache.get(keys[0])  # refresh 0 so 1 is the LRU victim
        cache.put(keys[2], np.zeros(1))
        assert keys[0] in cache and keys[2] in cache
        assert keys[1] not in cache
        assert cache.stats.evictions == 1

    def test_eviction_by_bytes(self):
        cache = QueryCache(max_entries=100, max_bytes=100)
        cache.put(("t", "mask", "a"), np.zeros(10, dtype=np.float64))  # 80 B
        cache.put(("t", "mask", "b"), np.zeros(10, dtype=np.float64))
        assert len(cache) == 1
        assert cache.nbytes <= 100

    def test_oversized_entry_still_cached(self):
        cache = QueryCache(max_entries=4, max_bytes=8)
        key = ("t", "mask", "big")
        cache.put(key, np.zeros(100))
        assert key in cache

    def test_stats_dict_shape(self):
        stats = QueryCache().stats_dict()
        assert set(stats) == {
            "hits", "misses", "evictions", "hit_rate", "entries", "bytes",
            "max_entries", "max_bytes",
        }


class TestEngineIntegration:
    def test_repeated_query_hits_cache(self, small_store):
        engine = QueryEngine(small_store)
        query = PatientAnd((_PB, _PA))
        first = engine.patients(query)
        hits_before = engine.cache.stats.hits
        second = engine.patients(query)
        assert np.array_equal(first, second)
        assert engine.cache.stats.hits > hits_before

    def test_refinement_reuses_shared_subtrees(self, small_store):
        engine = QueryEngine(small_store)
        engine.patients(PatientAnd((_PB, _PA)))
        misses_before = engine.cache.stats.misses
        # The refinement shares both children; only the new conjunction
        # and the added clause are fresh work.
        engine.patients(PatientAnd((_PB, _PA, _PC)))
        fresh = engine.cache.stats.misses - misses_before
        assert fresh <= 3

    def test_shared_cache_across_stores_is_safe(self, small_store):
        other = EventStoreBuilder()
        other.add_patient(1, birth_day=-10_000, sex="M")
        other.add_event(1, 15_400, "gp_contact", source="gp_claim")
        other_store = other.build()
        shared = QueryCache()
        engine_a = QueryEngine(small_store, cache=shared)
        engine_b = QueryEngine(other_store, cache=shared)
        ids_a = engine_a.patients(_PB)
        ids_b = engine_b.patients(_PB)
        assert ids_b.tolist() == [1]
        assert not np.array_equal(ids_a, ids_b)
        assert small_store.content_token() != other_store.content_token()

    def test_content_token_memoized_and_content_addressed(self, small_store):
        assert small_store.content_token() == small_store.content_token()
        builder = EventStoreBuilder()
        builder.add_patient(1, birth_day=-10_000, sex="M")
        a = builder.build()
        builder.add_event(1, 15_400, "gp_contact", source="gp_claim")
        b = builder.build()
        assert a.content_token() != b.content_token()

    def test_planned_first_before_matches_naive(self, small_store):
        planned = QueryEngine(small_store)
        naive = NaiveEngine(small_store)
        expr = FirstBefore(Concept("T90"), 15_500)
        assert np.array_equal(planned.patients(expr), naive.patients(expr))

    def test_event_and_orders_by_selectivity(self, small_store):
        # Evaluating the rare clause first must not change the mask.
        planned = QueryEngine(small_store)
        naive = NaiveEngine(small_store)
        expr = EventAnd((_A, TimeWindow(15_400, 15_410),
                         CodeMatch("ICPC-2", "T90")))
        assert np.array_equal(planned.event_mask(expr),
                              naive.event_mask(expr))

    def test_explain_mentions_cache_state(self, small_store):
        engine = QueryEngine(small_store)
        query = PatientAnd((_PB, _PA))
        before = engine.explain(query)
        assert "[cached]" not in before
        engine.patients(query)
        after = engine.explain(query)
        assert "[cached]" in after
        assert "est=" in after
        assert "plan for:" in after

    def test_cache_stats_payload(self, small_store):
        engine = QueryEngine(small_store)
        engine.patients(_PA)
        payload = engine.cache_stats()
        assert set(payload) == set(engine.cache.stats_dict())
        assert payload["misses"] >= 1


class TestSelectivityEstimator:
    def test_estimates_bounded(self, small_store):
        estimator = SelectivityEstimator(small_store)
        exprs = [
            _A, EventNot(_A), EventAnd((_A, _B)), EventOr((_A, _B)),
            CodeMatch("ICPC-2", "T90"), Concept("T90"),
            TimeWindow(15_000, 16_000),
        ]
        for expr in exprs:
            assert 0.0 <= estimator.event(expr) <= 1.0
        for expr in [_PA, _PB, _PC, PatientNot(_PA),
                     CountAtLeast(_A, 3), FirstBefore(_A, 15_500)]:
            assert 0.0 <= estimator.patient(expr) <= 1.0

    def test_rarer_category_estimates_lower(self, small_store):
        estimator = SelectivityEstimator(small_store)
        common = estimator.event(Category("gp_contact"))
        missing = estimator.event(Category("no_such_category"))
        assert missing == 0.0
        assert common > 0.0

    def test_sex_estimate_exact(self, small_store):
        estimator = SelectivityEstimator(small_store)
        exact = (small_store.sexes == 1).mean()
        assert estimator.patient(SexIs("F")) == pytest.approx(exact)

    def test_empty_store_estimates_zero(self):
        store = EventStoreBuilder().build()
        estimator = SelectivityEstimator(store)
        assert estimator.event(_A) == 0.0
        assert estimator.patient(_PA) == 0.0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
