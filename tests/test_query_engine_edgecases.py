"""Edge-case and regression tests for previously untested engine corners.

* ``FirstBefore`` moved from a per-patient Python dict/sort to one
  vectorized pass; a regression test pins the new output against the
  old implementation verbatim.
* ``CountAtLeast(minimum=0)`` (rejected at construction), ``AgeRange``
  at exact boundary ages, and ``SexIs`` on a patient-less store were
  untested corners.
"""

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
    EventOr,
    FirstBefore,
    HasEvent,
    SexIs,
)
from repro.query.engine import QueryEngine
from tests.naive_engine import NaiveEngine


def _first_before_legacy(engine, expr: FirstBefore) -> np.ndarray:
    """The pre-planner implementation (per-patient dict + Python sort),
    kept verbatim as the regression oracle."""
    store = engine.store
    first = store.first_day_per_patient(engine.event_mask(expr.expr))
    return np.asarray(
        sorted(pid for pid, day in first.items() if day <= expr.day),
        dtype=np.int64,
    )


class TestFirstBeforeRegression:
    @pytest.mark.parametrize("engine_cls", [QueryEngine, NaiveEngine],
                             ids=["planned", "naive"])
    def test_matches_legacy_implementation(self, small_store, engine_cls):
        engine = engine_cls(small_store)
        day_lo = int(small_store.day.min())
        day_hi = int(small_store.day.max())
        cutoffs = [day_lo - 1, day_lo, (day_lo + day_hi) // 2, day_hi,
                   day_hi + 1]
        exprs = [
            Concept("T90"),
            Category("gp_contact"),
            EventOr((Category("hospital_stay"), CodeMatch("ICPC-2", "K8."))),
            Category("no_such_category"),
        ]
        for event_expr in exprs:
            for cutoff in cutoffs:
                expr = FirstBefore(event_expr, cutoff)
                got = engine.patients(expr)
                expected = _first_before_legacy(engine, expr)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected), (expr, cutoff)

    def test_cutoff_before_everything_is_empty(self, small_engine):
        cutoff = int(small_engine.store.day.min()) - 10
        ids = small_engine.patients(FirstBefore(Category("gp_contact"),
                                                cutoff))
        assert len(ids) == 0

    def test_no_matching_events_is_empty_int64(self, small_engine):
        ids = small_engine.patients(
            FirstBefore(Category("no_such_category"), 20_000)
        )
        assert len(ids) == 0
        assert ids.dtype == np.int64


class TestCountAtLeastEdges:
    def test_minimum_zero_rejected_at_construction(self):
        # "at least 0 events" matches everyone vacuously — the AST
        # rejects it so a query always states a real threshold.
        with pytest.raises(QueryError):
            CountAtLeast(Category("gp_contact"), 0)
        with pytest.raises(QueryError):
            CountAtLeast(Category("gp_contact"), -1)

    def test_minimum_one_equals_has_event(self, small_engine):
        at_least_one = small_engine.patients(
            CountAtLeast(Category("gp_contact"), 1)
        )
        has = small_engine.patients(HasEvent(Category("gp_contact")))
        assert np.array_equal(at_least_one, has)

    def test_huge_minimum_matches_nobody(self, small_engine):
        ids = small_engine.patients(
            CountAtLeast(Category("gp_contact"), 10_000)
        )
        assert len(ids) == 0


def _demographic_store():
    """Patients whose ages at day 36,525 are exactly 100, 40 and ~0."""
    builder = EventStoreBuilder()
    # age = (at_day - birth_day) / 365.25; pick birth days that divide
    # exactly so the boundary comparison is not a float coin toss.
    builder.add_patient(1, birth_day=0, sex="F")            # age 100.0
    builder.add_patient(2, birth_day=21_915, sex="M")       # age 40.0
    builder.add_patient(3, birth_day=36_525, sex="F")       # age 0.0
    return builder.build()


class TestAgeRangeBoundaries:
    AT = 36_525  # 100 * 365.25

    @pytest.mark.parametrize("engine_cls", [QueryEngine, NaiveEngine],
                             ids=["planned", "naive"])
    def test_boundaries_inclusive(self, engine_cls):
        engine = engine_cls(_demographic_store())
        at = self.AT
        # Exact lower and upper bounds both include the boundary age.
        assert engine.patients(AgeRange(100.0, 120.0, at)).tolist() == [1]
        assert engine.patients(AgeRange(0.0, 100.0, at)).tolist() == [1, 2, 3]
        assert engine.patients(AgeRange(40.0, 100.0, at)).tolist() == [1, 2]
        assert engine.patients(AgeRange(0.0, 0.0, at)).tolist() == [3]

    def test_just_outside_boundary_excluded(self):
        engine = QueryEngine(_demographic_store())
        at = self.AT
        assert engine.patients(AgeRange(100.001, 120.0, at)).tolist() == []
        assert engine.patients(AgeRange(40.0, 99.999, at)).tolist() == [2]

    def test_degenerate_range_equals_exact_age(self):
        engine = QueryEngine(_demographic_store())
        assert engine.patients(AgeRange(40.0, 40.0, self.AT)).tolist() == [2]

    def test_empty_range_rejected(self):
        with pytest.raises(QueryError):
            AgeRange(50.0, 40.0, self.AT)


class TestEmptyStore:
    @pytest.fixture()
    def empty_engine(self):
        return QueryEngine(EventStoreBuilder().build())

    @pytest.mark.parametrize("sex", ["F", "M", "U"])
    def test_sex_is_on_no_patients(self, empty_engine, sex):
        ids = empty_engine.patients(SexIs(sex))
        assert len(ids) == 0
        assert ids.dtype == np.int64

    def test_age_range_on_no_patients(self, empty_engine):
        assert len(empty_engine.patients(AgeRange(0, 120, 20_000))) == 0

    def test_event_queries_on_no_events(self, empty_engine):
        assert len(empty_engine.patients(HasEvent(Category("x")))) == 0
        assert len(empty_engine.patients(CountAtLeast(Category("x"), 1))) == 0
        assert empty_engine.selectivity(SexIs("F")) == 0.0

    def test_sex_is_on_events_but_single_patient(self):
        builder = EventStoreBuilder()
        builder.add_patient(5, birth_day=-5_000, sex="M")
        engine = QueryEngine(builder.build())
        assert engine.patients(SexIs("M")).tolist() == [5]
        assert engine.patients(SexIs("F")).tolist() == []


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
