"""Tests for the columnar event store, including round-trip properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EventModelError
from repro.events.model import Cohort, History, IntervalEvent, PointEvent
from repro.events.store import EventStore, EventStoreBuilder
from repro.temporal.timeline import Interval

_ICPC_CODES = ["T90", "K86", "R96", "A97", "P76"]
_CATEGORIES = ["diagnosis", "gp_contact", "blood_pressure"]


def point_events():
    return st.builds(
        PointEvent,
        day=st.integers(0, 1000),
        category=st.sampled_from(_CATEGORIES),
        code=st.sampled_from(_ICPC_CODES),
        system=st.just("ICPC-2"),
        value=st.one_of(st.none(), st.floats(50, 250).map(
            lambda v: round(v, 1))),
        source=st.sampled_from(["gp_claim", "specialist_claim"]),
        detail=st.sampled_from(["", "note a", "note b"]),
    )


def histories(pid: int):
    return st.builds(
        lambda pts, ivs: History(
            patient_id=pid, birth_day=-5000, sex="F",
            points=pts, intervals=ivs,
        ),
        st.lists(point_events(), max_size=8),
        st.lists(
            st.builds(
                lambda s, d, v: IntervalEvent(
                    Interval(s, s + d), "hospital_stay",
                    value=v, source="hospital_inpatient",
                ),
                st.integers(0, 900), st.integers(1, 60),
                st.one_of(st.none(), st.floats(1, 40).map(
                    lambda v: round(v, 1))),
            ),
            max_size=4,
        ),
    )


class TestBuilder:
    def test_event_before_patient_rejected(self):
        builder = EventStoreBuilder()
        with pytest.raises(EventModelError, match="must be added"):
            builder.add_event(1, 10, "diagnosis")

    def test_conflicting_demographics_rejected(self):
        builder = EventStoreBuilder()
        builder.add_patient(1, 100, "F")
        builder.add_patient(1, 100, "F")  # idempotent
        with pytest.raises(EventModelError, match="conflicting"):
            builder.add_patient(1, 200, "F")

    def test_unknown_system_rejected(self):
        builder = EventStoreBuilder()
        builder.add_patient(1, 0)
        with pytest.raises(EventModelError, match="unknown code system"):
            builder.add_event(1, 10, "diagnosis", code="X", system="SNOMED")

    def test_inverted_interval_rejected(self):
        builder = EventStoreBuilder()
        builder.add_patient(1, 0)
        with pytest.raises(EventModelError, match="must exceed"):
            builder.add_event(1, 10, "hospital_stay", end=5)


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(histories(1), histories(2))
    def test_cohort_roundtrip_preserves_events(self, h1, h2):
        """History -> store -> materialize is the identity (up to sort)."""
        cohort = Cohort([h1, h2])
        store = EventStore.from_cohort(cohort)
        for original in (h1, h2):
            back = store.materialize(original.patient_id)
            assert back.points == original.points
            assert back.intervals == original.intervals
            assert back.birth_day == original.birth_day
            assert back.sex == original.sex

    def test_value_nan_roundtrip(self):
        history = History(
            patient_id=1, birth_day=0,
            points=[PointEvent(day=1, category="blood_pressure",
                               value=None, value2=90.0)],
        )
        back = EventStore.from_cohort(Cohort([history])).materialize(1)
        assert back.points[0].value is None
        assert back.points[0].value2 == 90.0


class TestQueries:
    @pytest.fixture(scope="class")
    def store(self) -> EventStore:
        cohort = Cohort([
            History(patient_id=1, birth_day=0, sex="F", points=[
                PointEvent(day=10, category="diagnosis", code="T90",
                           system="ICPC-2"),
                PointEvent(day=20, category="blood_pressure", value=160.0),
            ]),
            History(patient_id=2, birth_day=-3000, sex="M", points=[
                PointEvent(day=15, category="diagnosis", code="K86",
                           system="ICPC-2"),
            ], intervals=[
                IntervalEvent(Interval(5, 30), "hospital_stay",
                              source="hospital_inpatient"),
            ]),
        ])
        return EventStore.from_cohort(cohort)

    def test_mask_category(self, store):
        assert store.patients_matching(
            store.mask_category("blood_pressure")
        ).tolist() == [1]

    def test_mask_pattern(self, store):
        assert store.patients_matching(
            store.mask_pattern("ICPC-2", "T.*")
        ).tolist() == [1]
        assert store.patients_matching(
            store.mask_pattern("ICPC-2", "T90|K86")
        ).tolist() == [1, 2]

    def test_mask_unknown_category_is_empty(self, store):
        assert not store.mask_category("nope").any()

    def test_mask_day_range_overlaps_intervals(self, store):
        # hospital stay [5,30) overlaps day range [25, 40]
        assert store.patients_matching(
            store.mask_day_range(25, 40)
        ).tolist() == [2]

    def test_mask_value_range(self, store):
        assert store.patients_matching(
            store.mask_value_range(150, 170)
        ).tolist() == [1]

    def test_mask_source(self, store):
        assert store.patients_matching(
            store.mask_source("hospital_inpatient")
        ).tolist() == [2]

    def test_event_counts_per_patient(self, store):
        counts = store.event_counts_per_patient(
            np.ones(store.n_events, dtype=bool)
        )
        assert counts == {1: 2, 2: 2}

    def test_first_day_per_patient(self, store):
        first = store.first_day_per_patient(store.mask_category("diagnosis"))
        assert first == {1: 10, 2: 15}

    def test_demographics_accessors(self, store):
        assert store.birth_day_of(2) == -3000
        assert store.sex_of(1) == "F"
        with pytest.raises(EventModelError):
            store.birth_day_of(42)

    def test_mask_patients(self, store):
        mask = store.mask_patients([1])
        assert set(store.patient[mask].tolist()) == {1}

    def test_to_cohort_subset(self, store):
        cohort = store.to_cohort([2])
        assert cohort.patient_ids == [2]

    def test_patient_rows_are_the_patients_slices(self, store):
        rows = store.patient_rows([2, 2])
        mask = store.mask_patients([2])
        assert rows.patient_ids.tolist() == [2]
        assert rows.birth_day_of(2) == -3000 and rows.sex_of(2) == "M"
        for name in ("patient", "day", "end", "category", "code", "detail"):
            assert getattr(rows, name).tolist() == \
                getattr(store, name)[mask].tolist()
        assert rows.categories is store.categories
        with pytest.raises(EventModelError):
            store.patient_rows([2, 42])
