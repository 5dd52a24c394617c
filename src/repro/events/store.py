"""A numpy-backed columnar event store.

The paper: "To speed up drawing and to become more independent of the
database schema, all content to be visualized or queried is pre-loaded
into a data structure of Java objects" (Section IV).  At 168,000 patients
a Python *object* per event would be the bottleneck, so the reproduction
pre-loads into columnar numpy arrays instead — same architectural
decision (query the in-memory snapshot, not the database), better
constant factors.  Drawing stays columnar too: the timeline reads the
drawn patients' rows with :meth:`EventStore.patient_rows`, and
``History`` objects materialize lazily only for the subset exported or
shown on a personal page (benchmark A3 quantifies the gap).

Events are stored sorted by ``(patient, day)`` so per-patient slices are
contiguous: both a patient's row slice and their materialization are a
cheap range scan.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np

from repro.errors import EventModelError
from repro.events.model import Cohort, History, IntervalEvent, PointEvent
from repro.temporal.timeline import Interval
from repro.terminology.codes import CodeSystem
from repro.terminology import atc, icd10, icpc2

__all__ = ["EVENT_COLUMNS", "EventStore", "EventStoreBuilder", "merge_stores",
           "range_rows"]

#: The per-event columns of a store, in constructor order (the patient
#: table is ``patient_ids``, ``birth_days`` and ``sexes``).
EVENT_COLUMNS = ("patient", "day", "end", "is_point", "category", "system",
                 "code", "value", "value2", "source", "detail")

_SEX_TO_INT = {"U": 0, "F": 1, "M": 2}
_INT_TO_SEX = {v: k for k, v in _SEX_TO_INT.items()}


def range_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The row indices ``lo[k] .. hi[k] - 1`` of every range, concatenated."""
    counts = hi - lo
    return np.arange(int(counts.sum())) + np.repeat(
        lo - np.cumsum(counts) + counts, counts
    )


def default_systems() -> dict[str, CodeSystem]:
    """The three code systems the paper's data uses."""
    return {"ICPC-2": icpc2(), "ICD-10": icd10(), "ATC": atc()}


class _Interner:
    """Dense string interning for low-cardinality columns."""

    def __init__(self) -> None:
        self.values: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, value: str) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.values)
            self.values.append(value)
            self._index[value] = idx
        return idx

    def lookup(self, value: str) -> int | None:
        return self._index.get(value)


class EventStoreBuilder:
    """Accumulates events and patients, then freezes into an EventStore."""

    def __init__(self, systems: dict[str, CodeSystem] | None = None) -> None:
        self.systems = systems or default_systems()
        self._system_names = list(self.systems)
        self._categories = _Interner()
        self._sources = _Interner()
        self._details = _Interner()
        self._details.intern("")  # id 0 = no detail
        self._rows: list[tuple] = []
        self._patients: dict[int, tuple[int, int]] = {}  # id -> (birth, sex)

    def add_patient(self, patient_id: int, birth_day: int, sex: str = "U") -> None:
        """Register a patient's demographics (idempotent, must not conflict)."""
        entry = (birth_day, _SEX_TO_INT[sex])
        existing = self._patients.get(patient_id)
        if existing is not None and existing != entry:
            raise EventModelError(
                f"conflicting demographics for patient {patient_id}"
            )
        self._patients[patient_id] = entry

    def add_event(
        self,
        patient_id: int,
        day: int,
        category: str,
        end: int | None = None,
        code: str | None = None,
        system: str | None = None,
        value: float | None = None,
        value2: float | None = None,
        source: str = "",
        detail: str = "",
    ) -> None:
        """Append one event; ``end`` is None for point events."""
        if patient_id not in self._patients:
            raise EventModelError(
                f"patient {patient_id} must be added before their events"
            )
        if system is None:
            system_idx, code_idx = -1, -1
        else:
            try:
                system_idx = self._system_names.index(system)
            except ValueError:
                raise EventModelError(f"unknown code system {system!r}") from None
            if code is None:
                code_idx = -1
            else:
                code_idx = self.systems[system].id_of(code)
        is_point = end is None
        end_day = day + 1 if is_point else end
        if end_day <= day:
            raise EventModelError(f"event end {end_day} must exceed start {day}")
        self._rows.append(
            (
                patient_id,
                day,
                end_day,
                is_point,
                self._categories.intern(category),
                system_idx,
                code_idx,
                np.nan if value is None else value,
                np.nan if value2 is None else value2,
                self._sources.intern(source),
                self._details.intern(detail),
            )
        )

    def add_history(self, history: History) -> None:
        """Append a whole :class:`History`."""
        self.add_patient(history.patient_id, history.birth_day, history.sex)
        for p in history.points:
            self.add_event(
                history.patient_id,
                p.day,
                p.category,
                code=p.code,
                system=p.system,
                value=p.value,
                value2=p.value2,
                source=p.source,
                detail=p.detail,
            )
        for iv in history.intervals:
            self.add_event(
                history.patient_id,
                iv.start,
                iv.category,
                end=iv.end,
                code=iv.code,
                system=iv.system,
                value=iv.value,
                source=iv.source,
                detail=iv.detail,
            )

    def build(self) -> "EventStore":
        """Freeze into an immutable, sorted :class:`EventStore`."""
        n = len(self._rows)
        patient = np.empty(n, dtype=np.int64)
        day = np.empty(n, dtype=np.int32)
        end = np.empty(n, dtype=np.int32)
        is_point = np.empty(n, dtype=bool)
        category = np.empty(n, dtype=np.int16)
        system = np.empty(n, dtype=np.int8)
        code = np.empty(n, dtype=np.int32)
        value = np.empty(n, dtype=np.float64)
        value2 = np.empty(n, dtype=np.float64)
        source = np.empty(n, dtype=np.int16)
        detail = np.empty(n, dtype=np.int32)
        for i, row in enumerate(self._rows):
            (
                patient[i],
                day[i],
                end[i],
                is_point[i],
                category[i],
                system[i],
                code[i],
                value[i],
                value2[i],
                source[i],
                detail[i],
            ) = row
        order = np.lexsort((day, patient))
        pid_list = sorted(self._patients)
        pids = np.asarray(pid_list, dtype=np.int64)
        births = np.asarray(
            [self._patients[p][0] for p in pid_list], dtype=np.int32
        )
        sexes = np.asarray([self._patients[p][1] for p in pid_list], dtype=np.int8)
        return EventStore(
            systems=self.systems,
            system_names=list(self._system_names),
            categories=list(self._categories.values),
            sources=list(self._sources.values),
            details=list(self._details.values),
            patient=patient[order],
            day=day[order],
            end=end[order],
            is_point=is_point[order],
            category=category[order],
            system=system[order],
            code=code[order],
            value=value[order],
            value2=value2[order],
            source=source[order],
            detail=detail[order],
            patient_ids=pids,
            birth_days=births,
            sexes=sexes,
        )


class EventStore:
    """Immutable columnar snapshot of a cohort's events.

    All query methods return numpy boolean masks over the event rows or
    arrays of patient ids; combining masks is plain ``&``/``|``.  Use
    :class:`EventStoreBuilder` (or :meth:`from_cohort`) to construct.
    """

    def __init__(
        self,
        systems: dict[str, CodeSystem],
        system_names: list[str],
        categories: list[str],
        sources: list[str],
        details: list[str],
        patient: np.ndarray,
        day: np.ndarray,
        end: np.ndarray,
        is_point: np.ndarray,
        category: np.ndarray,
        system: np.ndarray,
        code: np.ndarray,
        value: np.ndarray,
        value2: np.ndarray,
        source: np.ndarray,
        detail: np.ndarray,
        patient_ids: np.ndarray,
        birth_days: np.ndarray,
        sexes: np.ndarray,
    ) -> None:
        self.systems = systems
        self.system_names = system_names
        self.categories = categories
        self.sources = sources
        self.details = details
        self.patient = patient
        self.day = day
        self.end = end
        self.is_point = is_point
        self.category = category
        self.system = system
        self.code = code
        self.value = value
        self.value2 = value2
        self.source = source
        self.detail = detail
        self.patient_ids = patient_ids
        self.birth_days = birth_days
        self.sexes = sexes
        # Contiguous row range per patient (store is sorted by patient).
        self._row_start = np.searchsorted(patient, patient_ids, side="left")
        self._row_end = np.searchsorted(patient, patient_ids, side="right")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_cohort(
        cls, cohort: Cohort, systems: dict[str, CodeSystem] | None = None
    ) -> "EventStore":
        """Load a materialized cohort into columnar form."""
        builder = EventStoreBuilder(systems)
        for history in cohort:
            builder.add_history(history)
        return builder.build()

    # -- sizes ---------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.patient)

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    # -- masks -----------------------------------------------------------

    def mask_category(self, category: str) -> np.ndarray:
        """Rows whose category equals ``category``."""
        try:
            idx = self.categories.index(category)
        except ValueError:
            return np.zeros(self.n_events, dtype=bool)
        return self.category == idx

    def mask_source(self, source: str) -> np.ndarray:
        """Rows integrated from the given raw source kind."""
        try:
            idx = self.sources.index(source)
        except ValueError:
            return np.zeros(self.n_events, dtype=bool)
        return self.source == idx

    def mask_codes(self, system: str, code_ids: frozenset[int]) -> np.ndarray:
        """Rows carrying one of the given code ids in the given system."""
        try:
            system_idx = self.system_names.index(system)
        except ValueError:
            return np.zeros(self.n_events, dtype=bool)
        if not code_ids:
            return np.zeros(self.n_events, dtype=bool)
        in_system = self.system == system_idx
        matches = np.isin(self.code, np.fromiter(code_ids, dtype=np.int32))
        return in_system & matches

    def mask_pattern(self, system: str, pattern: str) -> np.ndarray:
        """Rows whose code matches a regex (the paper's primitive)."""
        return self.mask_codes(system, self.systems[system].match_ids(pattern))

    def mask_day_range(self, first_day: int, last_day: int) -> np.ndarray:
        """Rows overlapping the closed day range ``[first_day, last_day]``."""
        return (self.day <= last_day) & (self.end > first_day)

    def mask_value_range(self, low: float, high: float) -> np.ndarray:
        """Rows whose primary value lies in ``[low, high]``."""
        with np.errstate(invalid="ignore"):
            return (self.value >= low) & (self.value <= high)

    def mask_patients(self, patient_ids: Iterable[int]) -> np.ndarray:
        """Rows belonging to the given patients."""
        wanted = np.asarray(sorted(set(patient_ids)), dtype=np.int64)
        return np.isin(self.patient, wanted)

    # -- aggregation -------------------------------------------------------

    def patients_matching(self, mask: np.ndarray) -> np.ndarray:
        """Sorted unique patient ids with at least one row in ``mask``."""
        return np.unique(self.patient[mask])

    def event_counts_per_patient(self, mask: np.ndarray) -> dict[int, int]:
        """patient id -> number of masked rows."""
        ids, counts = np.unique(self.patient[mask], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def first_day_per_patient(self, mask: np.ndarray) -> dict[int, int]:
        """patient id -> earliest masked day (alignment anchors at scale)."""
        result: dict[int, int] = {}
        masked_patients = self.patient[mask]
        masked_days = self.day[mask]
        # Store rows are sorted by (patient, day): first hit per patient wins.
        ids, first_idx = np.unique(masked_patients, return_index=True)
        for pid, idx in zip(ids.tolist(), first_idx.tolist()):
            result[pid] = int(masked_days[idx])
        return result

    # -- decoding ------------------------------------------------------------

    def iter_events(self, rows: Iterable[int] | None = None):
        """Yield one decoded event dict per row.

        Each dict is keyword-compatible with
        :meth:`EventStoreBuilder.add_event`, which makes stores
        re-buildable: merging (:func:`repro.io.merge_stores`) and
        content comparison both decode through here.
        """
        if rows is None:
            rows = range(self.n_events)
        for row in rows:
            row = int(row)
            system_idx = int(self.system[row])
            system = None if system_idx < 0 else self.system_names[system_idx]
            code_idx = int(self.code[row])
            code = (
                None if code_idx < 0 or system is None
                else self.systems[system].code_of(code_idx).code
            )
            value = float(self.value[row])
            value2 = float(self.value2[row])
            yield {
                "patient_id": int(self.patient[row]),
                "day": int(self.day[row]),
                "end": None if self.is_point[row] else int(self.end[row]),
                "category": self.categories[int(self.category[row])],
                "code": code,
                "system": system,
                "value": None if np.isnan(value) else value,
                "value2": None if np.isnan(value2) else value2,
                "source": self.sources[int(self.source[row])],
                "detail": self.details[int(self.detail[row])],
            }

    def content_signature(self) -> tuple:
        """An order-insensitive fingerprint of demographics plus events.

        Two stores with equal signatures hold exactly the same patients
        and the same multiset of decoded events, regardless of the order
        records were integrated in (replaying quarantined records
        appends them last, so array order is not comparable).
        """
        demographics = tuple(
            (int(p), int(b), int(s))
            for p, b, s in zip(self.patient_ids, self.birth_days, self.sexes)
        )
        events = tuple(
            sorted(
                (tuple(event.items()) for event in self.iter_events()),
                key=repr,
            )
        )
        return demographics, events

    def content_equal(self, other: "EventStore") -> bool:
        """True when both stores hold identical patients and events."""
        return self.content_signature() == other.content_signature()

    def content_token(self) -> str:
        """A cheap content-addressed fingerprint (hex digest), memoized.

        Hashes the raw columnar arrays plus the string tables in one
        vectorized pass, so it is O(bytes) the first time and O(1)
        afterwards (the store is immutable).  Query caches key results
        by this token: replacing or merging a store changes the token,
        which invalidates its entries without any explicit protocol.
        Unlike :meth:`content_signature` the token is sensitive to row
        and interning order, which can only cause a cache *miss* for
        equal-content stores, never a wrong hit.
        """
        token = getattr(self, "_content_token", None)
        if token is None:
            digest = hashlib.blake2b(digest_size=16)
            for array in (
                self.patient, self.day, self.end, self.is_point,
                self.category, self.system, self.code, self.value,
                self.value2, self.source, self.detail,
                self.patient_ids, self.birth_days, self.sexes,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
            for table in (self.system_names, self.categories,
                          self.sources, self.details):
                digest.update(repr(table).encode("utf-8"))
            digest.update(
                repr([len(self.systems[n]) for n in self.system_names])
                .encode("utf-8")
            )
            token = digest.hexdigest()
            self._content_token = token
        return token

    # -- patient access ------------------------------------------------------

    def birth_day_of(self, patient_id: int) -> int:
        """Birth day number of a patient."""
        idx = np.searchsorted(self.patient_ids, patient_id)
        if idx >= len(self.patient_ids) or self.patient_ids[idx] != patient_id:
            raise EventModelError(f"no patient {patient_id} in store")
        return int(self.birth_days[idx])

    def sex_of(self, patient_id: int) -> str:
        """Sex code (``"F"``/``"M"``/``"U"``) of a patient."""
        idx = np.searchsorted(self.patient_ids, patient_id)
        if idx >= len(self.patient_ids) or self.patient_ids[idx] != patient_id:
            raise EventModelError(f"no patient {patient_id} in store")
        return _INT_TO_SEX[int(self.sexes[idx])]

    def materialize(self, patient_id: int) -> History:
        """Build the :class:`History` object for one patient (lazy path)."""
        idx = np.searchsorted(self.patient_ids, patient_id)
        if idx >= len(self.patient_ids) or self.patient_ids[idx] != patient_id:
            raise EventModelError(f"no patient {patient_id} in store")
        lo, hi = int(self._row_start[idx]), int(self._row_end[idx])
        points: list[PointEvent] = []
        intervals: list[IntervalEvent] = []
        for row in range(lo, hi):
            system_idx = int(self.system[row])
            system = None if system_idx < 0 else self.system_names[system_idx]
            code_idx = int(self.code[row])
            code = (
                None
                if code_idx < 0 or system is None
                else self.systems[system].code_of(code_idx).code
            )
            category = self.categories[int(self.category[row])]
            source = self.sources[int(self.source[row])]
            detail = self.details[int(self.detail[row])]
            if self.is_point[row]:
                raw_value = float(self.value[row])
                raw_value2 = float(self.value2[row])
                points.append(
                    PointEvent(
                        day=int(self.day[row]),
                        category=category,
                        code=code,
                        system=system,
                        value=None if np.isnan(raw_value) else raw_value,
                        value2=None if np.isnan(raw_value2) else raw_value2,
                        source=source,
                        detail=detail,
                    )
                )
            else:
                raw_value = float(self.value[row])
                intervals.append(
                    IntervalEvent(
                        interval=Interval(int(self.day[row]), int(self.end[row])),
                        category=category,
                        code=code,
                        system=system,
                        value=None if np.isnan(raw_value) else raw_value,
                        source=source,
                        detail=detail,
                    )
                )
        return History(
            patient_id=patient_id,
            birth_day=self.birth_day_of(patient_id),
            sex=self.sex_of(patient_id),
            points=points,
            intervals=intervals,
        )

    def patient_rows(self, patient_ids: Iterable[int]) -> "EventStore":
        """The given patients' rows and demographics, as a store of their own.

        Each patient's rows are one contiguous slice, so this is one
        ``searchsorted`` plus one fancy index per column: O(rows
        returned), with no pass over the store.  Rows keep their store
        order; string tables and code systems are shared, not copied.
        Raises :class:`~repro.errors.EventModelError` for an unknown
        patient, as :meth:`materialize` does.
        """
        wanted = np.unique(np.fromiter(patient_ids, dtype=np.int64))
        idx = np.searchsorted(self.patient_ids, wanted)
        found = idx < len(self.patient_ids)
        found[found] = self.patient_ids[idx[found]] == wanted[found]
        if not found.all():
            missing = int(wanted[~found][0])
            raise EventModelError(f"no patient {missing} in store")
        rows = range_rows(self._row_start[idx], self._row_end[idx])
        return EventStore(
            systems=self.systems,
            system_names=self.system_names,
            categories=self.categories,
            sources=self.sources,
            details=self.details,
            **{name: np.asarray(getattr(self, name))[rows]
               for name in EVENT_COLUMNS},
            patient_ids=wanted,
            birth_days=np.asarray(self.birth_days)[idx],
            sexes=np.asarray(self.sexes)[idx],
        )

    def to_cohort(self, patient_ids: Iterable[int] | None = None) -> Cohort:
        """Materialize a (sub-)cohort; omits patients not in the store."""
        ids = self.patient_ids.tolist() if patient_ids is None else patient_ids
        return Cohort(self.materialize(pid) for pid in ids)

    def __repr__(self) -> str:
        return f"EventStore({self.n_patients} patients, {self.n_events} events)"


def merge_stores(first: EventStore, second: EventStore) -> EventStore:
    """Merge two stores into one (incremental ingestion support).

    Both stores must use the same code systems (name and size — the id
    spaces must agree).  String tables (categories, sources, details) are
    re-interned; patients appearing in both must agree on demographics.
    """
    if first.system_names != second.system_names:
        raise EventModelError("stores use different code-system sets")
    for name in first.system_names:
        if len(first.systems[name]) != len(second.systems[name]):
            raise EventModelError(
                f"code system {name!r} differs between stores; "
                f"ids would mis-decode"
            )

    def remap(values: list[str], other: list[str]) -> tuple[list[str], np.ndarray]:
        merged = list(values)
        index = {v: i for i, v in enumerate(merged)}
        mapping = np.empty(len(other), dtype=np.int64)
        for i, v in enumerate(other):
            if v not in index:
                index[v] = len(merged)
                merged.append(v)
            mapping[i] = index[v]
        return merged, mapping

    categories, cat_map = remap(first.categories, second.categories)
    sources, src_map = remap(first.sources, second.sources)
    details, det_map = remap(first.details, second.details)

    # Patient tables: union with conflict detection.
    demographics: dict[int, tuple[int, int]] = {}
    for store in (first, second):
        for pid, birth, sex in zip(
            store.patient_ids.tolist(),
            store.birth_days.tolist(),
            store.sexes.tolist(),
        ):
            entry = (int(birth), int(sex))
            existing = demographics.get(int(pid))
            if existing is not None and existing != entry:
                raise EventModelError(
                    f"conflicting demographics for patient {pid} "
                    f"between stores"
                )
            demographics[int(pid)] = entry
    pid_list = sorted(demographics)
    patient_ids = np.asarray(pid_list, dtype=np.int64)
    birth_days = np.asarray(
        [demographics[p][0] for p in pid_list], dtype=np.int32
    )
    sexes = np.asarray([demographics[p][1] for p in pid_list], dtype=np.int8)

    patient = np.concatenate((first.patient, second.patient))
    day = np.concatenate((first.day, second.day))
    order = np.lexsort((day, patient))
    return EventStore(
        systems=first.systems,
        system_names=list(first.system_names),
        categories=categories,
        sources=sources,
        details=details,
        patient=patient[order],
        day=day[order],
        end=np.concatenate((first.end, second.end))[order],
        is_point=np.concatenate((first.is_point, second.is_point))[order],
        category=np.concatenate(
            (first.category, cat_map[second.category].astype(np.int16))
        )[order],
        system=np.concatenate((first.system, second.system))[order],
        code=np.concatenate((first.code, second.code))[order],
        value=np.concatenate((first.value, second.value))[order],
        value2=np.concatenate((first.value2, second.value2))[order],
        source=np.concatenate(
            (first.source, src_map[second.source].astype(np.int16))
        )[order],
        detail=np.concatenate(
            (first.detail, det_map[second.detail].astype(np.int32))
        )[order],
        patient_ids=patient_ids,
        birth_days=birth_days,
        sexes=sexes,
    )
