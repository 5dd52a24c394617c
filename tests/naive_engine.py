"""The naive recursive query evaluator: the differential oracle.

:class:`NaiveEngine` compiles a query AST exactly as written — no
normalization, no selectivity ordering, no early exit, no memoization —
so every rewrite and shortcut of :class:`repro.query.engine.QueryEngine`
is checked against the plain reading of the AST.  It evaluates flat
stores only; a sharded answer is compared with the naive answer on the
flat store it was built from.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.events.store import EventStore
from repro.query.ast import (
    AgeRange,
    Category,
    CodeMatch,
    Concept,
    CountAtLeast,
    EventAnd,
    EventExpr,
    EventNot,
    EventOr,
    FirstBefore,
    HasEvent,
    PatientAnd,
    PatientExpr,
    PatientNot,
    PatientOr,
    SexIs,
    Source,
    TimeWindow,
    ValueRange,
)
from repro.query.planner import AllEvents, AllPatients, EmptyEvents, NoPatients
from repro.terminology import icpc2_to_icd10_map

__all__ = ["NaiveEngine"]


class NaiveEngine:
    """Evaluates query ASTs against one flat :class:`EventStore`."""

    def __init__(self, store: EventStore) -> None:
        self.store = store

    def event_mask(self, expr: EventExpr) -> np.ndarray:
        """Compile an event expression to a boolean row mask."""
        store = self.store
        if isinstance(expr, CodeMatch):
            return store.mask_pattern(expr.system, expr.pattern)
        if isinstance(expr, Concept):
            icpc_codes, icd_codes = icpc2_to_icd10_map().expand_concept(expr.code)
            mask = np.zeros(store.n_events, dtype=bool)
            if icpc_codes:
                ids = frozenset(
                    store.systems["ICPC-2"].id_of(c) for c in icpc_codes
                )
                mask |= store.mask_codes("ICPC-2", ids)
            if icd_codes:
                ids = frozenset(
                    store.systems["ICD-10"].id_of(c) for c in icd_codes
                )
                mask |= store.mask_codes("ICD-10", ids)
            return mask
        if isinstance(expr, Category):
            return store.mask_category(expr.category)
        if isinstance(expr, Source):
            return store.mask_source(expr.source_kind)
        if isinstance(expr, ValueRange):
            return store.mask_value_range(expr.low, expr.high)
        if isinstance(expr, TimeWindow):
            return store.mask_day_range(expr.first_day, expr.last_day)
        if isinstance(expr, EmptyEvents):
            return np.zeros(store.n_events, dtype=bool)
        if isinstance(expr, AllEvents):
            return np.ones(store.n_events, dtype=bool)
        if isinstance(expr, EventAnd):
            mask = self.event_mask(expr.children[0])
            for child in expr.children[1:]:
                mask = mask & self.event_mask(child)
            return mask
        if isinstance(expr, EventOr):
            mask = self.event_mask(expr.children[0])
            for child in expr.children[1:]:
                mask = mask | self.event_mask(child)
            return mask
        if isinstance(expr, EventNot):
            return ~self.event_mask(expr.child)
        raise QueryError(f"unknown event expression {expr!r}")

    def patients(self, expr: PatientExpr | EventExpr) -> np.ndarray:
        """Evaluate to a sorted array of matching patient ids.

        An event expression is implicitly wrapped in :class:`HasEvent`.
        """
        store = self.store
        if isinstance(expr, EventExpr):
            expr = HasEvent(expr)
        if isinstance(expr, HasEvent):
            return store.patients_matching(self.event_mask(expr.expr))
        if isinstance(expr, CountAtLeast):
            mask = self.event_mask(expr.expr)
            ids, counts = np.unique(store.patient[mask], return_counts=True)
            return ids[counts >= expr.minimum]
        if isinstance(expr, AgeRange):
            ages = (expr.at_day - store.birth_days) / 365.25
            selected = (ages >= expr.min_years) & (ages <= expr.max_years)
            return store.patient_ids[selected]
        if isinstance(expr, SexIs):
            code = {"U": 0, "F": 1, "M": 2}[expr.sex]
            return store.patient_ids[store.sexes == code]
        if isinstance(expr, FirstBefore):
            mask = self.event_mask(expr.expr)
            ids, first_idx = np.unique(store.patient[mask], return_index=True)
            return ids[store.day[mask][first_idx] <= expr.day]
        if isinstance(expr, NoPatients):
            return np.empty(0, dtype=np.int64)
        if isinstance(expr, AllPatients):
            return store.patient_ids.copy()
        if isinstance(expr, PatientAnd):
            result = self.patients(expr.children[0])
            for child in expr.children[1:]:
                if len(result) == 0:
                    break
                result = np.intersect1d(
                    result, self.patients(child), assume_unique=True
                )
            return result
        if isinstance(expr, PatientOr):
            result = self.patients(expr.children[0])
            for child in expr.children[1:]:
                result = np.union1d(result, self.patients(child))
            return result
        if isinstance(expr, PatientNot):
            return np.setdiff1d(
                store.patient_ids, self.patients(expr.child),
                assume_unique=True,
            )
        raise QueryError(f"unknown patient expression {expr!r}")
