"""Vectorized query evaluation over the columnar event store.

Event expressions compile to boolean masks (numpy row predicates);
patient expressions compile to sorted int64 id arrays.  Set algebra on
patients uses ``np.intersect1d``/``union1d``/``setdiff1d``, so the whole
168k-patient selection (experiment E5) runs in tens of milliseconds.

Every query first passes through the planner
(:mod:`repro.query.planner`): the AST is rewritten into a canonical
normal form, conjunction children are evaluated in ascending
estimated-selectivity order with early exit, and every sub-result —
event masks and patient-id arrays — is memoized in an LRU
(:class:`repro.query.cache.QueryCache`) keyed by
``(store.content_token(), kind, canonical plan key)``.  Iterative
cohort refinement (the paper's core loop) therefore re-computes only
the clauses that actually changed.  The test suite keeps a naive
recursive evaluator as the differential oracle for this path.

Returned arrays are cached and therefore marked read-only; copy before
mutating.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeadlineExceededError, QueryError
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
from repro.query.cache import QueryCache
from repro.query.planner import (
    AllEvents,
    AllPatients,
    EmptyEvents,
    NoPatients,
    Plan,
    SelectivityEstimator,
    format_plan,
    normalize_event,
    plan_query,
)
from repro.terminology import icpc2_to_icd10_map

__all__ = ["QueryEngine"]


def _check_deadline(deadline) -> None:
    """Raise once a per-request wall-clock budget is spent.

    ``deadline`` is an optional :class:`~repro.resilience.retry.Deadline`
    threaded down from the serving tier; ``None`` means unbounded.
    """
    if deadline is not None and deadline.expired():
        raise DeadlineExceededError(
            "query evaluation exceeded its wall-clock deadline"
        )


class QueryEngine:
    """Evaluates query ASTs against one :class:`EventStore`.

    ``cache`` lets several engines share one per-process
    :class:`~repro.query.cache.QueryCache` (entries are keyed by store
    content, so sharing across stores is safe).  On a sharded store the
    engine owns the scatter-gather
    :class:`~repro.shard.executor.ParallelExecutor`; ``executor`` passes
    in one with a chosen worker count instead.  ``analyze`` gates
    every :meth:`patients` call through the static analyzer
    (:mod:`repro.query.analyze`): queries with ``error``-severity
    diagnostics are refused with a typed
    :class:`~repro.errors.QueryAnalysisError` *before* any evaluation.
    """

    def __init__(
        self,
        store: EventStore,
        cache: QueryCache | None = None,
        executor=None,
        analyze: bool = False,
    ) -> None:
        self.store = store
        self.cache = cache if cache is not None else QueryCache()
        if executor is None and self.is_sharded:
            from repro.shard.executor import (  # noqa: PLC0415 (cycle)
                ParallelExecutor,
            )

            executor = ParallelExecutor(config=store.config)
        self.executor = executor
        self.analyze_queries = analyze
        self.analyzer_counters = {"analyzed": 0, "errors": 0, "warnings": 0}
        self._estimator: SelectivityEstimator | None = None
        self._analysis_context = None

    @property
    def is_sharded(self) -> bool:
        """Is the underlying store a sharded scatter-gather store?"""
        from repro.shard.store import is_shard_store  # noqa: PLC0415 (cycle)

        return is_shard_store(self.store)

    @property
    def estimator(self) -> SelectivityEstimator:
        """Per-store selectivity statistics, built on first use."""
        if self._estimator is None:
            self._estimator = SelectivityEstimator(self.store)
        return self._estimator

    # -- static analysis -----------------------------------------------------

    @property
    def analysis_context(self):
        """The store-aware :class:`AnalysisContext`, built on first use."""
        if self._analysis_context is None:
            from repro.query.analyze import AnalysisContext

            self._analysis_context = AnalysisContext.from_store(self.store)
        return self._analysis_context

    def analyze(self, expr: PatientExpr | EventExpr) -> list:
        """Statically analyze a query; returns its diagnostics.

        Never touches event data: only the store's vocabulary (code
        systems, category and source tables) informs the rules.
        Updates the engine's analyzer counters.
        """
        from repro.query.analyze import analyze_query

        diagnostics = analyze_query(expr, context=self.analysis_context)
        counters = self.analyzer_counters
        counters["analyzed"] += 1
        counters["errors"] += sum(
            1 for d in diagnostics if d.severity == "error"
        )
        counters["warnings"] += sum(
            1 for d in diagnostics if d.severity == "warning"
        )
        return diagnostics

    def check(self, expr: PatientExpr | EventExpr) -> list:
        """Analyze and *refuse* queries with error-severity findings.

        Returns the full diagnostic list (warnings included) when the
        query is acceptable; raises
        :class:`~repro.errors.QueryAnalysisError` otherwise.
        """
        from repro.errors import QueryAnalysisError

        diagnostics = self.analyze(expr)
        if any(d.severity == "error" for d in diagnostics):
            raise QueryAnalysisError(diagnostics)
        return diagnostics

    # -- event level -----------------------------------------------------

    def event_mask(self, expr: EventExpr) -> np.ndarray:
        """Compile an event expression to a (read-only) boolean row mask.

        The expression is normalized and every sub-mask memoized.
        """
        return self._planned_event_mask(normalize_event(expr))

    def _leaf_mask(self, expr: EventExpr) -> np.ndarray:
        """The row mask of one leaf predicate (a column scan)."""
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
        raise QueryError(f"unknown event expression {expr!r}")

    def _planned_event_mask(self, expr: EventExpr) -> np.ndarray:
        """Memoized evaluation of a *normalized* event expression."""
        key = (self.store.content_token(), "mask", repr(expr))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, EventAnd):
            # Cheapest-to-falsify first; once no row survives, the
            # remaining children cannot resurrect any.
            children = sorted(expr.children, key=self.estimator.event)
            mask = self._planned_event_mask(children[0])
            for child in children[1:]:
                if not mask.any():
                    break
                mask = mask & self._planned_event_mask(child)
        elif isinstance(expr, EventOr):
            mask = self._planned_event_mask(expr.children[0])
            for child in expr.children[1:]:
                if mask.all():
                    break
                mask = mask | self._planned_event_mask(child)
        elif isinstance(expr, EventNot):
            mask = ~self._planned_event_mask(expr.child)
        else:
            mask = self._leaf_mask(expr)
        return self.cache.put(key, mask)

    # -- patient level ------------------------------------------------------

    def patients(self, expr: PatientExpr | EventExpr,
                 deadline=None) -> np.ndarray:
        """Evaluate to a sorted array of matching patient ids.

        An event expression is implicitly wrapped in :class:`HasEvent`.
        The returned array is memoized (read-only).

        On a :class:`~repro.shard.store.ShardedEventStore` the query is
        evaluated per shard (scatter) and the disjoint per-shard id
        arrays are merged (gather) — see
        :class:`~repro.shard.executor.ParallelExecutor`.

        ``deadline`` (a :class:`~repro.resilience.retry.Deadline`)
        bounds the evaluation's wall clock: it is checked between plan
        nodes and threaded into the scatter-gather executor, raising
        :class:`~repro.errors.DeadlineExceededError` on overrun instead
        of grinding on — the serving tier turns that into a 503.
        """
        if self.analyze_queries:
            self.check(expr)
        _check_deadline(deadline)
        if self.is_sharded:
            return self.executor.patients(self.store, expr, cache=self.cache,
                                          deadline=deadline)
        return self._planned_patients(plan_query(expr).root,
                                      deadline=deadline)

    def _planned_patients(self, expr: PatientExpr,
                          deadline=None) -> np.ndarray:
        """Memoized evaluation of a *normalized* patient expression."""
        _check_deadline(deadline)
        store = self.store
        if isinstance(expr, NoPatients):
            return np.empty(0, dtype=np.int64)
        if isinstance(expr, AllPatients):
            universe = store.patient_ids.view()
            universe.setflags(write=False)
            return universe
        key = (store.content_token(), "patients", repr(expr))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, HasEvent):
            result = store.patients_matching(
                self._planned_event_mask(expr.expr)
            )
        elif isinstance(expr, CountAtLeast):
            mask = self._planned_event_mask(expr.expr)
            ids, counts = np.unique(store.patient[mask], return_counts=True)
            result = ids[counts >= expr.minimum]
        elif isinstance(expr, FirstBefore):
            # Rows are sorted by (patient, day), so the first index
            # np.unique reports per patient is also their earliest day.
            mask = self._planned_event_mask(expr.expr)
            ids, first_idx = np.unique(store.patient[mask], return_index=True)
            result = ids[store.day[mask][first_idx] <= expr.day]
        elif isinstance(expr, PatientAnd):
            # Most selective clause first: the running intersection
            # shrinks fastest and an empty result short-circuits the
            # remaining (potentially expensive) children entirely.
            children = sorted(expr.children, key=self.estimator.patient)
            result = self._planned_patients(children[0], deadline)
            for child in children[1:]:
                if len(result) == 0:
                    break
                result = np.intersect1d(
                    result, self._planned_patients(child, deadline),
                    assume_unique=True,
                )
        elif isinstance(expr, PatientOr):
            result = self._planned_patients(expr.children[0], deadline)
            for child in expr.children[1:]:
                result = np.union1d(
                    result, self._planned_patients(child, deadline)
                )
        elif isinstance(expr, PatientNot):
            result = np.setdiff1d(
                store.patient_ids,
                self._planned_patients(expr.child, deadline),
                assume_unique=True,
            )
        elif isinstance(expr, AgeRange):
            ages = (expr.at_day - store.birth_days) / 365.25
            result = store.patient_ids[(ages >= expr.min_years)
                                       & (ages <= expr.max_years)]
        elif isinstance(expr, SexIs):
            code = {"U": 0, "F": 1, "M": 2}[expr.sex]
            result = store.patient_ids[store.sexes == code]
        else:
            raise QueryError(f"unknown patient expression {expr!r}")
        return self.cache.put(key, result)

    # -- derived metrics -----------------------------------------------------

    def count(self, expr: PatientExpr | EventExpr) -> int:
        """Number of matching patients."""
        return int(len(self.patients(expr)))

    def selectivity(self, expr: PatientExpr | EventExpr) -> float:
        """Matching fraction of the store's population."""
        if self.store.n_patients == 0:
            return 0.0
        return self.count(expr) / self.store.n_patients

    # -- introspection -------------------------------------------------------

    def explain(self, expr: PatientExpr | EventExpr) -> str:
        """The query's normalized plan as an indented text tree.

        Each node carries its estimated selectivity and — when its
        memoized result is currently resident — a ``[cached]`` marker;
        conjunction children appear in evaluation order.  A summary
        header reports the plan key and cache counters; a trailing
        DIAGNOSTICS section lists the static analyzer's findings.
        """
        plan: Plan = plan_query(expr)
        token = self.store.content_token()

        def is_cached(kind: str, node) -> bool:
            if isinstance(node, (NoPatients, AllPatients)):
                return False  # sentinels evaluate without the cache
            return (token, kind, repr(node)) in self.cache

        stats = self.cache.stats
        header = [
            f"plan for: {plan.key}",
            f"estimated selectivity: {self.estimator.patient(plan.root):.4f}"
            f" of {self.store.n_patients:,} patients",
            f"cache: {stats.hits} hits, {stats.misses} misses, "
            f"{len(self.cache)} entries",
        ]
        record = self.store.degradation() if self.is_sharded else None
        if record is not None and record.is_degraded:
            header.append(record.format_summary())
        header.append("")
        tree = format_plan(plan, self.estimator, is_cached=is_cached)
        diagnostics = self.analyze(expr)
        section = ["", "DIAGNOSTICS"]
        if diagnostics:
            section.extend(
                "  " + line
                for d in diagnostics
                for line in d.format().splitlines()
            )
        else:
            section.append("  none")
        return "\n".join(header) + tree + "\n".join(section)

    def cache_stats(self) -> dict:
        """JSON-ready cache counters (the webapp ``/stats`` payload)."""
        payload = self.cache.stats_dict()
        if self.executor is not None:
            payload["executor"] = self.executor.stats_dict()
        return payload
