"""The workbench facade: the paper's "common workbench" as one object.

Ties the layers together for the common flows: ingest heterogeneous raw
sources (or adopt a pre-built store), identify cohorts with queries,
align, visualize, export personal timelines, and run the NSEPter
baseline — the operations Figure 1's window exposes, as an API.

Example::

    from repro import Workbench
    from repro.simulate import generate_raw_sources

    raw = generate_raw_sources(5_000, seed=7)
    wb = Workbench.from_raw_sources(raw)
    ids = wb.select('concept T90 and atleast 2 category gp_contact')
    scene = wb.timeline(ids[:200])
    scene.save("cohort.svg")
"""

from __future__ import annotations

import numpy as np

from repro.cohort.alignment import Alignment, compute_alignment
from repro.cohort.stats import CohortStats, summarize
from repro.config import ResilienceConfig, ShardConfig, WorkbenchConfig
from repro.errors import EventModelError
from repro.events.model import Cohort
from repro.events.store import EventStore
from repro.nsepter.graph import HistoryGraph, build_graph
from repro.nsepter.merge import merge_by_regex, recursive_neighbour_merge
from repro.query.ast import EventExpr, PatientExpr
from repro.query.builder import QueryBuilder
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.temporal_patterns import (
    PatternMatch,
    PatternSearcher,
    TemporalPattern,
)
from repro.simulate.recall import RecallStudy, run_recognition_study
from repro.simulate.trajectories import RawSources
from repro.sources.integrate import IntegrationPipeline, IntegrationReport
from repro.sketch import CohortSketch, build_sketch
from repro.viz.cohort_views import (
    CohortDensityScene,
    CohortFlowScene,
    render_cohort_density,
    render_cohort_flow,
)
from repro.viz.density_view import DensityScene, render_density
from repro.viz.html_export import export_batch, export_personal_timeline
from repro.viz.timeline_view import TimelineConfig, TimelineScene, TimelineView

__all__ = ["Workbench"]


class Workbench:
    """One loaded data set plus every workbench operation.

    Construct via :meth:`from_raw_sources` (runs the full integration
    pipeline) or :meth:`from_store` (adopts a pre-built store, e.g. from
    the fast generator).
    """

    def __init__(
        self,
        store: EventStore,
        report: IntegrationReport | None = None,
        config: WorkbenchConfig | None = None,
    ) -> None:
        self.store = store
        self.report = report
        self.config = config or WorkbenchConfig()
        self.engine = QueryEngine(
            store,
            cache=QueryCache(
                max_entries=self.config.query_cache_entries,
                max_bytes=self.config.query_cache_bytes,
            ),
            analyze=self.config.analyze_queries,
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_raw_sources(
        cls,
        raw: RawSources,
        config: WorkbenchConfig | None = None,
        resilience: "ResilienceConfig | None" = None,
        quarantine=None,
    ) -> "Workbench":
        """Integrate a raw-source bundle end to end.

        ``resilience`` tunes retries/circuit breakers and ``quarantine``
        (a :class:`~repro.resilience.quarantine.QuarantineStore`)
        dead-letters unparseable records for later replay; see
        :mod:`repro.resilience`.
        """
        pipeline = IntegrationPipeline(
            horizon_day=raw.window.end_day,
            resilience=resilience,
            quarantine=quarantine,
        )
        store, report = pipeline.run(
            raw.patients,
            raw.gp_claims,
            raw.hospital_episodes,
            raw.municipal_records,
            raw.specialist_claims,
        )
        return cls(store, report=report, config=config)

    @classmethod
    def from_store(
        cls, store: EventStore, config: WorkbenchConfig | None = None
    ) -> "Workbench":
        """Adopt an already-built event store."""
        return cls(store, config=config)

    @classmethod
    def from_shards(
        cls,
        path: str,
        config: WorkbenchConfig | None = None,
        shard_config: "ShardConfig | None" = None,
    ) -> "Workbench":
        """Serve a cohort straight from a sharded on-disk store.

        Queries run scatter-gather across the shard segments (see
        :mod:`repro.shard`); rendering and statistics materialize
        lazily.  ``shard_config`` tunes worker count, checksum
        verification and memory mapping.
        """
        from repro.shard import (  # noqa: PLC0415 (cycle via query.engine)
            ShardedEventStore,
        )

        return cls(ShardedEventStore(path, config=shard_config),
                   config=config)

    # -- incremental ingestion -----------------------------------------------

    def append_batch(self, batch: EventStore) -> dict:
        """Land a batch of new events as delta segments (sharded only).

        Routes the batch through the store's partitioner, writes one
        checksummed delta segment per touched shard and commits with a
        durable atomic manifest bump — then refreshes this workbench's
        view so the next query sees the new events.  The store's
        ``content_token`` changes with the revision, so plan-cache
        entries and serving ETags invalidate without any flush call.
        Returns the pending-delta statistics after the append.
        """
        if not self.is_sharded:
            raise EventModelError(
                "append_batch needs a sharded store; flat stores are "
                "immutable — rebuild with repro.io.merge_stores instead"
            )
        from repro.shard import DeltaWriter  # noqa: PLC0415 (cycle)

        DeltaWriter(self.store.path).append(batch)
        self.store.refresh()
        return self.store.delta_stats()

    def compact(self) -> dict:
        """Fold pending delta segments into fresh base segments.

        Runs the background compactor inline (the serving tier and cron
        jobs call the same machinery via ``shard compact``), refreshes
        the workbench's view, and returns the compaction report as
        JSON.  Readers — including this workbench's own in-flight pool
        workers — are never blocked: merged segments install under new
        generation names and the previous generation is retained.
        """
        if not self.is_sharded:
            raise EventModelError("compact needs a sharded store")
        from repro.shard import Compactor  # noqa: PLC0415 (cycle)

        report = Compactor(self.store.path).compact()
        self.store.refresh()
        return report.to_json()

    # -- health ---------------------------------------------------------------

    def _shard_degradation(self):
        """The store's ``QueryDegradation`` record, or None (flat store)."""
        return self.store.degradation() if self.is_sharded else None

    @property
    def degraded_sources(self) -> dict[str, str]:
        """Everything this workbench is serving *without* (name -> reason).

        Unifies the two degradation layers: sources the integration gave
        up on and shards the store quarantined — so the webapp's banner
        and 503 machinery cover both without knowing which layer broke.
        """
        result = ({} if self.report is None
                  else dict(self.report.degraded_sources))
        record = self._shard_degradation()
        if record is not None:
            for name, reason in zip(record.quarantined_shards,
                                    record.reasons):
                result[name] = reason
        return result

    @property
    def is_degraded(self) -> bool:
        """Is anything missing — a given-up source or a quarantined shard?"""
        return bool(self.degraded_sources)

    def health(self) -> dict:
        """The ``/healthz`` payload: status, sizes, degraded sources,
        and (for sharded stores) shard/executor health."""
        payload = {
            "status": "degraded" if self.is_degraded else "ok",
            "patients": int(self.store.n_patients),
            "events": int(self.store.n_events),
            "degraded_sources": self.degraded_sources,
        }
        if self.report is not None:
            payload["failed_records"] = int(self.report.failed_records)
            payload["failures_truncated"] = int(
                self.report.failures_truncated
            )
            payload["quarantined"] = int(self.report.quarantined)
        if self.is_sharded:
            store = self.store
            record = store.degradation()
            shards = {
                "total": int(store.n_shards),
                "active": int(store.n_active_shards),
                "quarantined": list(record.quarantined_shards),
                "patients_lost": int(record.patients_lost),
                "events_lost": int(record.events_lost),
                "executor_mode": self.engine.executor.mode,
                "pool_rebuilds": int(self.engine.executor.pool_rebuilds),
                "ingestion": store.delta_stats(),
            }
            replication = store.replication_stats()
            if replication.get("replication", 1) > 1:
                shards["replication"] = int(replication["replication"])
                shards["zero_healthy_replica_shards"] = list(
                    replication.get("zero_healthy_shards") or [])
            payload["shards"] = shards
        return payload

    # -- cohort identification -------------------------------------------------

    def query(self) -> QueryBuilder:
        """A fresh query builder (the Figure 4 form)."""
        return QueryBuilder()

    def select(self, query: str | PatientExpr | EventExpr,
               deadline=None) -> np.ndarray:
        """Evaluate a query (text or AST) to sorted patient ids.

        ``deadline`` (a :class:`~repro.resilience.retry.Deadline`)
        bounds the evaluation's wall clock; the serving tier threads
        each request's budget through here into the engine and the
        scatter-gather executor.
        """
        if isinstance(query, str):
            query = parse_query(query)
        return self.engine.patients(query, deadline=deadline)

    def explain(self, query: str | PatientExpr | EventExpr) -> str:
        """The query's normalized plan, estimated selectivities and
        current cache residency as a text tree (``query --explain``)."""
        if isinstance(query, str):
            query = parse_query(query)
        return self.engine.explain(query)

    def analyze(self, query: str | PatientExpr | EventExpr) -> list:
        """Statically analyze a query (text or AST) without running it.

        Returns the analyzer's :class:`~repro.query.analyze.Diagnostic`
        list — empty when the query is clean.  See
        :func:`repro.query.analyze.analyze_query` for the rule catalog.
        """
        if isinstance(query, str):
            query = parse_query(query)
        return self.engine.analyze(query)

    def query_cache_stats(self) -> dict:
        """JSON-ready query-cache counters (the ``/stats`` payload)."""
        return self.engine.cache_stats()

    @property
    def is_sharded(self) -> bool:
        """Is this workbench serving from a sharded on-disk store?"""
        return self.engine.is_sharded

    def shard_stats(self) -> dict | None:
        """JSON-ready shard/executor counters, or None for flat stores."""
        if not self.is_sharded:
            return None
        from repro.shard.scrub import scrub_stats  # noqa: PLC0415

        store = self.store
        replication = store.replication_stats()
        # serial-path failovers count in the store's counter;
        # worker-process failovers only the executor sees
        replication["replica_failovers"] = (
            int(replication.get("replica_failovers", 0))
            + int(self.engine.executor.replica_failovers)
        )
        return {
            "n_shards": int(store.n_shards),
            "active_shards": int(store.n_active_shards),
            "open_shards": int(store.open_shard_count),
            "partition": store.partition,
            "path": store.path,
            "degradation": store.degradation().to_json(),
            "executor": self.engine.executor.stats_dict(),
            "ingestion": store.delta_stats(),
            "sketch": store.sketch_stats(),
            "replication": replication,
            "scrub": scrub_stats(store.path),
        }

    def cohort(self, patient_ids: list[int] | np.ndarray) -> Cohort:
        """Materialize histories for the given patients."""
        return self.store.to_cohort([int(p) for p in patient_ids])

    def stats(
        self, patient_ids: list[int] | np.ndarray | None = None
    ) -> CohortStats:
        """Summary statistics for the whole store or a subset."""
        return summarize(self.store, patient_ids)

    # -- alignment and patterns --------------------------------------------------

    def align(self, expr: EventExpr, label: str = "") -> Alignment:
        """Anchor patients at their first event matching ``expr``."""
        return compute_alignment(self.engine, expr, label)

    def find_patterns(self, pattern: TemporalPattern) -> list[PatternMatch]:
        """All matches of a temporal pattern."""
        return PatternSearcher(self.engine).find(pattern)

    # -- visualization --------------------------------------------------------

    def timeline(
        self,
        patient_ids: list[int] | np.ndarray,
        config: TimelineConfig | None = None,
        alignment: Alignment | None = None,
    ) -> TimelineScene:
        """Render the cohort timeline view (Figure 1)."""
        view_config = config or TimelineConfig(
            max_rows=self.config.max_drawn_histories
        )
        return TimelineView(self.store, view_config).render(
            patient_ids, alignment
        )

    def render_view(self, view_name: str,
                    patient_ids: list[int] | np.ndarray):
        """Render a registered view engine by name (the NSEPter plug-in
        architecture, Section II-A1): ``"timeline"``, ``"density"``,
        ``"nsepter-graph"`` or anything registered via
        :func:`repro.plugins.register_view`."""
        from repro.plugins import get_view  # noqa: PLC0415 (cycle)

        return get_view(view_name)(self.store, [int(p) for p in patient_ids])

    def search_codes(self, text: str) -> dict[str, list[str]]:
        """Find codes in every system whose display name mentions ``text``.

        The LifeLines related-item search (Section II-D1): searching for
        "diabetes" returns the ICPC-2 rubrics, ICD-10 categories and ATC
        substances whose labels mention it, ready to feed
        :meth:`timeline`'s ``highlight`` or a query.
        """
        return {
            name: [c.code for c in system.search_display(text)]
            for name, system in self.store.systems.items()
        }

    def overview(
        self,
        patient_ids: list[int] | np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> DensityScene:
        """Render the density overview (the 'overview first' remedy for
        very large cohorts — see :mod:`repro.viz.density_view`)."""
        return render_density(self.store, patient_ids, mask=mask)

    # -- aggregate-first cohort views -----------------------------------------

    def cohort_sketch(
        self,
        query: str | PatientExpr | EventExpr | None = None,
        deadline=None,
    ) -> CohortSketch:
        """The cohort's :class:`~repro.sketch.model.CohortSketch`.

        ``query=None`` covers the whole store.  On a sharded store this
        never materializes rows: the whole-store sketch folds persisted
        per-segment sidecars, and a query refines shard-parallel through
        :meth:`~repro.shard.executor.ParallelExecutor.sketch_shards`
        (each shard sketches only its matching patients, then the
        per-shard sketches merge associatively).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if self.is_sharded:
            if query is None:
                return self.store.store_sketch()
            return self.engine.executor.sketch_shards(
                self.store, query, cache=self.engine.cache,
                deadline=deadline,
            )
        from repro.shard.writer import subset_store  # noqa: PLC0415 (cycle)

        if query is None:
            return build_sketch(self.store)
        ids = self.engine.patients(query, deadline=deadline)
        return build_sketch(subset_store(self.store, ids))

    def cohort_density(
        self,
        query: str | PatientExpr | EventExpr | None = None,
        drilldown: bool | None = None,
        deadline=None,
    ) -> CohortDensityScene | DensityScene:
        """Aggregate-first cohort density view.

        Renders the chapter × time-bucket density strips from the
        cohort's sketch alone — cost independent of cohort size.  When
        the cohort has at most ``config.drilldown_rows`` patients the
        view automatically drills down to the per-patient density
        overview (:meth:`overview`), which *does* materialize that small
        cohort's rows; pass ``drilldown=False`` to force the sketch
        rendering regardless of size.
        """
        sketch = self.cohort_sketch(query, deadline=deadline)
        use_drilldown = (drilldown if drilldown is not None
                         else sketch.n_patients <= self.config.drilldown_rows)
        if use_drilldown and sketch.n_patients:
            ids = (self.select(query, deadline=deadline)
                   if query is not None else None)
            return self.overview(ids)
        return render_cohort_density(sketch)

    def cohort_flow(
        self,
        query: str | PatientExpr | EventExpr | None = None,
        deadline=None,
    ) -> CohortFlowScene:
        """Chapter-flow ribbon view (first-k pathway transitions) from
        the cohort's sketch alone; see :meth:`cohort_sketch` for how the
        sketch is obtained without materializing rows."""
        return render_cohort_flow(self.cohort_sketch(query, deadline=deadline))

    def session(self):
        """Start an :class:`~repro.session.AnalysisSession` on this data."""
        from repro.session import AnalysisSession  # noqa: PLC0415 (cycle)

        return AnalysisSession(self)

    def personal_timeline(
        self, patient_id: int, path: str | None = None, simplified: bool = False
    ) -> str:
        """Export one patient's interactive HTML timeline."""
        return export_personal_timeline(
            self.store, patient_id, path=path, simplified=simplified
        )

    def export_timelines(
        self,
        patient_ids: list[int] | np.ndarray,
        directory: str,
        simplified: bool = False,
    ) -> int:
        """Batch-export personal timelines (the >10k web deployment)."""
        return export_batch(
            self.store, [int(p) for p in patient_ids], directory,
            simplified=simplified,
        )

    # -- baselines and studies ---------------------------------------------------

    def nsepter_graph(
        self,
        patient_ids: list[int] | np.ndarray,
        merge_pattern: str | None = None,
        recursion_depth: int = 0,
        system: str = "ICPC-2",
    ) -> HistoryGraph:
        """Build (and optionally merge) the NSEPter baseline graph."""
        graph = build_graph(self.cohort(patient_ids), system=system)
        if merge_pattern is not None:
            seeds = merge_by_regex(graph, merge_pattern)
            if recursion_depth > 0:
                recursive_neighbour_merge(graph, seeds, depth=recursion_depth)
        return graph

    def recognition_study(
        self,
        patient_ids: list[int] | np.ndarray,
        reference_day: int,
        seed: int | None = None,
    ) -> RecallStudy:
        """Simulate the patient trajectory-recognition survey (E6)."""
        return run_recognition_study(
            self.store, patient_ids, reference_day, seed=seed
        )

    def __repr__(self) -> str:
        return f"Workbench({self.store!r})"
