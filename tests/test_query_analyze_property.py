"""Property harness: the static analyzer never lies about real stores.

Two claims, both checked against the same seeded random corpus the
planner's differential suite uses (all 17 AST node types):

1. **Soundness of unsatisfiability proofs** — every diagnostic carrying
   ``unsatisfiable=True`` claims its node provably selects nothing; we
   evaluate that exact node on seeded stores (normal, single-patient,
   empty) and it must return an empty result every time.
2. **No false rejections** — no query the differential suites execute
   successfully gets an error-severity diagnostic, so turning on the
   ``analyze=True`` engine gate cannot break an existing workload.
"""

from __future__ import annotations

import pytest

from repro.query.analyze import AnalysisContext, analyze_query
from repro.query.ast import EventExpr, PatientExpr
from repro.query.engine import QueryEngine

from tests.naive_engine import NaiveEngine
from tests.test_query_planner_property import (
    _RUNS,
    _STORES,
    _generated_corpus,
)


@pytest.mark.parametrize("store_name,seed,count", _RUNS,
                         ids=[r[0] for r in _RUNS])
def test_unsatisfiable_verdicts_hold_on_real_stores(store_name, seed,
                                                    count):
    store = _STORES[store_name]
    context = AnalysisContext.from_store(store)
    engine = NaiveEngine(store)
    checked = 0
    for i, query in enumerate(_generated_corpus(store, seed, count)):
        for diag in analyze_query(query, context):
            if not diag.unsatisfiable or diag.node is None:
                continue
            node = diag.node
            if isinstance(node, EventExpr):
                selected = int(engine.event_mask(node).sum())
            elif isinstance(node, PatientExpr):
                selected = len(engine.patients(node))
            else:  # pragma: no cover - analyzer only tags AST nodes
                continue
            checked += 1
            assert selected == 0, (
                f"case {i} on {store_name}: {diag.rule} claimed "
                f"{node!r} unsatisfiable but it selected {selected}"
            )
    if store_name == "small":
        # The corpus genuinely exercises the unsat rules.
        assert checked > 50


@pytest.mark.parametrize("store_name,seed,count", _RUNS,
                         ids=[r[0] for r in _RUNS])
def test_differential_corpus_never_hits_error_severity(store_name, seed,
                                                       count):
    store = _STORES[store_name]
    context = AnalysisContext.from_store(store)
    for i, query in enumerate(_generated_corpus(store, seed, count)):
        errors = [d for d in analyze_query(query, context)
                  if d.severity == "error"]
        assert not errors, (
            f"case {i} on {store_name}: analyzer would reject a query "
            f"the differential suite evaluates fine: {errors}"
        )


def test_gated_engine_accepts_the_whole_corpus():
    """The analyze=True gate evaluates every generated query."""
    store = _STORES["small"]
    gated = QueryEngine(store, analyze=True)
    plain = QueryEngine(store)
    import numpy as np

    for query in _generated_corpus(store, 515, 150):
        assert np.array_equal(gated.patients(query),
                              plain.patients(query))
    assert gated.analyzer_counters["analyzed"] == 150
    assert gated.analyzer_counters["errors"] == 0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
