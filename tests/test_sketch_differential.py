"""Differential harness: sketch folds ≡ brute-force row recomputation.

The sketch subsystem is only admissible if pre-aggregation is
*invisible*: for any cohort, folding per-shard sketch sidecars must
produce exactly the counts a full scan of the materialized rows
produces.  This suite proves that equivalence three ways:

* an **independent pure-Python reference builder** (its own row sort,
  its own chapter-root walk, dict-and-loop aggregation — no shared
  vectorized code) must agree with :func:`repro.sketch.build_sketch`;
* whole-store and query-masked sketches over {1, 2, 7} shards ×
  {0, 1, 3} pending delta batches (and post-compaction) must equal the
  brute-force recomputation from ``materialize_store()`` rows, with the
  query corpus reusing the seeded 17-node AST generator;
* the merge algebra must be associative and invariant under shard
  permutation.

The canonical row order matters: same-``(patient, day)`` rows have no
inherent order and delta resolution may permute them, so both builders
sort by the full event-identity key before counting transitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query.engine import QueryEngine
from repro.shard import (
    Compactor,
    DeltaWriter,
    ShardedEventStore,
    write_sharded_store,
)
from repro.shard.writer import subset_store
from repro.sketch import SketchSpec, build_sketch, merge_sketches
from repro.sketch.chapters import UNCODED_GROUP
from repro.simulate.fast import generate_store_fast
from tests.test_query_planner_property import _generated_corpus

SPEC = SketchSpec()


# -- independent reference implementation --------------------------------------


def _row_tuples(store) -> list[tuple]:
    """Rows as plain tuples in the canonical event-identity order."""
    columns = [
        np.asarray(c).tolist()
        for c in (store.patient, store.day, store.end, store.is_point,
                  store.category, store.system, store.code, store.source)
    ]
    return sorted(zip(*columns))


def _root_label(store, system_idx: int, code_id: int,
                memo: dict) -> str:
    """Chapter label via a hand-rolled parent walk (not ChapterIndex)."""
    key = (system_idx, code_id)
    if key not in memo:
        name = store.system_names[system_idx]
        system = store.systems[name]
        code = list(system)[code_id].code
        while system.get(code).parent is not None:
            code = system.get(code).parent
        memo[key] = f"{name}:{code}"
    return memo[key]


def brute_sketch_counts(store, spec: SketchSpec = SPEC) -> dict:
    """Aggregate counts by looping over rows — the trusted oracle.

    Returns plain dicts keyed by labels/absolute buckets so comparison
    against a :class:`CohortSketch` is axis-order independent.
    """
    rows = _row_tuples(store)
    memo: dict = {}
    density: dict = {}
    bucket_patients: dict = {}
    group_patients: dict = {}
    flow: dict = {}
    flow_starts: dict = {}
    seen_bucket: set = set()
    seen_group: set = set()
    categories = list(store.categories)

    per_patient_coded: dict[int, list[str]] = {}
    for patient, day, __, ___, category, system, code, ____ in rows:
        coded = system >= 0 and code >= 0
        label = (_root_label(store, system, code, memo) if coded
                 else UNCODED_GROUP)
        bucket = day // spec.bucket_days
        density[(bucket, label, categories[category])] = (
            density.get((bucket, label, categories[category]), 0) + 1
        )
        if (patient, bucket) not in seen_bucket:
            seen_bucket.add((patient, bucket))
            bucket_patients[bucket] = bucket_patients.get(bucket, 0) + 1
        if (patient, label) not in seen_group:
            seen_group.add((patient, label))
            group_patients[label] = group_patients.get(label, 0) + 1
        if coded:
            per_patient_coded.setdefault(patient, []).append(label)
    for labels in per_patient_coded.values():
        flow_starts[labels[0]] = flow_starts.get(labels[0], 0) + 1
        for src, dst in zip(labels[: spec.first_k - 1],
                            labels[1: spec.first_k]):
            flow[(src, dst)] = flow.get((src, dst), 0) + 1

    age_sex: dict = {}
    first_day = {}
    for patient, day, *__ in rows:
        if patient not in first_day:
            first_day[patient] = day
    ids = np.asarray(store.patient_ids).tolist()
    births = np.asarray(store.birth_days).tolist()
    sexes = np.asarray(store.sexes).tolist()
    for pid, birth, sex in zip(ids, births, sexes):
        age = (first_day.get(pid, 0) - birth) // 365
        band = min(max(age // spec.age_band_years, 0), spec.n_age_bands - 1)
        sex = min(max(sex, 0), 2)
        age_sex[(band, sex)] = age_sex.get((band, sex), 0) + 1

    return {
        "n_patients": len(ids),
        "n_events": len(rows),
        "density": density,
        "bucket_patients": bucket_patients,
        "group_patients": group_patients,
        "flow": flow,
        "flow_starts": flow_starts,
        "age_sex": age_sex,
    }


def sketch_as_counts(sketch) -> dict:
    """A CohortSketch flattened to the oracle's dict-of-nonzero shape."""
    out = {
        "n_patients": int(sketch.n_patients),
        "n_events": int(sketch.n_events),
        "density": {},
        "bucket_patients": {},
        "group_patients": {},
        "flow": {},
        "flow_starts": {},
        "age_sex": {},
    }
    for b, g, c in zip(*np.nonzero(sketch.density)):
        out["density"][
            (sketch.bucket_lo + int(b), sketch.groups[g],
             sketch.categories[c])
        ] = int(sketch.density[b, g, c])
    for b in np.nonzero(sketch.bucket_patients)[0]:
        out["bucket_patients"][sketch.bucket_lo + int(b)] = int(
            sketch.bucket_patients[b]
        )
    for g in np.nonzero(sketch.group_patients)[0]:
        out["group_patients"][sketch.groups[g]] = int(
            sketch.group_patients[g]
        )
    for s, d in zip(*np.nonzero(sketch.flow)):
        out["flow"][(sketch.groups[s], sketch.groups[d])] = int(
            sketch.flow[s, d]
        )
    for g in np.nonzero(sketch.flow_starts)[0]:
        out["flow_starts"][sketch.groups[g]] = int(sketch.flow_starts[g])
    for band, sex in zip(*np.nonzero(sketch.age_sex)):
        out["age_sex"][(int(band), int(sex))] = int(
            sketch.age_sex[band, sex]
        )
    return out


def assert_sketch_matches_rows(sketch, store, context: str = "") -> None:
    expected = brute_sketch_counts(store)
    got = sketch_as_counts(sketch)
    for key in expected:
        assert got[key] == expected[key], (
            f"{context}: sketch {key} diverged from brute force"
        )


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_store():
    store, __ = generate_store_fast(220, seed=11)
    return store


def _delta_batches(n: int):
    """Overlapping append batches (same id block → contested patients)."""
    return [
        generate_store_fast(60, seed=100 + i, id_offset=40 * i)[0]
        for i in range(n)
    ]


def _build(tmp_path, flat_store, n_shards, n_deltas):
    path = str(tmp_path / f"s{n_shards}d{n_deltas}.shards")
    write_sharded_store(flat_store, path, n_shards=n_shards,
                        partition="hash")
    writer = DeltaWriter(path)
    for batch in _delta_batches(n_deltas):
        writer.append(batch)
    return ShardedEventStore(path)


# -- the differential ----------------------------------------------------------


def test_reference_builder_agrees_with_build_sketch(flat_store):
    """The vectorized builder ≡ the loop-and-dict oracle, field by field."""
    assert_sketch_matches_rows(build_sketch(flat_store), flat_store,
                               "flat store")


@pytest.mark.parametrize("n_shards", [1, 2, 7])
@pytest.mark.parametrize("n_deltas", [0, 1, 3])
def test_store_sketch_equals_brute_force(tmp_path, flat_store, n_shards,
                                         n_deltas):
    """Sidecar folds (plus contested-patient delta algebra) are exact."""
    sharded = _build(tmp_path, flat_store, n_shards, n_deltas)
    context = f"{n_shards} shard(s), {n_deltas} pending delta batch(es)"
    assert_sketch_matches_rows(
        sharded.store_sketch(), sharded.materialize_store(), context
    )
    if n_deltas:
        # The delta path must not have been served from sidecars alone.
        assert sharded.counters["sketch_delta_resketches"] > 0
    # Post-compaction the fold is sidecar-only and still exact.
    Compactor(sharded.path).compact()
    sharded.refresh()
    assert_sketch_matches_rows(
        sharded.store_sketch(), sharded.materialize_store(),
        context + ", compacted",
    )


@pytest.mark.parametrize("n_shards,n_deltas", [(2, 0), (7, 1), (2, 3)])
def test_query_masked_sketch_equals_brute_force(tmp_path, flat_store,
                                                n_shards, n_deltas):
    """Query-refined sketches over the 17-node AST corpus are exact."""
    sharded = _build(tmp_path, flat_store, n_shards, n_deltas)
    flat = sharded.materialize_store()
    engine = QueryEngine(flat)
    executor = sharded_executor(sharded)
    for i, query in enumerate(_generated_corpus(flat, 2016, 25)):
        ids = engine.patients(query)
        sketch = executor.sketch_shards(sharded, query)
        assert_sketch_matches_rows(
            sketch, subset_store(flat, ids),
            f"case {i}, {n_shards} shard(s), {n_deltas} delta(s)",
        )


def sharded_executor(sharded):
    from repro.shard import ParallelExecutor

    return ParallelExecutor(config=sharded.config)


# -- algebra -------------------------------------------------------------------


def test_merge_is_associative(tmp_path, flat_store):
    sharded = _build(tmp_path, flat_store, 7, 0)
    sketches = [sharded.shard_sketch(i) for i in sharded.active_indices()]
    left = sketches[0]
    for s in sketches[1:]:
        left = left.merge(s)
    right = sketches[-1]
    for s in reversed(sketches[:-1]):
        right = s.merge(right)
    assert left.content_equal(right)
    assert left.content_equal(merge_sketches(sketches))


def test_fold_is_shard_permutation_invariant(tmp_path, flat_store):
    rng = np.random.default_rng(5)
    sharded = _build(tmp_path, flat_store, 7, 1)
    sketches = [sharded.shard_sketch(i) for i in sharded.active_indices()]
    baseline = merge_sketches(sketches)
    for __ in range(5):
        order = rng.permutation(len(sketches))
        permuted = merge_sketches([sketches[i] for i in order])
        assert permuted.content_equal(baseline)
        assert sketch_as_counts(permuted) == sketch_as_counts(baseline)


def test_subtract_inverts_merge(tmp_path, flat_store):
    sharded = _build(tmp_path, flat_store, 2, 0)
    a = sharded.shard_sketch(0)
    b = sharded.shard_sketch(1)
    assert a.merge(b).subtract(b).content_equal(a)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
