"""Differential harness: columnar timeline and overview ≡ object renderers.

The served timeline (:class:`repro.viz.timeline_view.TimelineView`) and
overview (:func:`repro.viz.density_view.render_density`) read column
slices and emit marks in batches; ``tests/reference_views.py`` keeps the
renderers they replaced, which build one ``History`` per row and one
SVG element per call.  Every case below renders the same request both
ways on the same store and demands byte-identical SVG and equal scene
data, over four store shapes (flat, 8 hash shards, shards with pending
deltas, R=2) and the configurations that change what is drawn.

The corpus carries edge rows: a patient with no events, events whose
category has no presentation axioms, and free text with markup
characters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cohort.alignment import compute_alignment
from repro.config import ShardConfig
from repro.events.store import EventStoreBuilder, merge_stores
from repro.query.ast import Concept
from repro.query.engine import QueryEngine
from repro.shard import DeltaWriter, ShardedEventStore, write_sharded_store
from repro.simulate.fast import generate_store_fast
from repro.viz.axes import ZoomSliders
from repro.viz.density_view import render_density
from repro.viz.timeline_view import TimelineConfig, TimelineView
from tests import reference_views

EMPTY_PATIENT = 900_001
ODD_PATIENT = 900_002
N_ROWS = 40


def _edge_rows(systems):
    """A patient with no events and one with undrawable and odd events."""
    builder = EventStoreBuilder(systems)
    builder.add_patient(EMPTY_PATIENT, birth_day=-3000, sex="F")
    builder.add_patient(ODD_PATIENT, birth_day=-5000, sex="M")
    builder.add_event(ODD_PATIENT, 15_400, "unmapped_finding",
                      detail="no axioms <here> & \"there\"")
    builder.add_event(ODD_PATIENT, 15_410, "unmapped_course", end=15_440,
                      detail="band <without> axioms")
    builder.add_event(ODD_PATIENT, 15_420, "diagnosis", code="T90",
                      system="ICPC-2", detail="Diabetes & <co>")
    builder.add_event(ODD_PATIENT, 15_420, "diagnosis", code="K86",
                      system="ICPC-2", detail="Diabetes & <co>")
    builder.add_event(ODD_PATIENT, 15_450, "prescription", end=15_500,
                      code="C07AB02", system="ATC", detail="")
    return builder.build()


@pytest.fixture(scope="module")
def corpus():
    base, __ = generate_store_fast(300, seed=23)
    flat = merge_stores(base, _edge_rows(base.systems))
    engine = QueryEngine(flat)
    t90 = engine.patients(Concept("T90")).tolist()
    ids = [ODD_PATIENT, EMPTY_PATIENT] + t90[: N_ROWS - 2]
    return flat, ids, compute_alignment(engine, Concept("T90"))


@pytest.fixture(scope="module")
def stores(corpus, tmp_path_factory):
    """name -> store, every shape holding the corpus."""
    flat, __, ___ = corpus
    root = tmp_path_factory.mktemp("shapes")
    sharded = str(root / "s8.shards")
    write_sharded_store(flat, sharded, n_shards=8, partition="hash")
    pending = str(root / "delta.shards")
    write_sharded_store(flat, pending, n_shards=4, partition="hash")
    writer = DeltaWriter(pending)
    for i in range(2):  # restates a block of existing patients
        writer.append(generate_store_fast(30, seed=40 + i, id_offset=10)[0])
    replicated = str(root / "r2.shards")
    write_sharded_store(flat, replicated, n_shards=4, partition="hash",
                        config=ShardConfig(replication=2))
    opened = {
        "flat": flat,
        "sharded": ShardedEventStore(sharded),
        "delta": ShardedEventStore(pending),
        "r2": ShardedEventStore(replicated),
    }
    assert opened["delta"].has_pending_deltas
    assert opened["r2"].replication == 2
    return opened


CONFIGS = {
    "calendar": ({}, False),
    "aligned": ({"mode": "aligned"}, True),
    "highlight": ({}, False),
    "mark_overrides": ({"mark_overrides": {"diagnosis": "TriangleGlyph",
                                           "gp_contact": "ArrowGlyph"}},
                       False),
    "color_overrides": ({"color_overrides": {"gp_contact": "#0A0B0C",
                                             "diagnosis": "red\"'&<x>"}},
                        False),
    "chapter": ({"diagnosis_color_mode": "chapter"}, False),
    "no_contacts": ({"draw_contacts": False}, False),
    "no_legend": ({"show_legend": False}, False),
    "sampled": ({"max_rows": 15}, False),
    "tiny_glyphs": ({"sliders": ZoomSliders(horizontal=0.4,
                                             vertical=0.15)}, False),
    "rows_past_bottom": ({"sliders": ZoomSliders(horizontal=0.5,
                                                  vertical=0.9)}, False),
}
HIGHLIGHT = frozenset({"T90", "K86", "C07AB02"})


@pytest.mark.parametrize("shape", ["flat", "sharded", "delta", "r2"])
@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_timeline_matches_reference(stores, corpus, shape, case):
    __, ids, alignment = corpus
    options, aligned = CONFIGS[case]
    config = TimelineConfig(**options)
    highlight = HIGHLIGHT if case == "highlight" else None
    store = stores[shape]
    args = (ids, alignment if aligned else None, highlight)
    want = reference_views.TimelineView(store, config).render(*args)
    got = TimelineView(store, config).render(*args)
    assert got.svg_text == want.svg_text
    assert got.ink_marks == len(want.marks)
    assert got.marks == want.marks
    assert got.rows == want.rows
    assert got.sampled == want.sampled
    assert got.row_height == want.row_height
    assert got.scale == want.scale
    assert got.medication_colors == want.medication_colors
    if case == "highlight":
        assert 'stroke="#FF6F00"' in got.svg_text
    if case == "tiny_glyphs":
        assert all(m.width <= 1.2 for m in got.marks if m.kind == "point")
    if case == "rows_past_bottom":
        assert len({m.row for m in got.marks}) < len(got.rows)


def test_edge_rows_are_exercised(stores, corpus):
    __, ids, ___ = corpus
    scene = TimelineView(stores["flat"]).render(ids)
    assert "&lt;co&gt;" in scene.svg_text
    odd = [m for m in scene.marks if m.patient_id == ODD_PATIENT]
    assert {m.category for m in odd} == {
        "history", "unmapped_course", "diagnosis", "prescription"}
    assert not [m for m in scene.marks if m.patient_id == EMPTY_PATIENT]


def test_duplicate_rows_match_reference(stores, corpus):
    __, ids, ___ = corpus
    twice = ids[:5] + ids[:5]
    want = reference_views.TimelineView(stores["sharded"]).render(twice)
    got = TimelineView(stores["sharded"]).render(twice)
    assert got.svg_text == want.svg_text
    assert got.marks == want.marks


@pytest.mark.parametrize("shape", ["flat", "sharded", "delta", "r2"])
@pytest.mark.parametrize("selection", ["ids", "all", "mask"])
def test_density_matches_reference(stores, corpus, shape, selection):
    __, ids, ___ = corpus
    store = stores[shape]
    kwargs = {}
    patient_ids = ids if selection == "ids" else None
    if selection == "mask":
        kwargs["mask"] = store.mask_category("hospital_stay")
    want = reference_views.render_density(store, patient_ids, **kwargs)
    got = render_density(store, patient_ids, **kwargs)
    assert got.svg_text == want.svg_text
    assert np.array_equal(got.grid, want.grid)
    assert got.grid.dtype == want.grid.dtype


def test_sharded_timeline_reads_rows_without_histories(corpus, tmp_path,
                                                       monkeypatch):
    """A 60-row calendar timeline builds no History and merges no store."""
    flat, __, ___ = corpus
    path = str(tmp_path / "count.shards")
    write_sharded_store(flat, path, n_shards=8, partition="hash")
    store = ShardedEventStore(path)
    calls = []
    materialize = ShardedEventStore.materialize

    def counted(self, patient_id):
        calls.append(patient_id)
        return materialize(self, patient_id)

    monkeypatch.setattr(ShardedEventStore, "materialize", counted)
    ids = flat.patient_ids[:60].tolist()
    scene = TimelineView(store).render(ids)
    assert scene.rows == ids
    assert calls == []
    assert store.counters["row_materializations"] == 0
