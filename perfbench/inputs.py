"""Seeded inputs for the clinician-loop benchmark.

Everything a run sends to the server is decided here, before any timer
starts: the population, the batches landed later, the sessions (a base
query plus three refinements), and the answer the flat in-memory store
gives for every ``/cohort`` the run will request.  One seed drives it
all, so the same seed always yields the same inputs.

Patients are generated in one block and split by id: the first
``n_base`` form the store that is sharded at set-up, and each following
block of ``batch_size`` ids is one batch.  Queries here are
patient-local (no ``not``), so the flat answer over the landed data is
the flat answer over the whole block restricted to landed ids — which
is how the oracle counts after every append.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from urllib.parse import quote

import numpy as np

from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.shard.writer import subset_store
from repro.simulate.conditions import CONDITIONS
from repro.simulate.fast import generate_store_fast
from repro.simulate.trajectories import StudyWindow

#: Cohort-size band of each session step, as shares of the base
#: population: a session narrows from 6–24 % to 0.3–1 %, i.e. from
#: 10,000–40,000 down to 500–1,680 of the paper's 168,000 patients, so
#: every session spans the same range and runs stay comparable.
STEP_BANDS = ((0.06, 40_000 / 168_000), (0.025, 0.06), (0.01, 0.025),
              (500 / 168_000, 0.01))
#: Events each step's aligned timeline draws, as a multiple of its rows
#: times the mean events per patient: sessions differ in which clauses
#: they combine, not in how heavy a timeline they ask for.  An aligned
#: timeline draws only the rows that hold the anchor concept, so only
#: their events count; they set the cost of the timelines, the slowest
#: requests of a session.
ROW_WEIGHT_BAND = (1.3, 2.6)
#: The query of every freshness probe: most of the population, so each
#: batch changes its count and every probe asks for the same work.
PROBE_QUERY = "category gp_contact"
#: New patients per batch, as a share of the base population.
BATCH_SHARE = 0.005
#: ``ingest_mixed`` lands a batch before every this-many-th session.
#: The first ``/cohort`` after an append materializes the whole store
#: again, which makes it one of the slowest requests of a run; appends
#: stay few enough that these requests keep well clear of the latency
#: tail's rank (the eleventh-largest) even if sessions become twice as
#: fast.
APPEND_EVERY = 4
#: Rows of every session timeline.
TIMELINE_ROWS = 60

_AGE_DAY = StudyWindow.for_year(2012).start_day
_CHAPTER_INDEX = {"T": "T90", "K": "K86", "R": "R95", "P": "P76", "L": "L90"}

#: Index clauses: a condition concept, or an ICPC-2 chapter regex whose
#: timelines align on one catalog condition of that chapter.
INDEX_CLAUSES = (
    [(f"concept {c.icpc2}", c.icpc2) for c in CONDITIONS]
    + [(f"code icpc2 /{ch}.*/", code) for ch, code in _CHAPTER_INDEX.items()]
)
#: Refinement families; a session uses each family at most once.
REFINEMENTS = {
    "gp": [f"atleast {n} category gp_contact" for n in (2, 4, 6, 8, 12)],
    "age": [f"age {lo} .. {hi} at {_AGE_DAY}"
            for lo, hi in ((18, 45), (40, 70), (45, 65), (60, 100),
                           (65, 80), (75, 100))],
    "sex": ["sex F", "sex M"],
    "care": [f"category {c}" for c in (
        "specialist_contact", "emergency_contact", "outpatient_visit",
        "hospital_stay", "home_care")],
}


@dataclass
class Step:
    """One select → view step: the six requests it makes and the
    ``/cohort`` count the flat store gives for it."""

    query: str
    align: str
    patient: int
    expected: int

    def targets(self) -> list[tuple[str, str]]:
        """(route, request target) for the step's six requests."""
        q = quote(self.query)
        return [
            ("cohort", f"/cohort?q={q}"),
            ("timeline", f"/timeline.svg?q={q}&rows={TIMELINE_ROWS}"
                         f"&align={self.align}"),
            ("density", f"/cohort/density?q={q}"),
            ("flow", f"/cohort/flow?q={q}"),
            ("overview", f"/overview.svg?q={q}"),
            ("patient", f"/patient/{self.patient}"),
        ]


@dataclass
class Session:
    """A base query and three refinements; ``batch`` is the batch landed
    just before it (every :data:`APPEND_EVERY`-th session of
    ``ingest_mixed``), else None."""

    steps: list[Step]
    batch: int | None = None


@dataclass
class Inputs:
    base: object                     # EventStore sharded at set-up
    batches: list                    # EventStores appended later
    sessions: list[Session]
    #: (batch, expected count of :data:`PROBE_QUERY` once it landed)
    probes: list[tuple[int, int]] = field(default_factory=list)


class _Oracle:
    """Flat-store answers over the whole generated block.

    Sessions are searched with one patient bitmap per clause (a session
    query is a conjunction of clauses, i.e. the intersection of their
    patient sets); the count a ``/cohort`` must show is then taken from
    the flat engine evaluating the full query text.
    """

    def __init__(self, store, base_end: int, batch_size: int) -> None:
        self.engine = QueryEngine(store, cache=QueryCache())
        self.ids = np.asarray(store.patient_ids)
        self.base_end = base_end
        self.batch_size = batch_size
        self._bitmaps: dict[str, np.ndarray] = {}
        #: events per patient, in the order of ``ids``
        self.events = np.bincount(np.searchsorted(self.ids, store.patient),
                                  minlength=len(self.ids))
        self.mean_events = float(self.events[self.ids < base_end].mean())

    def row_weight(self, bits: np.ndarray, anchored: np.ndarray) -> float:
        """Events the aligned timeline of the cohort ``bits`` draws (the
        rows that are ``anchored``), relative to as many average
        patients as it has rows."""
        rows = np.flatnonzero(bits)[:TIMELINE_ROWS]
        drawn = rows[anchored[rows]]
        return float(self.events[drawn].sum()) / (len(rows) * self.mean_events)

    def landed(self, batches: int) -> np.ndarray:
        """Bitmap of the patients in the store once ``batches`` landed."""
        return self.ids < self.base_end + batches * self.batch_size

    def batch(self, index: int) -> np.ndarray:
        lo = self.base_end + index * self.batch_size
        return (self.ids >= lo) & (self.ids < lo + self.batch_size)

    def bitmap(self, clause: str) -> np.ndarray:
        bits = self._bitmaps.get(clause)
        if bits is None:
            matched = self.engine.patients(parse_query(clause))
            bits = np.isin(self.ids, np.asarray(matched))
            self._bitmaps[clause] = bits
        return bits

    def count(self, query: str, landed: np.ndarray) -> int:
        """The flat engine's answer for the full query text."""
        matched = np.asarray(self.engine.patients(parse_query(query)))
        return int(np.count_nonzero(np.isin(matched, self.ids[landed])))


def _draw_session(rng: random.Random, oracle: _Oracle, landed: np.ndarray,
                  n_base: int, batch: np.ndarray | None, families: list[str]):
    """One session whose steps fall in :data:`STEP_BANDS`, refined by
    ``families`` in order, as ``([(clauses, patient bitmap) per step],
    index concept)`` or None."""
    index, align = rng.choice(INDEX_CLAUSES)
    anchored = oracle.bitmap(f"concept {align}")
    bands = [(lo * n_base, hi * n_base) for lo, hi in STEP_BANDS]
    light, heavy = ROW_WEIGHT_BAND

    def pick(prefix: list[str], bits: np.ndarray, options, band):
        lo, hi = band
        fits = []
        for clause in options:
            step = bits if clause is None else bits & oracle.bitmap(clause)
            if lo <= np.count_nonzero(step & landed) <= hi and \
                    light <= oracle.row_weight(step & landed,
                                               anchored) <= heavy:
                fits.append((prefix + ([clause] if clause else []), step))
        return rng.choice(fits) if fits else (None, None)

    top = oracle.bitmap(index)
    first = [None] + REFINEMENTS[families[0]]
    clauses, bits = pick([index], top, first, bands[0])
    if clauses is None:
        return None
    if batch is not None and not (bits & batch).any():
        return None
    steps = [(clauses, bits)]
    remaining = [f for f in families if f not in
                 {name for name, opts in REFINEMENTS.items()
                  if set(opts) & set(clauses)}]
    for family, band in zip(remaining, bands[1:]):
        clauses, bits = pick(steps[-1][0], steps[-1][1],
                             REFINEMENTS[family], band)
        if clauses is None:
            return None
        steps.append((clauses, bits))
    return steps, align


def make_inputs(seed: int, n_base: int, n_sessions: int,
                n_probes: int = 0, appends: bool = False) -> Inputs:
    """Generate the population, batches, sessions and oracle counts.

    With ``appends``, batch *j* lands before session
    ``j * APPEND_EVERY``, which is only accepted if its base query gains
    patients from that batch, so the first ``/cohort`` after an append
    proves the batch is visible.  ``n_probes`` freshness probes follow
    the measured phase, each after the next unused batch.
    """
    first = -(-n_sessions // APPEND_EVERY) if appends else 0
    n_batches = first + n_probes
    batch_size = max(1, round(n_base * BATCH_SHARE))
    store, _ = generate_store_fast(n_base + n_batches * batch_size,
                                   seed=seed)
    base_end = int(store.patient_ids[0]) + n_base
    oracle = _Oracle(store, base_end, batch_size)
    rng = random.Random(seed)
    used_plans: set[str] = set()
    used_patients: set[int] = set()

    def draw(landed_batches: int, batch: int | None,
             number: int) -> Session | None:
        # Session k refines in the k-th rotation of the family order, so
        # any four consecutive sessions use every family at every step.
        shift = number % len(REFINEMENTS)
        families = list(REFINEMENTS)[shift:] + list(REFINEMENTS)[:shift]
        landed = oracle.landed(landed_batches)
        drawn = _draw_session(rng, oracle, landed, n_base,
                              None if batch is None else oracle.batch(batch),
                              families)
        if drawn is None:
            return None
        steps, align = drawn
        queries = [" and ".join(clauses) for clauses, _ in steps]
        keys = [plan_query(parse_query(q)).key for q in queries]
        if any(key in used_plans for key in keys):
            return None
        chosen = []
        for query, (_, bits) in zip(queries, steps):
            members = oracle.ids[bits & landed]
            fresh = [int(p) for p in members if int(p) not in used_patients]
            if not fresh:
                return None
            chosen.append((query, fresh[rng.randrange(len(fresh))]))
        used_plans.update(keys)
        result = []
        for query, patient in chosen:
            used_patients.add(patient)
            result.append(Step(query, align, patient,
                               oracle.count(query, landed)))
        return Session(result, batch)

    budget = 500 * n_sessions + 1000
    sessions: list[Session] = []
    misses = 0  # a slot that keeps missing moves on to the next rotation
    while len(sessions) < n_sessions:
        budget -= 1
        if budget < 0:
            raise RuntimeError(f"could not draw {n_sessions} sessions from "
                               f"a population of {n_base}")
        k = len(sessions)
        landed, batch = 0, None
        if appends:
            landed = k // APPEND_EVERY + 1
            if k % APPEND_EVERY == 0:
                batch = k // APPEND_EVERY
        drawn = draw(landed, batch, k + misses // 50)
        if drawn is None:
            misses += 1
        else:
            sessions.append(drawn)
            misses = 0
    probes = [(batch, oracle.count(PROBE_QUERY, oracle.landed(batch + 1)))
              for batch in range(first, first + n_probes)]
    pids = store.patient_ids
    base = subset_store(store, pids[pids < base_end])
    batches = [
        subset_store(store, pids[(pids >= base_end + b * batch_size)
                                 & (pids < base_end + (b + 1) * batch_size)])
        for b in range(n_batches)
    ]
    return Inputs(base=base, batches=batches, sessions=sessions,
                  probes=probes)
