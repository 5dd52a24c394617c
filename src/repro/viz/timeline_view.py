"""The main visualization: cohort timelines (paper Figure 1).

"The visualization shows each patient history as a bar annotated with
symbols representing the events in the history, and interval concepts
shown by background colorings" (Section IV).  Concretely:

* each row is one patient history — a gray bar spanning its extent;
* point events draw as glyphs (small rectangles for diagnoses, arrows
  for blood pressures, ticks for contacts), per the presentation
  ontology;
* interval events draw as background bands — hospital stays and
  municipal care in fixed structural colors, medication courses colored
  by medication *class* (ATC group), which is what Figure 1's colors
  show;
* the horizontal axis is calendar time, or signed months around the
  anchor in aligned mode (Section IV-B);
* the two zoom sliders set px/day and row pitch.

Rendering reads the drawn patients' rows as column slices of their
store (:meth:`~repro.events.store.EventStore.patient_rows`) — no
``History`` or event objects — puts each row's bands and glyphs in
``History``'s event order with one lexsort over string-rank keys, and
emits every kind of mark in one batch through the column builders of
:mod:`repro.viz.svg` and :mod:`repro.viz.shapes`.

The result is a :class:`TimelineScene`: the SVG text plus the marks,
kept as columns.  :attr:`TimelineScene.marks` builds the flat
:class:`Mark` list the interaction layer hit-tests against on first
access — so details-on-demand latency (experiment E8) is measured on
the same geometry the user sees, and serving the SVG builds none.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from xml.sax.saxutils import escape

import numpy as np

from repro.cohort.alignment import Alignment
from repro.errors import OntologyError, RenderError
from repro.events.store import EVENT_COLUMNS, EventStore, range_rows
from repro.ontology.presentation_ontology import visual_spec_for
from repro.temporal.timeline import from_day_number
from repro.terminology import ancestor_at_level, atc
from repro.viz.axes import (
    TimeScale,
    ZoomSliders,
    render_aligned_axis,
    render_calendar_axis,
    render_patient_axis,
)
from repro.viz.colors import (
    HISTORY_BAR,
    distinct_color,
    HISTORY_BAR_ALT,
    MUNICIPAL_BAND,
    STAY_BAND,
    assign_colors,
)
from repro.viz.legend import render_legend
from repro.viz.shapes import band_elements, point_mark_elements
from repro.viz.svg import SvgDocument, circle_elements, rect_elements

__all__ = ["Mark", "TimelineConfig", "TimelineScene", "TimelineView"]

#: Structural (non-medication) colors per category.
_CATEGORY_COLORS = {
    "diagnosis": "#37474F",
    "symptom": "#78909C",
    "blood_pressure": "#B71C1C",
    "gp_contact": "#455A64",
    "emergency_contact": "#D55E00",
    "physio_contact": "#607D8B",
    "specialist_contact": "#283593",
    "outpatient_visit": "#5C6BC0",
    "day_treatment": "#7986CB",
    "hospital_stay": STAY_BAND,
    "home_care": MUNICIPAL_BAND,
    "nursing_home": "#9CCC9C",
}


def _chapter_color(code: str, system: str | None) -> str:
    """A stable color per terminology chapter (first code letter)."""
    letter = code[0].upper()
    return distinct_color(ord(letter) - ord("A"))


@dataclass(frozen=True)
class Mark:
    """One drawn mark: geometry plus the event identity behind it."""

    patient_id: int
    row: int
    x: float
    y: float
    width: float
    height: float
    kind: str  # "point" | "band" | "bar"
    mark_class: str
    color: str
    day: int
    end_day: int | None
    category: str
    code: str | None
    detail: str


@dataclass(frozen=True)
class TimelineConfig:
    """Rendering configuration for :class:`TimelineView`.

    Attributes:
        width, height: canvas size in px.
        mode: ``"calendar"`` or ``"aligned"`` (needs an alignment).
        sliders: zoom slider state; None fits the cohort to the canvas.
        medication_level: ATC level medication bands are colored by
            (2 = therapeutic subgroup, the beta-blocker granularity).
        max_rows: histories beyond this are evenly sampled (the paper's
            tool "can be challenging to use for very large data sets").
        draw_contacts: include contact tick glyphs (dense; off for the
            simplified patient-facing form).
        show_legend: reserve a right margin and draw the legend.
        mark_overrides: per-category mark-class overrides — LifeLines'
            "attributes can be mapped to different graphical
            representations by the user" (Section II-D1).  Values must
            be point-mark classes from the presentation ontology.
        color_overrides: per-category color overrides (hex strings).
        diagnosis_color_mode: ``"uniform"`` (Figure 1's dark glyphs) or
            ``"chapter"`` — color diagnosis glyphs by ICPC-2 chapter /
            ICD-10 chapter, a user-selectable abstraction level.
    """

    width: float = 1280.0
    height: float = 760.0
    mode: str = "calendar"
    sliders: ZoomSliders | None = None
    medication_level: int = 2
    max_rows: int = 20_000
    draw_contacts: bool = True
    show_legend: bool = True
    margin_left: float = 88.0
    margin_top: float = 16.0
    margin_bottom: float = 42.0
    mark_overrides: dict[str, str] = field(default_factory=dict)
    color_overrides: dict[str, str] = field(default_factory=dict)
    diagnosis_color_mode: str = "uniform"

    _POINT_MARKS = ("RectangleGlyph", "TriangleGlyph", "ArrowGlyph",
                    "TickGlyph")

    def __post_init__(self) -> None:
        if self.mode not in ("calendar", "aligned"):
            raise RenderError(f"unknown mode {self.mode!r}")
        if self.diagnosis_color_mode not in ("uniform", "chapter"):
            raise RenderError(
                f"unknown diagnosis color mode {self.diagnosis_color_mode!r}"
            )
        for category, mark in self.mark_overrides.items():
            if mark not in self._POINT_MARKS:
                raise RenderError(
                    f"mark override for {category!r} must be one of "
                    f"{self._POINT_MARKS}, got {mark!r}"
                )

    @property
    def margin_right(self) -> float:
        return 190.0 if self.show_legend else 12.0


#: The :class:`Mark` fields, in constructor order.
_MARK_FIELDS = tuple(f.name for f in fields(Mark))

#: Glyph categories ``draw_contacts=False`` leaves out.
_CONTACT_CATEGORIES = frozenset({
    "gp_contact", "emergency_contact", "physio_contact",
    "specialist_contact", "outpatient_visit", "day_treatment",
})

#: The pop-out halo around highlighted marks.
_HIGHLIGHT = "#FF6F00"


class _MarkColumns:
    """Every drawn mark's :class:`Mark` fields as columns.

    ``columns`` maps each field to a numpy array or a list in build
    order; ``order`` permutes build order into paint order.
    """

    def __init__(self, columns: dict[str, Sequence], order: np.ndarray):
        self.columns = columns
        self.order = order

    def __len__(self) -> int:
        return len(self.order)

    def build(self) -> list[Mark]:
        """The :class:`Mark` objects, in paint order."""
        idx = self.order.tolist()
        values = []
        for name in _MARK_FIELDS:
            column = self.columns[name]
            if isinstance(column, np.ndarray):
                values.append(column[self.order].tolist())
            else:
                values.append([column[i] for i in idx])
        return [Mark(*mark) for mark in zip(*values)]


@dataclass
class TimelineScene:
    """The rendered artifact plus everything interaction needs.

    The marks are kept as columns; :attr:`marks` builds the
    :class:`Mark` list on first access.
    """

    svg_text: str
    width: float
    height: float
    plot_left: float
    plot_top: float
    plot_right: float
    plot_bottom: float
    scale: TimeScale
    row_height: float
    rows: list[int]  # patient ids, top to bottom
    mark_columns: _MarkColumns = field(repr=False, compare=False)
    sampled: bool
    medication_colors: dict[str, str] = field(default_factory=dict)
    _marks: list[Mark] | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def marks(self) -> list[Mark]:
        """Every drawn mark, in paint order (built on first access)."""
        if self._marks is None:
            self._marks = self.mark_columns.build()
        return self._marks

    def save(self, path: str) -> None:
        """Write the SVG to a file."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.svg_text)

    @property
    def ink_marks(self) -> int:
        """Number of drawn marks (the E9 cost metric)."""
        return len(self.mark_columns)


def _string_ranks(strings: Sequence[str]) -> np.ndarray:
    """Each string's position in string order (equal strings tie)."""
    rank = {s: i for i, s in enumerate(sorted(set(strings)))}
    return np.asarray([rank[s] for s in strings], dtype=np.int64)


class _Events:
    """The events of the rows to draw, row after row, as columns.

    Row ``k`` holds patient ``ids[k]``'s rows of ``store`` (a patient
    listed twice is drawn twice); ``row`` maps each event to its row.
    Codes are decoded once per distinct (system, code) pair: each
    event's ``code_idx`` points into ``codes``, a list of
    ``(code, system)`` pairs with ``None`` for what an event lacks.
    """

    def __init__(self, store: EventStore, ids: list[int]) -> None:
        self.store = store
        wanted = np.asarray(ids, dtype=np.int64)
        lo = np.searchsorted(store.patient, wanted, side="left")
        hi = np.searchsorted(store.patient, wanted, side="right")
        self.counts = hi - lo
        self.row = np.repeat(np.arange(len(ids)), self.counts)
        take = range_rows(lo, hi)
        for name in EVENT_COLUMNS:
            setattr(self, name, getattr(store, name)[take])
        key = ((self.system.astype(np.int64) + 1) << 32) \
            | (self.code.astype(np.int64) + 1)
        distinct, self.code_idx = np.unique(key, return_inverse=True)
        self.codes: list[tuple[str | None, str | None]] = []
        for k in distinct.tolist():
            system_idx, code_idx = (k >> 32) - 1, (k & 0xFFFFFFFF) - 1
            system = (None if system_idx < 0
                      else store.system_names[system_idx])
            code = (None if code_idx < 0 or system is None
                    else store.systems[system].code_of(code_idx).code)
            self.codes.append((code, system))

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row: has events, first day, end day (``History.span``)."""
        nonempty = self.counts > 0
        start = np.zeros(len(self.counts), dtype=np.int64)
        end = np.zeros(len(self.counts), dtype=np.int64)
        first = (np.cumsum(self.counts) - self.counts)[nonempty]
        if len(first):
            start[nonempty] = np.minimum.reduceat(self.day, first)
            end[nonempty] = np.maximum.reduceat(
                np.where(self.is_point, self.day + 1, self.end), first
            )
        return nonempty, start, end


class TimelineView:
    """Renders timeline scenes from an event store."""

    def __init__(self, store: EventStore, config: TimelineConfig | None = None):
        self.store = store
        self.config = config or TimelineConfig()
        self._atc = atc()

    # -- public -------------------------------------------------------------

    def render(
        self,
        patient_ids: list[int] | np.ndarray,
        alignment: Alignment | None = None,
        highlight: set[str] | frozenset[str] | None = None,
    ) -> TimelineScene:
        """Render the given patients (in the given vertical order).

        ``highlight`` is a set of code identifiers; marks carrying one of
        them get a pop-out halo (the LifeLines related-item search of
        Section II-D1, and a preattentive single-feature cue per
        Section II-B1).
        """
        config = self.config
        ids = [int(p) for p in patient_ids]
        if config.mode == "aligned":
            if alignment is None:
                raise RenderError("aligned mode needs an Alignment")
            ids = [p for p in ids if p in alignment]
        if not ids:
            raise RenderError("nothing to draw: no patients selected")
        sampled = False
        if len(ids) > config.max_rows:
            step = len(ids) / config.max_rows
            ids = [ids[int(i * step)] for i in range(config.max_rows)]
            sampled = True

        events = _Events(self.store.patient_rows(ids), ids)
        aligned = alignment is not None and config.mode == "aligned"
        shift = np.asarray(
            [-alignment.anchor_of(p) if aligned else 0 for p in ids],
            dtype=np.int64,
        )
        spans = events.spans()
        nonempty, span_start, span_end = spans
        if not nonempty.any():
            raise RenderError("all selected histories are empty")
        first_day = int((span_start + shift)[nonempty].min())
        last_day = int((span_end + shift)[nonempty].max())

        plot_left = config.margin_left
        plot_top = config.margin_top
        plot_right = config.width - config.margin_right
        plot_bottom = config.height - config.margin_bottom
        plot_w = plot_right - plot_left
        plot_h = plot_bottom - plot_top
        if plot_w <= 0 or plot_h <= 0:
            raise RenderError("margins leave no plot area")

        sliders = config.sliders or ZoomSliders.fit(
            last_day - first_day, len(ids), plot_w, plot_h
        )
        scale = TimeScale(first_day, sliders.px_per_day, plot_left)
        row_height = sliders.row_height

        med_colors = self._medication_colors(events)
        svg = SvgDocument(config.width, config.height)
        # Rows whose top edge lies inside the plot; the last may be cut.
        y_top = plot_top + np.arange(len(ids)) * row_height
        y_top = y_top[:int(np.searchsorted(y_top, plot_bottom, "right"))]
        markup, mark_columns = self._draw_rows(
            events, ids, y_top, np.minimum(row_height, plot_bottom - y_top),
            scale, shift, spans, med_colors, frozenset(highlight or ()),
        )
        svg.extend(markup)

        # Axes last, above the data ink.
        if config.mode == "aligned":
            render_aligned_axis(svg, scale, first_day, last_day,
                                plot_bottom + 2, plot_top)
        else:
            render_calendar_axis(svg, scale, first_day, last_day,
                                 plot_bottom + 2, plot_top)
        render_patient_axis(svg, ids, row_height, plot_top, plot_left - 6)
        if config.show_legend:
            render_legend(svg, plot_right + 14, plot_top, med_colors,
                          _CATEGORY_COLORS)

        return TimelineScene(
            svg_text=svg.to_string(),
            width=config.width,
            height=config.height,
            plot_left=plot_left,
            plot_top=plot_top,
            plot_right=plot_right,
            plot_bottom=plot_bottom,
            scale=scale,
            row_height=row_height,
            rows=ids,
            mark_columns=mark_columns,
            sampled=sampled,
            medication_colors=med_colors,
        )

    # -- internals ------------------------------------------------------------

    def _medication_colors(self, events: _Events) -> dict[str, str]:
        """Assign class colors to the ATC groups present, by frequency."""
        level = self.config.medication_level
        categories = events.store.categories
        if "prescription" not in categories:
            return assign_colors([]).colors
        courses = ((events.category == categories.index("prescription"))
                   & ~events.is_point)
        code_idx, n = np.unique(events.code_idx[courses], return_counts=True)
        counts: dict[str, int] = {}
        for i, count in zip(code_idx.tolist(), n.tolist()):
            code = events.codes[i][0]
            if code is not None:
                group = ancestor_at_level(code, level)
                counts[group] = counts.get(group, 0) + count
        ordered = sorted(counts, key=lambda g: (-counts[g], g))
        return assign_colors(ordered).colors

    def _draw_rows(
        self,
        events: _Events,
        ids: list[int],
        y_top: np.ndarray,
        height: np.ndarray,
        scale: TimeScale,
        shift: np.ndarray,
        spans: tuple[np.ndarray, np.ndarray, np.ndarray],
        med_colors: dict[str, str],
        highlight: frozenset[str],
    ) -> tuple[list[str], _MarkColumns]:
        """Markup for the rows drawn (``y_top`` and clipped ``height`` per
        row), in paint order, and their marks.

        Each row paints its history bar, then its interval bands, then
        its point glyphs, each set in ``History``'s event order.
        """
        config = self.config
        store = events.store
        categories = store.categories
        n_drawn = len(y_top)
        drawn = int(events.counts[:n_drawn].sum())
        y_center = y_top + height / 2.0
        glyph_size = np.maximum(0.5, np.minimum(height - 2.0, 12.0))
        band_height = np.maximum(0.4, height - 1.0)
        pids = np.asarray(ids, dtype=np.int64)

        # History bars, one per non-empty row.
        nonempty, span_start, span_end = spans
        bars = np.flatnonzero(nonempty[:n_drawn])
        bar_x1 = scale.x(span_start[bars] + shift[bars])
        bar_width = np.maximum(1.0, scale.x(span_end[bars] + shift[bars])
                               - bar_x1)
        bar_colors = [HISTORY_BAR if row % 2 == 0 else HISTORY_BAR_ALT
                      for row in bars.tolist()]
        bar_markup = rect_elements(
            bar_x1, y_top[bars] + height[bars] * 0.15, bar_width,
            np.maximum(0.3, height[bars] * 0.7), fill=bar_colors,
        )

        # Sort keys: ``History`` orders events by day, category, code,
        # source, detail and value (None first), comparing strings as
        # strings, so each string column sorts by its rank.
        day = events.day[:drawn]
        end = events.end[:drawn]
        row = events.row[:drawn]
        category = events.category[:drawn]
        code_idx = events.code_idx[:drawn]
        detail_ids, detail = np.unique(events.detail[:drawn],
                                       return_inverse=True)
        detail_text = [store.details[i] for i in detail_ids.tolist()]
        value = np.where(np.isnan(events.value[:drawn]), -np.inf,
                         events.value[:drawn])
        value2 = np.where(np.isnan(events.value2[:drawn]), -np.inf,
                          events.value2[:drawn])
        cat_rank = _string_ranks(categories)[category]
        src_rank = _string_ranks(store.sources)[events.source[:drawn]]
        code_rank = _string_ranks([code or "" for code, _ in events.codes])[
            code_idx]
        det_rank = _string_ranks(detail_text)[detail]
        is_point = events.is_point[:drawn]

        # How an event draws depends only on its (category, code,
        # detail): describe each distinct triple once.
        look = np.ravel_multi_index(
            (category, code_idx, detail),
            (len(categories), len(events.codes), len(detail_text)),
        )

        def describe_each(selected: np.ndarray, describe, width: int):
            """The ``width`` columns ``describe(category, code, system,
            detail)`` gives, for each selected event in order."""
            __, first, inverse = np.unique(look[selected], return_index=True,
                                           return_inverse=True)
            table = np.empty((len(first), width), dtype=object)
            for j, i in enumerate(selected[first].tolist()):
                table[j] = describe(categories[category[i]],
                                    *events.codes[code_idx[i]],
                                    detail_text[detail[i]])
            return [column.tolist() for column in table[inverse].T]

        # Interval bands.
        bands = np.flatnonzero(~is_point)
        bands = bands[np.lexsort((
            value[bands], det_rank[bands], src_rank[bands], code_rank[bands],
            cat_rank[bands], end[bands], day[bands], row[bands],
        ))]
        level = config.medication_level

        def describe_band(name, code, system, text):
            if name == "prescription" and code is not None:
                group = ancestor_at_level(code, level)
                group_name = (self._atc.get(group).display
                              if group in self._atc else group)
                return (name, code, med_colors.get(group, "#888888"),
                        f"{text or code} [{group_name}]")
            return name, code, _CATEGORY_COLORS.get(name, "#9E9E9E"), \
                text or name

        band_cats, band_codes, band_colors, band_details = describe_each(
            bands, describe_band, 4)
        band_rows = row[bands]
        band_x1 = scale.x(day[bands] + shift[band_rows])
        band_x2 = scale.x(end[bands] + shift[band_rows])
        band_width = np.maximum(1.0, band_x2 - band_x1)

        # Point glyphs, for the categories the presentation ontology
        # draws (and, unless asked for, without contacts).
        specs: dict[int, str] = {}
        for cat in np.unique(category[is_point]).tolist():
            name = categories[cat]
            if not config.draw_contacts and name in _CONTACT_CATEGORIES:
                continue
            try:
                specs[cat] = visual_spec_for(name).mark
            except OntologyError:
                continue  # unknown category: skip rather than crash the view
        points = np.flatnonzero(is_point & np.isin(category, list(specs)))
        points = points[np.lexsort((
            value2[points], value[points], det_rank[points], src_rank[points],
            code_rank[points], cat_rank[points], day[points], row[points],
        ))]
        spec_of = {categories[cat]: mark for cat, mark in specs.items()}

        def describe_point(name, code, system, text):
            color = config.color_overrides.get(
                name, _CATEGORY_COLORS.get(name, "#555555"))
            if (config.diagnosis_color_mode == "chapter"
                    and name == "diagnosis" and code is not None):
                color = _chapter_color(code, system)
            text = text or name
            return (name, code, config.mark_overrides.get(name, spec_of[name]),
                    color, f"{code}: {text}" if code else text)

        point_cats, point_codes, point_classes, point_colors, point_details = \
            describe_each(points, describe_point, 5)
        point_rows = row[points]
        point_x = scale.x(day[points] + shift[point_rows])
        point_y = y_center[point_rows]
        point_size = glyph_size[point_rows]

        # Titles: one date per distinct day, one escape per distinct detail.
        dates = {d: from_day_number(d).isoformat()
                 for d in np.unique(day[np.concatenate((bands, points))])
                 .tolist()}
        escaped = {text: escape(text)
                   for text in set(band_details) | set(point_details)}
        band_markup = band_elements(
            band_x1, band_x2, y_top[band_rows] + 0.5, band_height[band_rows],
            band_colors,
            [f"{dates[d]}  {escaped[t]}"
             for d, t in zip(day[bands].tolist(), band_details)],
        )
        point_markup = point_mark_elements(
            point_classes, point_x, point_y, point_size, point_colors,
            [f"{dates[d]}  {escaped[t]}"
             for d, t in zip(day[points].tolist(), point_details)],
        )

        # Highlight halos follow the mark they ring.
        highlit = np.asarray([code in highlight for code, _ in events.codes],
                             dtype=bool)[code_idx]
        lit = np.flatnonzero(highlit[bands])
        lit_rows = band_rows[lit]
        for i, halo in zip(lit.tolist(), rect_elements(
                band_x1[lit] - 1, y_top[lit_rows] - 0.5, band_width[lit] + 2,
                band_height[lit_rows] + 2, fill="none", stroke=_HIGHLIGHT,
                stroke_width=1.6)):
            band_markup[i] += halo
        lit = np.flatnonzero(highlit[points])
        for i, halo in zip(lit.tolist(), circle_elements(
                point_x[lit], point_y[lit], point_size[lit] * 0.8 + 2,
                fill="none", stroke=_HIGHLIGHT)):
            point_markup[i] += halo

        # Paint order: per row, the bar, then bands, then glyphs.
        mark_rows = np.concatenate((bars, band_rows, point_rows))
        order = np.argsort(np.concatenate((
            bars * 3, band_rows * 3 + 1, point_rows * 3 + 2,
        )), kind="stable")
        markup = bar_markup + band_markup + point_markup
        n_bars, n_bands, n_points = len(bars), len(bands), len(points)
        columns = {
            "patient_id": pids[mark_rows],
            "row": mark_rows,
            "x": np.concatenate((bar_x1, band_x1,
                                 point_x - point_size / 2)),
            "y": np.concatenate((y_top[bars], y_top[band_rows] + 0.5,
                                 point_y - point_size / 2)),
            "width": np.concatenate((bar_width, band_width, point_size)),
            "height": np.concatenate((height[bars], band_height[band_rows],
                                      point_size)),
            "kind": ["bar"] * n_bars + ["band"] * n_bands
                    + ["point"] * n_points,
            "mark_class": ["HistoryBar"] * n_bars + ["BandMark"] * n_bands
                          + point_classes,
            "color": bar_colors + band_colors + point_colors,
            "day": np.concatenate((span_start[bars], day[bands],
                                   day[points])),
            "end_day": span_end[bars].tolist() + end[bands].tolist()
                       + [None] * n_points,
            "category": ["history"] * n_bars + band_cats + point_cats,
            "code": [None] * n_bars + band_codes + point_codes,
            "detail": [f"patient {ids[r]}, {events.counts[r]} events"
                       for r in bars.tolist()]
                      + band_details + point_details,
        }
        return ([markup[i] for i in order.tolist()],
                _MarkColumns(columns, order))
