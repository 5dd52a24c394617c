"""Today's timeline and overview renderers: the differential oracle.

:class:`TimelineView` builds one :class:`~repro.events.model.History`
per drawn patient and emits every mark as its own SVG element through
the scalar :class:`~repro.viz.svg.SvgDocument` primitives;
:func:`render_density` bins events through a per-event dict and emits
one ``rect`` per non-empty cell.  They are kept here verbatim, with the
two scalar glyph helpers they drew through, so the columnar renderers in
:mod:`repro.viz.timeline_view` and :mod:`repro.viz.density_view` are
checked byte for byte against the plain object-per-event reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cohort.alignment import Alignment
from repro.errors import OntologyError, RenderError
from repro.events.model import History
from repro.events.store import EventStore
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
from repro.viz.colors import HISTORY_BAR, HISTORY_BAR_ALT, assign_colors
from repro.viz.density_view import DensityScene
from repro.viz.legend import render_legend
from repro.viz.svg import SvgDocument
from repro.viz.timeline_view import (
    _CATEGORY_COLORS,
    Mark,
    TimelineConfig,
    _chapter_color,
)

__all__ = ["TimelineScene", "TimelineView", "render_density"]

# Sequential color ramp (light -> dark blue), perceptually ordered.
_RAMP = ("#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6",
         "#4292c6", "#2171b5", "#08519c", "#08306b")


def draw_point_mark(
    svg: SvgDocument,
    mark_class: str,
    x: float,
    y_center: float,
    size: float,
    color: str,
    title: str | None = None,
) -> None:
    """Draw one point glyph centered at ``(x, y_center)``.

    ``size`` is the glyph's nominal height in px (derived from the row
    pitch); at sub-pixel sizes everything degrades to a 1px-wide tick so
    the zoomed-out view stays ink-proportional.
    """
    if size <= 1.2:
        svg.rect(x - 0.5, y_center - max(size, 0.4) / 2, 1.0,
                 max(size, 0.4), fill=color, title=title)
        return
    half = size / 2.0
    if mark_class == "RectangleGlyph":
        svg.rect(x - half * 0.6, y_center - half, size * 0.6, size,
                 fill=color, title=title)
    elif mark_class == "TriangleGlyph":
        svg.polygon(
            [(x, y_center - half), (x - half * 0.8, y_center + half),
             (x + half * 0.8, y_center + half)],
            fill=color, title=title,
        )
    elif mark_class == "ArrowGlyph":
        # Vertical arrow, as the blood-pressure marks in Figure 1.
        svg.line(x, y_center + half, x, y_center - half * 0.4,
                 stroke=color, stroke_width=max(1.0, size / 8))
        svg.polygon(
            [(x, y_center - half), (x - half * 0.45, y_center - half * 0.2),
             (x + half * 0.45, y_center - half * 0.2)],
            fill=color, title=title,
        )
    elif mark_class == "TickGlyph":
        svg.line(x, y_center - half, x, y_center + half,
                 stroke=color, stroke_width=max(1.0, size / 10))
    else:
        raise RenderError(f"unknown point mark class {mark_class!r}")


def draw_band(
    svg: SvgDocument,
    x1: float,
    x2: float,
    y_top: float,
    height: float,
    color: str,
    opacity: float = 0.75,
    title: str | None = None,
) -> None:
    """Draw one interval band (background coloring, Section IV).

    Bands always paint at least one pixel of width so short stays remain
    visible when zoomed far out.
    """
    width = max(1.0, x2 - x1)
    svg.rect(x1, y_top, width, max(height, 0.4), fill=color,
             opacity=opacity, title=title)


@dataclass
class TimelineScene:
    """The rendered artifact plus everything interaction needs."""

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
    marks: list[Mark]
    sampled: bool
    medication_colors: dict[str, str] = field(default_factory=dict)

    def save(self, path: str) -> None:
        """Write the SVG to a file."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.svg_text)

    @property
    def ink_marks(self) -> int:
        """Number of drawn marks (the E9 cost metric)."""
        return len(self.marks)


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

        histories = [self.store.materialize(p) for p in ids]
        shift = {
            p: (-alignment.anchor_of(p) if alignment is not None
                and config.mode == "aligned" else 0)
            for p in ids
        }
        first_day, last_day = self._day_range(histories, shift)

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

        med_colors = self._medication_colors(histories)
        svg = SvgDocument(config.width, config.height)
        marks: list[Mark] = []

        for row, history in enumerate(histories):
            y_top = plot_top + row * row_height
            if y_top > plot_bottom:
                break
            self._render_row(
                svg, marks, history, row, y_top,
                min(row_height, plot_bottom - y_top),
                scale, shift[history.patient_id], med_colors,
                first_day, last_day,
                frozenset(highlight or ()),
            )

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
            marks=marks,
            sampled=sampled,
            medication_colors=med_colors,
        )

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _day_range(
        histories: list[History], shift: dict[int, int]
    ) -> tuple[int, int]:
        starts: list[int] = []
        ends: list[int] = []
        for history in histories:
            span = history.span()
            if span is None:
                continue
            delta = shift[history.patient_id]
            starts.append(span.start + delta)
            ends.append(span.end + delta)
        if not starts:
            raise RenderError("all selected histories are empty")
        return min(starts), max(ends)

    def _medication_colors(self, histories: list[History]) -> dict[str, str]:
        """Assign class colors to the ATC groups present, by frequency."""
        level = self.config.medication_level
        counts: dict[str, int] = {}
        for history in histories:
            for iv in history.intervals:
                if iv.category == "prescription" and iv.code is not None:
                    group = ancestor_at_level(iv.code, level)
                    counts[group] = counts.get(group, 0) + 1
        ordered = sorted(counts, key=lambda g: (-counts[g], g))
        return assign_colors(ordered).colors

    def _render_row(
        self,
        svg: SvgDocument,
        marks: list[Mark],
        history: History,
        row: int,
        y_top: float,
        row_height: float,
        scale: TimeScale,
        shift: int,
        med_colors: dict[str, str],
        first_day: int,
        last_day: int,
        highlight: frozenset[str] = frozenset(),
    ) -> None:
        config = self.config
        pid = history.patient_id
        bar_color = HISTORY_BAR if row % 2 == 0 else HISTORY_BAR_ALT
        span = history.span()
        y_center = y_top + row_height / 2.0
        glyph_size = max(0.5, min(row_height - 2.0, 12.0))
        band_height = max(0.4, row_height - 1.0)

        if span is not None:
            x1 = scale.x(span.start + shift)
            x2 = scale.x(span.end + shift)
            svg.rect(x1, y_top + row_height * 0.15, max(1.0, x2 - x1),
                     max(0.3, row_height * 0.7), fill=bar_color)
            marks.append(Mark(
                patient_id=pid, row=row, x=x1, y=y_top,
                width=max(1.0, x2 - x1), height=row_height,
                kind="bar", mark_class="HistoryBar", color=bar_color,
                day=span.start, end_day=span.end, category="history",
                code=None, detail=f"patient {pid}, {len(history)} events",
            ))

        # Interval bands first (background), then point glyphs (foreground).
        for iv in history.intervals:
            x1 = scale.x(iv.start + shift)
            x2 = scale.x(iv.end + shift)
            if iv.category == "prescription" and iv.code is not None:
                group = ancestor_at_level(iv.code, config.medication_level)
                color = med_colors.get(group, "#888888")
                group_name = (
                    self._atc.get(group).display if group in self._atc else group
                )
                detail = f"{iv.detail or iv.code} [{group_name}]"
            else:
                color = _CATEGORY_COLORS.get(iv.category, "#9E9E9E")
                detail = iv.detail or iv.category
            draw_band(svg, x1, x2, y_top + 0.5, band_height, color,
                      title=self._title(iv.start, detail))
            if iv.code is not None and iv.code in highlight:
                svg.rect(x1 - 1, y_top - 0.5, max(1.0, x2 - x1) + 2,
                         band_height + 2, fill="none",
                         stroke="#FF6F00", stroke_width=1.6)
            marks.append(Mark(
                patient_id=pid, row=row, x=x1, y=y_top + 0.5,
                width=max(1.0, x2 - x1), height=band_height,
                kind="band", mark_class="BandMark", color=color,
                day=iv.start, end_day=iv.end, category=iv.category,
                code=iv.code, detail=detail,
            ))

        contact_categories = {
            "gp_contact", "emergency_contact", "physio_contact",
            "specialist_contact", "outpatient_visit", "day_treatment",
        }
        for event in history.points:
            if not config.draw_contacts and event.category in contact_categories:
                continue
            try:
                spec = visual_spec_for(event.category)
            except OntologyError:
                continue  # unknown category: skip rather than crash the view
            x = scale.x(event.day + shift)
            color = config.color_overrides.get(
                event.category,
                _CATEGORY_COLORS.get(event.category, "#555555"),
            )
            if (config.diagnosis_color_mode == "chapter"
                    and event.category == "diagnosis"
                    and event.code is not None):
                color = _chapter_color(event.code, event.system)
            detail = event.detail or event.category
            if event.code:
                detail = f"{event.code}: {detail}"
            mark_class = config.mark_overrides.get(event.category, spec.mark)
            draw_point_mark(svg, mark_class, x, y_center, glyph_size, color,
                            title=self._title(event.day, detail))
            if event.code is not None and event.code in highlight:
                svg.circle(x, y_center, glyph_size * 0.8 + 2, fill="none",
                           stroke="#FF6F00")
            marks.append(Mark(
                patient_id=pid, row=row, x=x - glyph_size / 2,
                y=y_center - glyph_size / 2, width=glyph_size,
                height=glyph_size, kind="point", mark_class=mark_class,
                color=color, day=event.day, end_day=None,
                category=event.category, code=event.code, detail=detail,
            ))

    @staticmethod
    def _title(day: int, detail: str) -> str:
        return f"{from_day_number(day).isoformat()}  {detail}"


def render_density(
    store: EventStore,
    patient_ids: np.ndarray | list[int] | None = None,
    width: float = 1100.0,
    height: float = 640.0,
    row_buckets: int = 120,
    mask: np.ndarray | None = None,
) -> DensityScene:
    """Render the (patient-bucket x month) density heatmap.

    ``patient_ids`` restricts and orders the vertical axis (default: the
    whole store in id order); ``mask`` optionally restricts which events
    count (e.g. only hospital stays), letting the overview answer
    category-specific questions.
    """
    if patient_ids is None:
        ids = store.patient_ids
    else:
        ids = np.asarray(sorted(int(p) for p in patient_ids), dtype=np.int64)
    if len(ids) == 0:
        raise RenderError("nothing to aggregate: no patients selected")

    event_mask = store.mask_patients(ids.tolist())
    if mask is not None:
        event_mask = event_mask & mask
    days = store.day[event_mask]
    patients = store.patient[event_mask]
    if len(days) == 0:
        raise RenderError("no events to aggregate for this selection")

    # Bin: patient -> bucket row (order within `ids`), day -> month.
    row_buckets = min(row_buckets, len(ids))
    order = {int(pid): i for i, pid in enumerate(ids)}
    patient_rows = np.fromiter(
        (order[int(p)] for p in patients), dtype=np.int64, count=len(patients)
    )
    bucket = (patient_rows * row_buckets) // len(ids)
    month0 = int(days.min()) // 30
    months = days.astype(np.int64) // 30 - month0
    n_months = int(months.max()) + 1

    grid = np.zeros((row_buckets, n_months), dtype=np.int64)
    np.add.at(grid, (bucket, months), 1)
    max_count = int(grid.max())

    margin_left, margin_top, margin_bottom = 70.0, 16.0, 30.0
    plot_w = width - margin_left - 16.0
    plot_h = height - margin_top - margin_bottom
    cell_w = plot_w / n_months
    cell_h = plot_h / row_buckets

    svg = SvgDocument(width, height)
    # Log-scaled ramp: clinical density is heavy-tailed.
    log_max = np.log1p(max_count)
    for row in range(row_buckets):
        for col in range(n_months):
            count = grid[row, col]
            if count == 0:
                continue
            level = int(np.log1p(count) / max(log_max, 1e-9)
                        * (len(_RAMP) - 1))
            svg.rect(
                margin_left + col * cell_w,
                margin_top + row * cell_h,
                max(cell_w, 0.5),
                max(cell_h, 0.5),
                fill=_RAMP[level],
                title=f"bucket {row}, month {col + month0}: {count} events",
            )
    # Axes: month ticks along the bottom, bucket extents on the left.
    svg.line(margin_left, margin_top + plot_h, margin_left + plot_w,
             margin_top + plot_h, stroke="#555555")
    step = max(1, n_months // 12)
    for col in range(0, n_months, step):
        x = margin_left + col * cell_w
        svg.line(x, margin_top + plot_h, x, margin_top + plot_h + 4,
                 stroke="#555555")
        svg.text(x + 2, margin_top + plot_h + 16,
                 f"m{col + month0}", size=9, fill="#555555")
    svg.text(margin_left - 6, margin_top + 10,
             f"{len(ids):,} patients", size=10, fill="#555555",
             anchor="end", rotate=-90)

    return DensityScene(
        svg_text=svg.to_string(),
        n_patients=len(ids),
        n_row_buckets=row_buckets,
        n_month_bins=n_months,
        max_cell_count=max_count,
        grid=grid,
    )
