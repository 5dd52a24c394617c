"""Density overview for very large cohorts.

The paper's conclusion: the tool "can be challenging to use for very
large data sets" — at 100,000 rows each history is far below a pixel.
The Visual Information Seeking Mantra's remedy is a real *overview
first* (Section II-C3): aggregate before drawing.  This view bins the
cohort into (patient-bucket × month) cells, colors cells by event
density, and stays O(pixels), not O(events), in ink — so the 168k
population renders in a fraction of the 5k-row timeline's cost
(benchmarked as part of E9).  Binning is vectorized (``searchsorted``
rows, one ``bincount``) and the non-empty cells are emitted in one
batched pass (:func:`repro.viz.svg.rect_elements`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RenderError
from repro.events.store import EventStore
from repro.viz.svg import SvgDocument, rect_elements

__all__ = ["DensityScene", "render_density"]

# Sequential color ramp (light -> dark blue), perceptually ordered.
_RAMP = ("#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6",
         "#4292c6", "#2171b5", "#08519c", "#08306b")


@dataclass
class DensityScene:
    """The aggregated grid plus its rendering."""

    svg_text: str
    n_patients: int
    n_row_buckets: int
    n_month_bins: int
    max_cell_count: int
    grid: np.ndarray  # (rows, months) event counts

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.svg_text)


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

    # Bin: patient -> bucket row (position within `ids`; the last of
    # equal ids), day -> month.
    row_buckets = min(row_buckets, len(ids))
    patient_rows = np.searchsorted(ids, patients, side="right") - 1
    bucket = (patient_rows * row_buckets) // len(ids)
    month0 = int(days.min()) // 30
    months = days.astype(np.int64) // 30 - month0
    n_months = int(months.max()) + 1

    grid = np.bincount(bucket * n_months + months,
                       minlength=row_buckets * n_months
                       ).reshape(row_buckets, n_months)
    max_count = int(grid.max())

    margin_left, margin_top, margin_bottom = 70.0, 16.0, 30.0
    plot_w = width - margin_left - 16.0
    plot_h = height - margin_top - margin_bottom
    cell_w = plot_w / n_months
    cell_h = plot_h / row_buckets

    svg = SvgDocument(width, height)
    # The non-empty cells, row-major.  Log-scaled ramp: clinical density
    # is heavy-tailed; each distinct count picks its shade once.
    rows, cols = np.nonzero(grid)
    counts = grid[rows, cols]
    log_max = np.log1p(max_count)
    distinct, shade = np.unique(counts, return_inverse=True)
    ramp = np.asarray([
        _RAMP[int(np.log1p(count) / max(log_max, 1e-9) * (len(_RAMP) - 1))]
        for count in distinct.tolist()
    ], dtype=object)
    svg.extend(rect_elements(
        margin_left + cols * cell_w,
        margin_top + rows * cell_h,
        max(cell_w, 0.5),
        max(cell_h, 0.5),
        fill=ramp[shade].tolist(),
        titles=[f"bucket {row}, month {month}: {count} events"
                for row, month, count in zip(rows.tolist(),
                                             (cols + month0).tolist(),
                                             counts.tolist())],
    ))
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
