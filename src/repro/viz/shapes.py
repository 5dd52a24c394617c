"""The glyph catalog: how each presentation-ontology mark class draws.

Section II-B2 (choice of shapes): preattentively processed shapes are
simple and mutually distinct.  The catalog keeps four point-mark
families — rectangle (diagnoses), triangle (symptoms), arrow
(observations; Figure 1 uses arrows for blood pressures), tick
(contacts) — plus the interval band.  Dispatch is by the mark-class
names defined in :mod:`repro.ontology.presentation_ontology`, so the
ontology stays the single source of truth for which event draws how.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.errors import RenderError
from repro.viz.svg import (
    SvgDocument,
    line_elements,
    polygon_elements,
    rect_elements,
)

__all__ = ["draw_point_mark", "draw_band", "point_mark_elements",
           "band_elements"]

#: Glyphs at or below this size (px) all draw as a 1 px wide tick.
_TINY = 1.2


def _glyph(mark_class: str, x, y_center, size) -> list[tuple]:
    """The primitives one point glyph draws, in paint order.

    ``("rect", (x, y, width, height))`` and ``("polygon", vertices)``
    are filled with the glyph color and carry its title; ``("line",
    (x1, y1, x2, y2, stroke_width))`` is stroked in it, untitled.  The
    arithmetic works on floats and numpy columns alike, so single glyphs
    and batches draw the same geometry.
    """
    half = size / 2.0
    if mark_class == "RectangleGlyph":
        return [("rect", (x - half * 0.6, y_center - half, size * 0.6, size))]
    if mark_class == "TriangleGlyph":
        return [("polygon", [(x, y_center - half),
                             (x - half * 0.8, y_center + half),
                             (x + half * 0.8, y_center + half)])]
    if mark_class == "ArrowGlyph":
        # Vertical arrow, as the blood-pressure marks in Figure 1.
        return [
            ("line", (x, y_center + half, x, y_center - half * 0.4,
                      np.maximum(1.0, size / 8))),
            ("polygon", [(x, y_center - half),
                         (x - half * 0.45, y_center - half * 0.2),
                         (x + half * 0.45, y_center - half * 0.2)]),
        ]
    if mark_class == "TickGlyph":
        return [("line", (x, y_center - half, x, y_center + half,
                          np.maximum(1.0, size / 10)))]
    raise RenderError(f"unknown point mark class {mark_class!r}")


def _tiny_glyph(x, y_center, size) -> list[tuple]:
    """A sub-pixel glyph of any class: a 1px-wide tick."""
    height = np.maximum(size, 0.4)
    return [("rect", (x - 0.5, y_center - height / 2, 1.0, height))]


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
    primitives = (_tiny_glyph(x, y_center, size) if size <= _TINY
                  else _glyph(mark_class, x, y_center, size))
    for kind, geometry in primitives:
        if kind == "rect":
            svg.rect(*geometry, fill=color, title=title)
        elif kind == "polygon":
            svg.polygon(geometry, fill=color, title=title)
        else:
            *ends, width = geometry
            svg.line(*ends, stroke=color, stroke_width=width)


def point_mark_elements(
    mark_classes: Sequence[str],
    x: np.ndarray,
    y_center: np.ndarray,
    size: np.ndarray,
    colors: Sequence[str],
    titles: Sequence[str],
) -> list[str]:
    """Markup for a batch of point glyphs, one string per glyph.

    Each string is what :func:`draw_point_mark` draws for that glyph;
    the batch builds every primitive of one glyph class in one pass.
    ``titles`` are escaped title text (see
    :func:`~repro.viz.svg.rect_elements`).
    """
    out = np.empty(len(x), dtype=object)
    tiny = size <= _TINY
    classes = np.asarray(mark_classes, dtype=object)
    groups = [(np.flatnonzero(tiny), _tiny_glyph)]
    for mark_class in sorted(set(classes[~tiny].tolist())):
        groups.append((np.flatnonzero(~tiny & (classes == mark_class)),
                       partial(_glyph, mark_class)))
    colors = np.asarray(colors, dtype=object)
    titles = np.asarray(titles, dtype=object)
    for idx, primitives in groups:
        if not len(idx):
            continue
        fill, title = colors[idx].tolist(), titles[idx].tolist()
        parts = []
        for kind, geometry in primitives(x[idx], y_center[idx], size[idx]):
            if kind == "rect":
                parts.append(rect_elements(*geometry, fill=fill, titles=title))
            elif kind == "polygon":
                parts.append(polygon_elements(geometry, fill=fill,
                                              titles=title))
            else:
                *ends, width = geometry
                parts.append(line_elements(*ends, stroke=fill,
                                           stroke_width=width))
        out[idx] = ["".join(glyph) for glyph in zip(*parts)]
    return out.tolist()


def _band(x1, x2, y_top, height) -> tuple:
    """A band's rect: at least one pixel wide, at least 0.4 px high."""
    return x1, y_top, np.maximum(1.0, x2 - x1), np.maximum(height, 0.4)


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
    svg.rect(*_band(x1, x2, y_top, height), fill=color, opacity=opacity,
             title=title)


def band_elements(
    x1: np.ndarray,
    x2: np.ndarray,
    y_top: np.ndarray,
    height: np.ndarray,
    colors: Sequence[str],
    titles: Sequence[str],
    opacity: float = 0.75,
) -> list[str]:
    """Markup for a batch of :func:`draw_band` calls, one per band."""
    return rect_elements(*_band(x1, x2, y_top, height), fill=colors,
                         opacity=opacity, titles=titles)
