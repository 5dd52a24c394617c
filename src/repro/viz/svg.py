"""A minimal, dependency-free SVG document builder.

The prototype was a Java Swing application; the reproduction renders to
SVG (and self-contained HTML) so every figure is a verifiable artifact.
Only the primitives the views need are implemented — this is a drawing
surface, not a vector-graphics library.

There are two ways to draw, with one output format:

* the scalar primitives (:meth:`SvgDocument.rect`, ``line``, ``polygon``,
  ``circle``, ``text``, ...) append one element per call — axes,
  legends and the small views;
* the batched builders (:func:`rect_elements`, :func:`line_elements`,
  :func:`polygon_elements`, :func:`circle_elements`) take numpy columns
  and return one markup string per element, which the caller places
  with :meth:`SvgDocument.extend`.  Views with thousands of marks (the
  timeline, the density overview) build each kind of mark in one pass
  and merge the kinds into paint order.

Both share one number formatter (:func:`_fmt_floats`; a batch formats
each distinct value once) and one escaping rule (``quoteattr`` for
attribute values, ``escape`` for text; a batch quotes each distinct
color once and skips quoting for numbers, which :func:`_fmt` never
renders with a character that needs it), so a batch emits exactly the
bytes the same scalar calls would.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from repro.errors import RenderError

__all__ = ["SvgDocument", "circle_elements", "line_elements",
           "polygon_elements", "rect_elements"]


def _fmt_floats(values: Iterable[float]) -> list[str]:
    """Compact float formatting (SVG files get large fast): two decimals,
    then trailing zeros and the dot stripped (``-0`` stays ``-0``)."""
    return [f"{v:.2f}".rstrip("0").rstrip(".") or "0" for v in values]


def _fmt(value: float) -> str:
    """One number, as :func:`_fmt_floats` (floats) or ``str`` (ints)."""
    if isinstance(value, float):
        return _fmt_floats((value,))[0]
    return str(value)


# -- batched builders --------------------------------------------------------


def _numbers(values, n: int) -> list[str]:
    """Formatted numbers for ``n`` elements: a float column or one value.

    A column formats each distinct value once — distinct by bit
    pattern, so ``-0.0`` keeps its ``"-0"``.
    """
    if np.ndim(values) == 0:
        return [_fmt(values)] * n
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = _fmt_floats(distinct.view(np.float64).tolist())
    return [text[i] for i in inverse.tolist()]


def _quoted(values: str | Sequence[str], n: int) -> list[str]:
    """``quoteattr`` for ``n`` elements: one string or one per element,
    each distinct string quoted once."""
    if isinstance(values, str):
        return [quoteattr(values)] * n
    quoted = {v: quoteattr(v) for v in set(values)}
    return [quoted[v] for v in values]


def _close(tag: str, heads: list[str],
           titles: Sequence[str] | None) -> list[str]:
    """Finish opened elements, with a ``<title>`` where one is given."""
    if titles is None:
        return [head + "/>" for head in heads]
    return [f"{head}><title>{title}</title></{tag}>" if title
            else head + "/>" for head, title in zip(heads, titles)]


def rect_elements(
    x,
    y,
    width,
    height,
    fill: str | Sequence[str],
    stroke: str | None = None,
    stroke_width: float = 1.0,
    opacity: float | None = None,
    titles: Sequence[str] | None = None,
) -> list[str]:
    """Markup for a batch of :meth:`SvgDocument.rect` calls.

    ``x`` is a column; ``y``, ``width`` and ``height`` are columns of the
    same length or one value.  ``fill`` is one color or one per element;
    ``titles`` are per-element title text already escaped with
    ``xml.sax.saxutils.escape`` (empty: no title).  A zero-size rect yields
    ``""``, as :meth:`SvgDocument.rect` skips it.
    """
    n = len(x)
    tail = ""
    if stroke is not None:
        tail += (f' stroke={quoteattr(stroke)}'
                 f' stroke-width="{_fmt(stroke_width)}"')
    if opacity is not None:
        tail += f' fill-opacity="{_fmt(opacity)}"'
    heads = [
        f'<rect x="{a}" y="{b}" width="{w}" height="{h}" fill={f}{tail}'
        for a, b, w, h, f in zip(
            _numbers(x, n), _numbers(y, n), _numbers(width, n),
            _numbers(height, n), _quoted(fill, n),
        )
    ]
    elements = _close("rect", heads, titles)
    empty = np.broadcast_to((np.asarray(width) <= 0)
                            | (np.asarray(height) <= 0), (n,))
    for i in np.flatnonzero(empty).tolist():
        elements[i] = ""
    return elements


def line_elements(
    x1, y1, x2, y2, stroke: str | Sequence[str], stroke_width=1.0
) -> list[str]:
    """Markup for a batch of :meth:`SvgDocument.line` calls.

    ``x1`` is a column; the other numbers are columns or one value, and
    ``stroke`` is one color or one per element.
    """
    n = len(x1)
    return [
        f'<line x1="{a}" y1="{b}" x2="{c}" y2="{d}" stroke={s} '
        f'stroke-width="{w}"/>'
        for a, b, c, d, s, w in zip(
            _numbers(x1, n), _numbers(y1, n), _numbers(x2, n),
            _numbers(y2, n), _quoted(stroke, n), _numbers(stroke_width, n),
        )
    ]


def polygon_elements(
    points: Sequence[tuple],
    fill: str | Sequence[str],
    titles: Sequence[str] | None = None,
) -> list[str]:
    """Markup for a batch of :meth:`SvgDocument.polygon` calls.

    ``points`` lists the vertices as ``(x, y)`` pairs of columns (or
    single values), the first ``x`` a column; ``fill`` and ``titles``
    as in :func:`rect_elements`.
    """
    if len(points) < 3:
        raise RenderError("a polygon needs at least three points")
    n = len(points[0][0])
    vertices = [
        [f"{a},{b}" for a, b in zip(_numbers(x, n), _numbers(y, n))]
        for x, y in points
    ]
    heads = [f'<polygon points="{" ".join(v)}" fill={f}'
             for v, f in zip(zip(*vertices), _quoted(fill, n))]
    return _close("polygon", heads, titles)


def circle_elements(
    cx, cy, r, fill: str | Sequence[str], stroke: str | None = None
) -> list[str]:
    """Markup for a batch of untitled :meth:`SvgDocument.circle` calls."""
    n = len(cx)
    tail = "" if stroke is None else f" stroke={quoteattr(stroke)}"
    return [
        f'<circle cx="{a}" cy="{b}" r="{c}" fill={f}{tail}/>'
        for a, b, c, f in zip(_numbers(cx, n), _numbers(cy, n),
                              _numbers(r, n), _quoted(fill, n))
    ]


@dataclass
class SvgDocument:
    """An append-only SVG document with optional grouping.

    Attributes:
        width, height: canvas size in px.
        background: CSS color painted behind everything, or None.
    """

    width: float
    height: float
    background: str | None = "#ffffff"
    _parts: list[str] = field(default_factory=list)
    _open_groups: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise RenderError("canvas must have positive size")
        if self.background is not None:
            self.rect(0, 0, self.width, self.height, fill=self.background)

    # -- structural -------------------------------------------------------

    def open_group(self, **attrs: str) -> None:
        """Open a ``<g>`` element (e.g. ``transform=...`` or ``id=...``)."""
        self._parts.append(f"<g{self._attrs(attrs)}>")
        self._open_groups += 1

    def close_group(self) -> None:
        """Close the innermost open group."""
        if self._open_groups <= 0:
            raise RenderError("no group to close")
        self._parts.append("</g>")
        self._open_groups -= 1

    def extend(self, elements: Iterable[str]) -> None:
        """Append markup made by the batched builders, in the given order."""
        self._parts.extend(elements)

    # -- primitives --------------------------------------------------------

    def rect(
        self,
        x: float,
        y: float,
        width: float,
        height: float,
        fill: str = "#000000",
        stroke: str | None = None,
        stroke_width: float = 1.0,
        opacity: float | None = None,
        rx: float | None = None,
        title: str | None = None,
    ) -> None:
        """An axis-aligned rectangle (zero-size rects are skipped)."""
        if width <= 0 or height <= 0:
            return
        attrs = {
            "x": _fmt(x), "y": _fmt(y),
            "width": _fmt(width), "height": _fmt(height),
            "fill": fill,
        }
        if stroke is not None:
            attrs["stroke"] = stroke
            attrs["stroke-width"] = _fmt(stroke_width)
        if opacity is not None:
            attrs["fill-opacity"] = _fmt(opacity)
        if rx is not None:
            attrs["rx"] = _fmt(rx)
        self._element("rect", attrs, title)

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        opacity: float | None = None,
        dash: str | None = None,
    ) -> None:
        """A straight line segment."""
        attrs = {
            "x1": _fmt(x1), "y1": _fmt(y1), "x2": _fmt(x2), "y2": _fmt(y2),
            "stroke": stroke, "stroke-width": _fmt(stroke_width),
        }
        if opacity is not None:
            attrs["stroke-opacity"] = _fmt(opacity)
        if dash is not None:
            attrs["stroke-dasharray"] = dash
        self._element("line", attrs)

    def circle(
        self,
        cx: float,
        cy: float,
        r: float,
        fill: str = "#000000",
        stroke: str | None = None,
        title: str | None = None,
    ) -> None:
        """A filled circle."""
        attrs = {"cx": _fmt(cx), "cy": _fmt(cy), "r": _fmt(r), "fill": fill}
        if stroke is not None:
            attrs["stroke"] = stroke
        self._element("circle", attrs, title)

    def polygon(
        self,
        points: list[tuple[float, float]],
        fill: str = "#000000",
        stroke: str | None = None,
        title: str | None = None,
    ) -> None:
        """A filled polygon from a vertex list."""
        if len(points) < 3:
            raise RenderError("a polygon needs at least three points")
        attrs = {
            "points": " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points),
            "fill": fill,
        }
        if stroke is not None:
            attrs["stroke"] = stroke
        self._element("polygon", attrs, title)

    def path(
        self,
        d: str,
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        fill: str = "none",
        opacity: float | None = None,
    ) -> None:
        """A raw path (used for curved graph edges)."""
        attrs = {
            "d": d, "stroke": stroke, "stroke-width": _fmt(stroke_width),
            "fill": fill,
        }
        if opacity is not None:
            attrs["stroke-opacity"] = _fmt(opacity)
        self._element("path", attrs)

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: float = 11.0,
        fill: str = "#222222",
        anchor: str = "start",
        family: str = "sans-serif",
        rotate: float | None = None,
    ) -> None:
        """A text label; ``anchor`` is start/middle/end."""
        attrs = {
            "x": _fmt(x), "y": _fmt(y),
            "font-size": _fmt(size), "fill": fill,
            "text-anchor": anchor, "font-family": family,
        }
        if rotate is not None:
            attrs["transform"] = f"rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"
        self._parts.append(
            f"<text{self._attrs(attrs)}>{escape(content)}</text>"
        )

    # -- output ------------------------------------------------------------

    def to_string(self) -> str:
        """Serialize the (balanced) document."""
        if self._open_groups:
            raise RenderError(f"{self._open_groups} unclosed group(s)")
        header = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        return header + "".join(self._parts) + "</svg>"

    def save(self, path: str) -> None:
        """Write the document to a file."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_string())

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _attrs(attrs: dict[str, str]) -> str:
        return "".join(f" {k}={quoteattr(str(v))}" for k, v in attrs.items())

    def _element(
        self, tag: str, attrs: dict[str, str], title: str | None = None
    ) -> None:
        if title:
            self._parts.append(
                f"<{tag}{self._attrs(attrs)}>"
                f"<title>{escape(title)}</title></{tag}>"
            )
        else:
            self._parts.append(f"<{tag}{self._attrs(attrs)}/>")
