"""Minimal hand-rolled SVG renderer for log-log error plots.

No plotting dependency: the output is a self-contained SVG document with
one polyline per data series, optional vertical error bars, dashed
reference curves, decade grid lines, and a legend.  Everything is styled
with class attributes (series, errbar, refline) so tests and downstream
tooling can pick elements apart with any XML parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from html import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    """One plotted curve: points (x, y) plus optional (lo, hi) error bars."""

    label: str
    points: tuple[tuple[float, float], ...]
    error_bars: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((float(x), float(y)) for x, y in self.points))
        if self.error_bars is not None:
            bars = tuple((float(lo), float(hi)) for lo, hi in self.error_bars)
            if len(bars) != len(self.points):
                raise ValueError(
                    f"series {self.label!r} has {len(self.points)} points "
                    f"but {len(bars)} error bars"
                )
            object.__setattr__(self, "error_bars", bars)


@dataclass(frozen=True)
class ReferenceLine:
    """A dashed guide curve, e.g. an analytic scaling law."""

    label: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((float(x), float(y)) for x, y in self.points))


def _plottable(x: float, y: float) -> bool:
    return math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0


@dataclass
class _LogAxes:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    left: float = 64.0
    top: float = 44.0
    plot_w: float = 496.0
    plot_h: float = 368.0

    def x_px(self, x: float) -> float:
        t = (math.log10(x) - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + t * self.plot_w

    def y_px(self, y: float) -> float:
        t = (math.log10(y) - self.y_lo) / (self.y_hi - self.y_lo)
        return self.top + (1.0 - t) * self.plot_h


def _padded_log_range(values: list[float]) -> tuple[float, float]:
    logs = [math.log10(v) for v in values]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _fmt_px(v: float) -> str:
    return f"{v:.2f}"


def _decade_label(exponent: int) -> str:
    return f"1e{exponent:+03d}"


def render_loglog(
    series: list[Series],
    references: list[ReferenceLine] | None = None,
    title: str = "",
    x_label: str = "total resources",
    y_label: str = "error",
    width: int = 720,
    height: int = 480,
) -> str:
    """Render the figure and return the SVG document as a string."""
    references = references or []
    xs: list[float] = []
    ys: list[float] = []
    kept_series = []
    for s in series:
        pts = [(x, y) for x, y in s.points if _plottable(x, y)]
        if not pts:
            continue
        kept_series.append((s, pts))
        xs.extend(x for x, _ in pts)
        ys.extend(y for _, y in pts)
        if s.error_bars is not None:
            for (x, y), (lo, hi) in zip(s.points, s.error_bars):
                if _plottable(x, y) and _plottable(x, lo) and _plottable(x, hi):
                    ys.extend((lo, hi))
    if not kept_series:
        raise ValueError("no plottable data: every point is non-positive or non-finite")

    kept_refs = []
    for r in references:
        pts = [(x, y) for x, y in r.points if _plottable(x, y)]
        if len(pts) >= 2:
            kept_refs.append((r, pts))
            xs.extend(x for x, _ in pts)
            ys.extend(y for _, y in pts)

    axes = _LogAxes(*_padded_log_range(xs), *_padded_log_range(ys))
    axes.plot_w = width - axes.left - 160.0
    axes.plot_h = height - axes.top - 68.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect class="frame" x="{_fmt_px(axes.left)}" y="{_fmt_px(axes.top)}" '
        f'width="{_fmt_px(axes.plot_w)}" height="{_fmt_px(axes.plot_h)}" '
        f'fill="none" stroke="#333333"/>',
    ]

    # Decade grid lines and tick labels on both axes.
    for exp in range(math.ceil(axes.x_lo), math.floor(axes.x_hi) + 1):
        px = axes.x_px(10.0**exp)
        parts.append(
            f'<line class="grid" x1="{_fmt_px(px)}" y1="{_fmt_px(axes.top)}" '
            f'x2="{_fmt_px(px)}" y2="{_fmt_px(axes.top + axes.plot_h)}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text class="tick" x="{_fmt_px(px)}" y="{_fmt_px(axes.top + axes.plot_h + 16)}" '
            f'text-anchor="middle">{_decade_label(exp)}</text>'
        )
    for exp in range(math.ceil(axes.y_lo), math.floor(axes.y_hi) + 1):
        py = axes.y_px(10.0**exp)
        parts.append(
            f'<line class="grid" x1="{_fmt_px(axes.left)}" y1="{_fmt_px(py)}" '
            f'x2="{_fmt_px(axes.left + axes.plot_w)}" y2="{_fmt_px(py)}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text class="tick" x="{_fmt_px(axes.left - 6)}" y="{_fmt_px(py + 4)}" '
            f'text-anchor="end">{_decade_label(exp)}</text>'
        )

    legend_entries = []
    for idx, (ref, pts) in enumerate(kept_refs):
        path = " ".join(f"{_fmt_px(axes.x_px(x))},{_fmt_px(axes.y_px(y))}" for x, y in pts)
        parts.append(
            f'<polyline class="refline" points="{path}" fill="none" '
            f'stroke="#888888" stroke-dasharray="6 4"/>'
        )
        legend_entries.append((ref.label, "#888888", "6 4"))

    for idx, (s, pts) in enumerate(kept_series):
        color = PALETTE[idx % len(PALETTE)]
        if s.error_bars is not None:
            for (x, y), (lo, hi) in zip(s.points, s.error_bars):
                if not (_plottable(x, y) and _plottable(x, lo) and _plottable(x, hi)):
                    continue
                px = axes.x_px(x)
                parts.append(
                    f'<line class="errbar" x1="{_fmt_px(px)}" y1="{_fmt_px(axes.y_px(lo))}" '
                    f'x2="{_fmt_px(px)}" y2="{_fmt_px(axes.y_px(hi))}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        path = " ".join(f"{_fmt_px(axes.x_px(x))},{_fmt_px(axes.y_px(y))}" for x, y in pts)
        parts.append(
            f'<polyline class="series" points="{path}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle class="marker" cx="{_fmt_px(axes.x_px(x))}" '
                f'cy="{_fmt_px(axes.y_px(y))}" r="2.5" fill="{color}"/>'
            )
        legend_entries.append((s.label, color, None))

    legend_x = axes.left + axes.plot_w + 16
    legend_y = axes.top + 8
    for i, (label, color, dash) in enumerate(legend_entries):
        y = legend_y + 18 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line class="legend-swatch" x1="{_fmt_px(legend_x)}" y1="{_fmt_px(y)}" '
            f'x2="{_fmt_px(legend_x + 24)}" y2="{_fmt_px(y)}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text class="legend-label" x="{_fmt_px(legend_x + 30)}" '
            f'y="{_fmt_px(y + 4)}">{escape(label, quote=False)}</text>'
        )

    if title:
        parts.append(
            f'<text class="title" x="{_fmt_px(axes.left + axes.plot_w / 2)}" y="24" '
            f'text-anchor="middle" font-size="15">{escape(title, quote=False)}</text>'
        )
    parts.append(
        f'<text class="axis-label" x="{_fmt_px(axes.left + axes.plot_w / 2)}" '
        f'y="{_fmt_px(axes.top + axes.plot_h + 40)}" text-anchor="middle">{escape(x_label, quote=False)}</text>'
    )
    parts.append(
        f'<text class="axis-label" x="16" y="{_fmt_px(axes.top + axes.plot_h / 2)}" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_fmt_px(axes.top + axes.plot_h / 2)})">{escape(y_label, quote=False)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
