"""Tiny dependency-free SVG writers for the figure commands.

Produces static scatter and grouped-bar charts. This is a rendering
convenience for the data files, not a plotting library.
"""

import html

WIDTH = 840
HEIGHT = 520
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

_SERIES_COLORS = ("#4878a8", "#d9823b", "#5a9e5a", "#b05a5a", "#8668a8")


def escape(text):
    """Text content with &, < and > escaped, as xml.sax.saxutils does.

    xml.sax.saxutils would import urllib.request, and with it http.client,
    email and ssl, into every command that imports the report module.
    """
    return html.escape(text, quote=False)


def _fmt(value):
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def _scale(value, lo, hi, out_lo, out_hi):
    if hi <= lo:
        return out_lo
    return out_lo + (value - lo) * (out_hi - out_lo) / (hi - lo)


def _frame(title, xlabel, ylabel, x_ticks, y_ticks, x_range, y_range):
    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{escape(title)}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black"/>',
        f'<text x="{(left + right) / 2}" y="{HEIGHT - 12}" '
        'text-anchor="middle" font-size="13" font-family="sans-serif">'
        f'{escape(xlabel)}</text>',
        f'<text x="18" y="{(top + bottom) / 2}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 18 {(top + bottom) / 2})">'
        f'{escape(ylabel)}</text>',
    ]
    for tick in x_ticks:
        x = _scale(tick, x_range[0], x_range[1], left, right)
        parts.append(
            f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" '
            f'y2="{bottom + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{bottom + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
    for tick in y_ticks:
        y = _scale(tick, y_range[0], y_range[1], bottom, top)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" '
            'stroke="black"/>')
        parts.append(
            f'<text x="{left - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>')
    return parts


def scatter_svg(points, xlabel, ylabel, title, radii=None):
    """Scatter plot of (x, y, label) points; radii optionally per point."""
    if not points:
        raise ValueError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_range = (0.0, max(xs) * 1.1 or 1.0)
    y_range = (0.0, max(ys) * 1.15 or 1.0)
    parts = _frame(title, xlabel, ylabel,
                   _ticks(*x_range), _ticks(*y_range), x_range, y_range)
    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    for i, (x, y, label) in enumerate(points):
        px = _scale(x, x_range[0], x_range[1], left, right)
        py = _scale(y, y_range[0], y_range[1], bottom, top)
        r = 5.0 if radii is None else radii[i]
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{r:.1f}" '
            'fill="#4878a8" fill-opacity="0.6" stroke="#2a4a68"/>')
        parts.append(
            f'<text x="{px + r + 3:.1f}" y="{py + 4:.1f}" font-size="11" '
            f'font-family="sans-serif">{escape(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grouped_bar_svg(categories, series, xlabel, ylabel, title):
    """Grouped bars: one group per category, one bar per series."""
    if not categories or not series:
        raise ValueError("nothing to plot")
    names = list(series)
    peak = max(max(values) for values in series.values())
    y_range = (0.0, peak * 1.15 or 1.0)
    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    parts = _frame(title, xlabel, ylabel, [], _ticks(*y_range),
                   (0, 1), y_range)
    group_width = (right - left) / len(categories)
    bar_width = group_width * 0.8 / len(names)
    for ci, category in enumerate(categories):
        gx = left + ci * group_width
        for si, name in enumerate(names):
            value = series[name][ci]
            y = _scale(value, y_range[0], y_range[1], bottom, top)
            x = gx + group_width * 0.1 + si * bar_width
            color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_width:.1f}" '
                f'height="{bottom - y:.1f}" fill="{color}"/>')
        cx = gx + group_width / 2
        parts.append(
            f'<text x="{cx:.1f}" y="{bottom + 16}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif" '
            f'transform="rotate(-35 {cx:.1f} {bottom + 16})">'
            f'{escape(str(category))}</text>')
    for si, name in enumerate(names):
        color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
        lx = right - 140
        ly = top + 8 + si * 18
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" '
            f'fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 17}" y="{ly + 10}" font-size="11" '
            f'font-family="sans-serif">{escape(str(name))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
