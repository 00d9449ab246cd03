"""Self-contained SVG writers for the two figure types the CLI emits.

No plotting library: the documents are assembled as text so that plot output
never adds a dependency and never feeds back into the CSV content.
"""

import numpy as np

_W, _H = 760, 520
_ML, _MR, _MT, _MB = 70, 24, 30, 56
_COLORS = ("#1f6fb4", "#c0392b", "#2c8a4b", "#8e44ad")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Maps data coordinates into the plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    def x(self, v):
        return _ML + (v - self.x_lo) / (self.x_hi - self.x_lo) * (_W - _ML - _MR)

    def y(self, v):
        return _H - _MB - (v - self.y_lo) / (self.y_hi - self.y_lo) * (_H - _MT - _MB)


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]


def _axes(parts, frame, x_ticks, x_fmt, y_ticks, y_fmt, x_label, y_label):
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for t in x_ticks:
        px = frame.x(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H - _MB}" '
                     f'stroke="#dddddd" stroke-width="0.6"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{x_fmt(t)}</text>')
    for t in y_ticks:
        py = frame.y(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
                     f'stroke="#dddddd" stroke-width="0.6"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{y_fmt(t)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 14}" text-anchor="middle">{_esc(x_label)}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{_esc(y_label)}</text>')


def _polyline(frame, xs, ys, color, dash=None):
    pts = " ".join(f"{frame.x(x):.2f},{frame.y(y):.2f}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash_attr}/>'


def cer_plot(snr_db, cer, diversity_order, title) -> str:
    """Log-log CER plot with a dashed slope guide at -diversity_order.

    Points with zero errors are dropped (log of 0). The guide line decays one
    decade per 10/diversity_order dB through the last plotted point.
    """
    snr_db = np.asarray(snr_db, dtype=float)
    cer = np.asarray(cer, dtype=float)
    keep = cer > 0
    snr_db, cer = snr_db[keep], cer[keep]
    if snr_db.size == 0:
        raise ValueError("nothing to plot: all CER values are zero")
    logc = np.log10(cer)
    y_lo = np.floor(logc.min()) - 1
    y_hi = min(0.0, np.ceil(logc.max()))
    frame = _Frame(snr_db.min(), snr_db.max(), y_lo, y_hi)
    parts = _header(title)
    x_ticks = np.unique(np.round(np.linspace(snr_db.min(), snr_db.max(), 8), 1))
    y_ticks = np.arange(y_lo, y_hi + 0.5)
    _axes(parts, frame, x_ticks, lambda t: f"{t:g}", y_ticks, lambda t: f"1e{int(t)}",
          "SNR per receive antenna (dB)", "codeword error rate")
    parts.append(_polyline(frame, snr_db, logc, _COLORS[0]))
    for x, y in zip(snr_db, logc):
        parts.append(f'<circle cx="{frame.x(x):.2f}" cy="{frame.y(y):.2f}" r="3" fill="{_COLORS[0]}"/>')
    if diversity_order > 0:
        ax, ay = snr_db[-1], logc[-1]
        gx = np.array([frame.x_lo, frame.x_hi])
        gy = ay - diversity_order * (gx - ax) / 10.0
        parts.append(_polyline(frame, gx, gy, _COLORS[1], dash="6,4"))
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16}" text-anchor="end" '
                     f'fill="{_COLORS[1]}">slope guide: -{diversity_order:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def histogram_plot(bin_edges, density, overlay_x, overlay_y, title,
                   x_label="normalized d^2_min", overlay_label="reference pdf") -> str:
    """Histogram bars with a smooth overlay curve (the reference density)."""
    bin_edges = np.asarray(bin_edges, dtype=float)
    density = np.asarray(density, dtype=float)
    overlay_x = np.asarray(overlay_x, dtype=float)
    overlay_y = np.asarray(overlay_y, dtype=float)
    y_hi = 1.08 * max(density.max(initial=0.0), overlay_y.max(initial=0.0), 1e-12)
    frame = _Frame(bin_edges[0], bin_edges[-1], 0.0, y_hi)
    parts = _header(title)
    x_ticks = np.unique(np.round(np.linspace(bin_edges[0], bin_edges[-1], 8), 1))
    y_ticks = np.linspace(0, y_hi, 6)
    _axes(parts, frame, x_ticks, lambda t: f"{t:g}", y_ticks, lambda t: f"{t:.3f}",
          x_label, "density")
    for lo, hi, d in zip(bin_edges[:-1], bin_edges[1:], density):
        x0, x1 = frame.x(lo), frame.x(hi)
        y0, y1 = frame.y(d), frame.y(0.0)
        parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
                     f'height="{y1 - y0:.2f}" fill="{_COLORS[0]}" fill-opacity="0.55"/>')
    parts.append(_polyline(frame, overlay_x, overlay_y, _COLORS[1]))
    parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16}" text-anchor="end" '
                 f'fill="{_COLORS[1]}">{_esc(overlay_label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
