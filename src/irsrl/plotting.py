"""Minimal SVG line plots generated directly from metrics CSVs.

No plotting library: the output is plain-text SVG (polyline per mean curve,
polygon per min-max band), a pure function of the input files.
"""

from __future__ import annotations

import csv
import math
from html import escape

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 45

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


class MetricsError(Exception):
    """Empty, malformed or not UTF-8 metrics CSV, or one with no finite
    point to plot; the message names the file."""


def read_metrics(path) -> list[dict]:
    """Rows of a UTF-8 metrics.csv as dicts with float fields and an int
    ``episode``; the header must name ``episode`` and ``mean_snr_db``."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            missing = {"episode", "mean_snr_db"} - set(reader.fieldnames or ())
            if missing:
                raise MetricsError(f"{path}: header lacks {', '.join(sorted(missing))}")
            rows = []
            for row in reader:
                try:
                    rows.append({k: float(v) for k, v in row.items()}
                                | {"episode": int(row["episode"])})
                except (TypeError, ValueError) as e:
                    raise MetricsError(f"{path}: bad row {row}: {e}")
    except UnicodeDecodeError as e:
        raise MetricsError(f"{path} is not valid UTF-8: {e.reason} at byte {e.start}")
    if not rows:
        raise MetricsError(f"{path}: no data rows")
    return rows


def curve_stats(rows: list[dict]):
    """Per-episode (mean, min, max) of mean_snr_db over seeds, NaN rows
    excluded; four empty lists when no row is finite."""
    by_ep: dict[int, list[float]] = {}
    for row in rows:
        v = row["mean_snr_db"]
        if math.isnan(v):
            continue
        by_ep.setdefault(row["episode"], []).append(v)
    eps = sorted(by_ep)
    mean = [sum(by_ep[e]) / len(by_ep[e]) for e in eps]
    lo = [min(by_ep[e]) for e in eps]
    hi = [max(by_ep[e]) for e in eps]
    return eps, mean, lo, hi


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def plot_curves(metrics_paths, out_path, labels=None) -> None:
    """One mean curve + min-max band per input CSV, written as SVG."""
    paths = list(metrics_paths)
    if not paths:
        raise MetricsError("no metrics files given")
    series = []
    for i, p in enumerate(paths):
        stats = curve_stats(read_metrics(p))
        if not stats[0]:
            raise MetricsError(f"{p}: no finite data points")
        series.append((labels[i] if labels else str(p), stats))

    all_x = [e for _, (eps, *_rest) in series for e in eps]
    all_y = [v for _, (_, mean, lo, hi) in series for v in mean + lo + hi]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return MARGIN_T + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    # axis ticks
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<text x="{_fmt(sx(xv))}" y="{HEIGHT - MARGIN_B + 18}" '
            f'font-size="11" text-anchor="middle">{_fmt(xv)}</text>')
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(sy(yv) + 4)}" '
            f'font-size="11" text-anchor="end">{_fmt(yv)}</text>')
    parts.append(
        f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 8}" font-size="13" '
        'text-anchor="middle">episode</text>')
    parts.append(
        f'<text x="16" y="{MARGIN_T + ph / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + ph / 2})">mean SNR (dB)</text>')

    for i, (label, (eps, mean, lo, hi)) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        band = " ".join(
            [f"{_fmt(sx(e))},{_fmt(sy(v))}" for e, v in zip(eps, hi)]
            + [f"{_fmt(sx(e))},{_fmt(sy(v))}" for e, v in zip(reversed(eps), reversed(lo))]
        )
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" '
                     'stroke="none"/>')
        line = " ".join(f"{_fmt(sx(e))},{_fmt(sy(v))}" for e, v in zip(eps, mean))
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        ly = MARGIN_T + 16 + 16 * i
        parts.append(f'<line x1="{MARGIN_L + 8}" y1="{ly - 4}" x2="{MARGIN_L + 32}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{MARGIN_L + 38}" y="{ly}" font-size="12">'
                     f'{escape(str(label), quote=False)}</text>')

    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")
