"""Deterministic result figures: an SVG bar chart and CSV metric tables.

The SVG is assembled from formatted strings only (no plotting library, no
timestamps), so identical inputs give byte-identical files and tests can
parse the printed values back out of the text nodes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .nn.checkpoint import write_bytes_atomic, write_csv_atomic

_BAR_W = 34
_GAP = 10
_GROUP_PAD = 28
_PLOT_H = 220
_MARGIN_L = 56
_MARGIN_TOP = 30
_MARGIN_BOT = 46
_ACC_FILL = "#4878a8"
_KAPPA_FILL = "#c08040"


@dataclass(frozen=True)
class TaskMetrics:
    task: str
    accuracy: float
    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy out of range: {self.accuracy}")
        if not -1.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa out of range: {self.kappa}")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_task_bars(entries: list[TaskMetrics]) -> str:
    """SVG with one bar group per task: accuracy and kappa side by side.

    Bars are clipped at 0 (a negative kappa draws no bar) but the printed
    value is always the exact two-decimal metric.
    """
    if not entries:
        raise ValueError("nothing to plot: empty metrics list")
    group_w = 2 * _BAR_W + _GAP + _GROUP_PAD
    width = _MARGIN_L + len(entries) * group_w + 20
    height = _MARGIN_TOP + _PLOT_H + _MARGIN_BOT
    base_y = _MARGIN_TOP + _PLOT_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:11px;}</style>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = base_y - round(tick * _PLOT_H)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y}" x2="{width - 10}" y2="{y}" '
            'stroke="#cccccc" stroke-width="1"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 36}" y="{y + 4}" fill="#444444">{_fmt(tick)}</text>')
    for i, entry in enumerate(entries):
        x0 = _MARGIN_L + i * group_w + _GROUP_PAD // 2
        for j, (value, fill, label) in enumerate(
                ((entry.accuracy, _ACC_FILL, "acc"), (entry.kappa, _KAPPA_FILL, "kappa"))):
            x = x0 + j * (_BAR_W + _GAP)
            h = round(max(value, 0.0) * _PLOT_H)
            parts.append(
                f'<rect x="{x}" y="{base_y - h}" width="{_BAR_W}" height="{h}" '
                f'fill="{fill}"/>')
            parts.append(
                f'<text x="{x}" y="{base_y - h - 6}" fill="#222222" '
                f'class="value-{label}">{_fmt(value)}</text>')
        parts.append(
            f'<text x="{x0}" y="{base_y + 18}" fill="#222222" class="task">'
            f'{entry.task}</text>')
    parts.append(
        f'<text x="{_MARGIN_L}" y="{base_y + 36}" fill="#666666">'
        f'accuracy ({_ACC_FILL}) / kappa ({_KAPPA_FILL})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_task_bars_svg(entries: list[TaskMetrics], path: str | os.PathLike) -> None:
    write_bytes_atomic(path, render_task_bars(entries).encode("utf-8"))


def write_metric_table_csv(entries: list[TaskMetrics], path: str | os.PathLike) -> None:
    """Wide table: one column per task, one row per metric (accuracy in %)."""
    if not entries:
        raise ValueError("nothing to tabulate: empty metrics list")
    write_csv_atomic(path, [["metric", *(e.task for e in entries)],
                            ["accuracy_pct", *(_fmt(e.accuracy * 100.0) for e in entries)],
                            ["kappa", *(_fmt(e.kappa) for e in entries)]])
