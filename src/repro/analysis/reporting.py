"""Plain-text reporting: the tables the benchmarks print.

The paper has no numeric tables, so every benchmark prints its own
paper-style table — rows of (mode/scenario, measurement) — through
:class:`TextTable`, which keeps the output format identical across all
experiments (and greppable from ``bench_output.txt``).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["TextTable"]


class TextTable:
    """A fixed-width text table with a title and column headers."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._format(cell) for cell in cells])

    @staticmethod
    def _format(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)


def ascii_series(
    title: str,
    labels: Sequence[object],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """A horizontal bar chart in plain text — the benchmarks' 'figure'.

    Bars are scaled to the maximum value; each row shows label, bar,
    and the numeric value, so the *shape* of a sweep (Figure 4's rising
    stretch, §3.2's latency ordering) is visible in ``bench_output.txt``.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        return f"== {title} ==\n(no data)"
    peak = max(values)
    label_width = max(len(str(label)) for label in labels)
    lines = [f"== {title} =="]
    for label, value in zip(labels, values):
        bar = "#" * (int(round(value / peak * width)) if peak > 0 else 0)
        lines.append(
            f"  {str(label).rjust(label_width)} |{bar.ljust(width)}| "
            f"{value:.4g}{unit}"
        )
    return "\n".join(lines)

