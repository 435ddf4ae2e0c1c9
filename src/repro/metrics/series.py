"""Figure series and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Summary:
    """Summary statistics of one sample of measurements."""

    n: int
    mean: float
    std: float
    p50: float
    p95: float

    def __str__(self) -> str:
        return (f"n={self.n} mean={self.mean:.4g} std={self.std:.4g} "
                f"p50={self.p50:.4g} p95={self.p95:.4g}")


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of ``values`` (empty input allowed)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return Summary(0, float("nan"), float("nan"),
                       float("nan"), float("nan"))
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
    )


@dataclass
class FigureSeries:
    """One plotted line: (x, y) pairs plus identification.

    Every experiment driver returns a list of these; the benchmark
    harness prints them as the rows the corresponding paper figure
    reports.
    """

    label: str
    x_label: str
    y_label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def to_dict(self) -> dict[str, object]:
        """Stable JSON schema shared by the CLI ``--json`` output, the
        on-disk result cache and external plotting tools."""
        return {
            "label": self.label,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x": list(self.x),
            "y": list(self.y),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FigureSeries":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        return cls(
            label=str(payload["label"]),
            x_label=str(payload["x_label"]),
            y_label=str(payload["y_label"]),
            x=[float(v) for v in payload.get("x", [])],
            y=[float(v) for v in payload.get("y", [])],
        )

    def format_rows(self, x_fmt: str = "{:g}", y_fmt: str = "{:.3f}") -> str:
        """Human-readable table of the series."""
        lines = [f"# {self.label}  ({self.x_label} -> {self.y_label})"]
        for xv, yv in zip(self.x, self.y):
            lines.append(f"  {x_fmt.format(xv):>10s}  {y_fmt.format(yv)}")
        return "\n".join(lines)


def print_series(series: Sequence[FigureSeries], title: str = "") -> str:
    """Format a whole figure's series; returns the printed text."""
    blocks = [f"== {title} ==" if title else ""]
    for s in series:
        blocks.append(s.format_rows())
    text = "\n".join(b for b in blocks if b)
    print(text)
    return text
