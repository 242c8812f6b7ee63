"""Run reports and plot-data emission.

A report is structured text: one `key: value` per line, sections
separated by blank lines.  Timing keys carry the `time_` prefix so
determinism checks can strip them; floats (numpy's too) are rendered
with the repr of a plain float, so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


@dataclass
class RunReport:
    experiment_id: str
    subcommand: str
    seed: int
    status: str = "ok"                       # ok | convergence-failure | violation
    sections: list = field(default_factory=list)   # (name, dict) pairs
    timings: dict = field(default_factory=dict)    # name -> seconds
    series: dict = field(default_factory=dict)     # csv name -> (header, rows)

    def add(self, name: str, **records) -> None:
        self.sections.append((name, records))

    @contextmanager
    def timed(self, name: str):
        """Record the wall time of the block as `time_<name>`, even if it raises."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = time.perf_counter() - start

    def add_series(self, name: str, header: str, rows) -> None:
        """A figure-worthy CSV series; rows are tuples matching the header."""
        self.series[name] = (header, list(rows))

    def render(self) -> str:
        lines = [
            f"experiment: {self.experiment_id}",
            f"subcommand: {self.subcommand}",
            f"seed: {self.seed}",
            f"status: {self.status}",
        ]
        for name, records in self.sections:
            lines.append("")
            lines.append(f"section: {name}")
            for key, value in records.items():
                lines.append(f"{key}: {_fmt(value)}")
        if self.timings:
            lines.append("")
            for key, value in self.timings.items():
                lines.append(f"time_{key}: {value:.3f}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> str:
        """report.txt, then one CSV per stored series, in out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.txt")
        with open(path, "w") as fh:
            fh.write(self.render())
        for name, (header, rows) in self.series.items():
            write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
        return path


def write_csv(path, header: str, rows) -> None:
    """Header row, then one comma-separated line of rendered values per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def strip_timings(text: str) -> str:
    """Report text with timing lines removed, for determinism comparison."""
    return "\n".join(line for line in text.split("\n")
                     if not line.startswith("time_"))
