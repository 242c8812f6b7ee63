"""Run reports and plot-data emission.

A report is structured text: one `key: value` per line, sections
separated by blank lines.  Timing keys carry the `time_` prefix so
determinism checks can strip them; floats (numpy's too) are rendered
with the repr of a plain float, so identical runs produce byte-identical
files.

A CSV series is a tuple of columns of equal length, one 1-D sequence per
header field.  `write_csv` renders it a block of rows at a time: each
column's slice of the block is turned into plain Python values (an array
through `tolist()`) and every value goes through the same rule as the
report, then the block's lines are joined and written together, so memory
holds one block however long the series is.
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
    series: dict = field(default_factory=dict)     # csv name -> (header, columns)

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

    def add_series(self, name: str, header: str, columns) -> None:
        """A figure-worthy CSV series: one 1-D sequence per header field.

        A column is a list, tuple, range or array, all of one length, and
        `write_csv` renders it.
        """
        self.series[name] = (header, tuple(columns))

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
        for name, (header, columns) in self.series.items():
            write_csv(os.path.join(out_dir, f"{name}.csv"), header, columns)
        return path


# rows write_csv renders and writes at once: about 300 KB of text, and
# memory stays one block
CSV_BLOCK_ROWS = 4096


def _plain(col):
    """Python floats, ints and bools for an array; any other column as is."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def write_csv(path, header: str, columns) -> None:
    """Header row, then one comma-separated line of rendered values per row.

    Row i holds value i of each column, so the columns must be of equal
    length.  They are rendered and written CSV_BLOCK_ROWS rows at a time.
    """
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            texts = [map(_fmt, _plain(col[lo:lo + CSV_BLOCK_ROWS]))
                     for col in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def strip_timings(text: str) -> str:
    """Report text with timing lines removed, for determinism comparison."""
    return "\n".join(line for line in text.split("\n")
                     if not line.startswith("time_"))
