"""The benchmark's contract: its last stdout line is one result, and its own
unit tests pass."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reject_constant(name):
    raise ValueError(f"result line holds the non-JSON constant {name}")


# traced runs wrap the functions perfbench/tracing.py names, so renaming
# one of them under src/ fails here
@pytest.mark.parametrize("workload,trace", [
    pytest.param(workload, trace, id=workload + suffix)
    for workload in ("chain", "dual", "sweep", "timeopt")
    for trace, suffix in (("0", ""), ("1", "-traced"))])
def test_benchmark_ends_with_a_correct_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seconds", "0.01", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = (proc.stdout.splitlines() or [""])[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0


# perfbench's unittest module lies outside tests/, so pytest never collects it
def test_benchmark_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
