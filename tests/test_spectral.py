import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obslab
from obslab.spectral import interval, rectangle
from oracles import eigenfunction

PI = math.pi


def gram_defect(d):
    """Max deviation of the grid Gram matrix E E^T dx from the identity."""
    gram = d.eigenfunctions @ d.eigenfunctions.T * d.cell_volume
    return float(np.abs(gram - np.eye(d.n_modes)).max())


def test_interval_eigenvalues_closed_form():
    d = interval(PI, n_modes=12)
    assert np.allclose(d.eigenvalues, [(j + 1) ** 2 for j in range(12)])
    d2 = interval(2.0, n_modes=5)
    assert np.allclose(d2.eigenvalues, [(j * PI / 2.0) ** 2 for j in range(1, 6)])


def test_interval_eigenfunctions_orthonormal():
    d = interval(PI, n_modes=16, n_cells=512)
    assert gram_defect(d) < 1e-12


def test_rectangle_eigenfunctions_orthonormal():
    d = rectangle(PI, PI, n_modes=20, cells=(96, 96))
    assert gram_defect(d) < 1e-10


def test_rectangle_spectrum_sorted_with_lexicographic_ties():
    d = rectangle(PI, PI, n_modes=10)
    assert np.all(np.diff(d.eigenvalues) >= 0)
    # the degenerate pair lambda = 5 appears as (1,2) before (2,1)
    i = int(np.searchsorted(d.eigenvalues, 5.0))
    assert d.mode_indices[i] == (1, 2)
    assert d.mode_indices[i + 1] == (2, 1)


def test_rectangle_eigenvalues_match_lattice():
    d = rectangle(PI, 2.0, n_modes=30)
    for lam, (j, k) in zip(d.eigenvalues, d.mode_indices):
        assert lam == pytest.approx(j ** 2 + (k * PI / 2.0) ** 2)


def test_cell_volume_partitions_domain():
    for d in (interval(2.5, n_cells=100), rectangle(1.0, 3.0, cells=(10, 30))):
        assert d.cell_volume * d.n_cells == pytest.approx(d.volume)
        assert d.points.shape == (d.n_cells, d.dim)


def eigen_count(d, lam):
    """Eigenvalues at or below lam, exact while the truncation reaches past it."""
    assert lam < d.eigenvalues[-1]
    return int(np.count_nonzero(d.eigenvalues <= lam))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.5, max_value=1000.0))
def test_interval_count_below_is_floor_sqrt(lam):
    d = interval(PI, n_modes=35)
    assert eigen_count(d, lam) == math.floor(math.sqrt(lam))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=4.0, max_value=1000.0))
def test_interval_weyl_ratio_bracket(lam):
    d = interval(PI, n_modes=40)
    r = eigen_count(d, lam) / lam ** 0.5
    assert 1.0 - 2.0 / math.sqrt(lam) <= r <= 1.0


def test_eigenfunction_evaluator_matches_table():
    d = rectangle(PI, PI, n_modes=6, cells=(32, 32))
    for j in (1, 3, 6):
        assert np.allclose(eigenfunction(d, j)(d.points),
                           d.eigenfunctions[j - 1])


def per_mode_table(d):
    """Eigenpairs from a sorted list of (value, index) and one row per mode."""
    lx = d.lengths[0]
    if d.dim == 1:
        modes = [((j * PI / lx) ** 2, (j,)) for j in range(1, d.n_modes + 1)]
    else:
        ly = d.lengths[1]
        side = d.n_modes + 1
        modes = sorted(((j * PI / lx) ** 2 + (k * PI / ly) ** 2, (j, k))
                       for j in range(1, side + 1) for k in range(1, side + 1))
        modes = modes[: d.n_modes]
    rows = []
    for _, jk in modes:
        if d.dim == 1:
            rows.append(math.sqrt(2.0 / lx)
                        * np.sin(jk[0] * PI * d.points[:, 0] / lx))
        else:
            rows.append(2.0 / math.sqrt(lx * ly)
                        * np.sin(jk[0] * PI * d.points[:, 0] / lx)
                        * np.sin(jk[1] * PI * d.points[:, 1] / ly))
    return np.array([m[0] for m in modes]), [m[1] for m in modes], np.array(rows)


@pytest.mark.parametrize("d", [interval(2.3, n_modes=40, n_cells=300),
                               rectangle(PI, PI, n_modes=64, cells=(24, 24)),
                               rectangle(1.3, 2.7, n_modes=64, cells=(40, 30))],
                         ids=["interval", "square", "rectangle"])
def test_spectrum_matches_a_per_mode_loop_bit_for_bit(d):
    values, indices, table = per_mode_table(d)
    assert d.eigenvalues.tobytes() == values.tobytes()
    assert d.mode_indices == indices
    assert all(type(v) is int for jk in d.mode_indices for v in jk)
    assert d.eigenfunctions.tobytes() == table.tobytes()
    assert not d.eigenvalues.flags.writeable
    assert not d.eigenfunctions.flags.writeable


def test_parsing_a_config_loads_no_solver_module():
    # the package re-exports nothing: a config and its domain need only
    # the modules they import
    script = ("import sys\n"
              "import obslab.config\n"
              "cfg = obslab.config.ExperimentConfig.from_text(\n"
              "    '[domain]\\nkind = rectangle\\nnx = 8\\nny = 8\\n')\n"
              "cfg.build_domain().eigenfunctions\n"
              "print(' '.join(sorted(m for m in sys.modules\n"
              "                      if m.split('.')[0] == 'obslab')))\n")
    src = os.path.dirname(os.path.dirname(obslab.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["obslab", "obslab.config", "obslab.errors",
                                   "obslab.spectral"]


