import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obslab.spectral import PhysicalParams, SpectralDomain, interval, rectangle
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


def test_domain_validation():
    with pytest.raises(ValueError):
        SpectralDomain((1.0, 2.0, 3.0), 4, (8, 8, 8))
    with pytest.raises(ValueError):
        SpectralDomain((-1.0,), 4, (8,))
    with pytest.raises(ValueError):
        SpectralDomain((1.0,), 0, (8,))
    with pytest.raises(ValueError):
        SpectralDomain((1.0,), 4, (0,))


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(0.0, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 0.0)
