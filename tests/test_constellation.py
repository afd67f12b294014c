"""Tests for constellation construction and neighbor queries."""

import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffrelay.constellation import ConstellationSpec, make_psk, make_qam, nearest_neighbors

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _load_fixture(name):
    with open(FIXTURES / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows])


class TestMakePsk:
    def test_bpsk(self):
        spec = make_psk(2)
        assert np.allclose(spec.points, [1.0, -1.0], atol=1e-15)

    def test_qpsk_phase_order(self):
        spec = make_psk(4)
        assert np.allclose(spec.points, [1.0, 1j, -1.0, -1j], atol=1e-15)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_unit_modulus(self, m):
        spec = make_psk(m)
        assert spec.M == m
        assert spec.points[0] == 1.0 + 0.0j
        assert np.max(np.abs(np.abs(spec.points) - 1.0)) < 1e-14
        assert abs((np.abs(spec.points) ** 2).mean() - 1.0) < 1e-14

    def test_increasing_phase(self):
        spec = make_psk(16)
        ph = np.angle(spec.points)
        ph = np.where(ph < -1e-12, ph + 2.0 * np.pi, ph)
        assert np.all(np.diff(ph) > 0.0)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            make_psk(1)

    @given(st.integers(min_value=2, max_value=64))
    def test_group_closure(self, m):
        points = make_psk(m).points
        i, j = m // 3, m - 1
        assert np.allclose(points[i] * points[j], points[(i + j) % m], atol=1e-12)


class TestMakeQam:
    @pytest.mark.parametrize("m", [8, 16, 32, 64])
    def test_unit_average_energy(self, m):
        spec = make_qam(m)
        assert spec.M == m
        assert len(np.unique(np.round(spec.points, 12))) == m
        assert abs((np.abs(spec.points) ** 2).mean() - 1.0) < 1e-12

    def test_16qam_grid(self):
        spec = make_qam(16)
        scaled = spec.points * math.sqrt(10.0)
        for p in scaled:
            assert round(p.real) in (-3, -1, 1, 3) and abs(p.real - round(p.real)) < 1e-12
            assert round(p.imag) in (-3, -1, 1, 3) and abs(p.imag - round(p.imag)) < 1e-12

    def test_rejects_unsupported_sizes(self):
        for m in (4, 12, 128):
            with pytest.raises(ValueError):
                make_qam(m)

    @pytest.mark.parametrize("m", [8, 32])
    def test_matches_shipped_fixture(self, m):
        spec = make_qam(m)
        fixture = _load_fixture(f"qam{m}.csv")
        assert np.allclose(spec.points, fixture, atol=1e-15)


class TestNearestNeighbors:
    def test_qpsk_neighbors_of_first_point(self):
        spec = make_psk(4)
        assert nearest_neighbors(spec, 0) == [1, 3]

    def test_bpsk_single_neighbor(self):
        spec = make_psk(2)
        assert nearest_neighbors(spec, 0) == [1]

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_psk_first_point_neighbors_are_adjacent(self, m):
        spec = make_psk(m)
        assert nearest_neighbors(spec, 0) == [1, m - 1]

    def test_16qam_corner_has_two_neighbors(self):
        spec = make_qam(16)
        corner = int(np.argmax(np.abs(spec.points)))
        nn = nearest_neighbors(spec, corner)
        assert len(nn) == 2
        d = np.abs(spec.points[nn] - spec.points[corner])
        assert np.allclose(d, d[0])

    @pytest.mark.parametrize("make,m", [(make_psk, 16), (make_qam, 16), (make_qam, 32)])
    def test_neighbor_distance_symmetry(self, make, m):
        spec = make(m)
        for i in range(spec.M):
            dist_i = np.abs(spec.points - spec.points[i])
            dist_i[i] = np.inf
            for j in nearest_neighbors(spec, i):
                dist_j = np.abs(spec.points - spec.points[j])
                dist_j[j] = np.inf
                assert dist_i[j] <= dist_j.min() * (1.0 + 1e-9)

    @pytest.mark.parametrize("make,m", [(make_psk, m) for m in (2, 4, 8, 16, 32, 64)]
                             + [(make_qam, m) for m in (8, 16, 32, 64)])
    def test_matches_brute_force(self, make, m):
        spec = make(m)
        pts = [complex(p) for p in spec.points]
        for i, p in enumerate(pts):
            d2 = {j: abs(q - p) ** 2 for j, q in enumerate(pts) if j != i}
            dmin = min(d2.values())
            expected = sorted(j for j, d in d2.items() if d - dmin <= 1e-9 * dmin)
            if make is make_psk:
                assert expected == sorted({(i - 1) % m, (i + 1) % m})
            assert nearest_neighbors(spec, i) == expected, (m, i)

    def test_bad_index(self):
        spec = make_psk(4)
        with pytest.raises(ValueError):
            nearest_neighbors(spec, 4)
        with pytest.raises(ValueError):
            nearest_neighbors(spec, -1)


def test_spec_is_value_like():
    spec = make_psk(8)
    assert isinstance(spec, ConstellationSpec)
    assert spec.kind == "psk"
    assert len(spec.points) == spec.M
    assert all(nearest_neighbors(spec, i) for i in range(spec.M))
