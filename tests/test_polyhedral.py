"""The polyhedral mapping functions (Equations 2, 4, 5, 7, 8)."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.layout import (
    map_index_1d,
    map_index_2d,
    map_index_general,
    transform_access,
    transformation_matrix,
)
from repro.layout.polyhedral import StridedMapping


class TestTransformationMatrix:
    def test_identity_when_layouts_match(self):
        eye = np.eye(2, dtype=np.int64)
        assert np.array_equal(transformation_matrix(eye, eye), eye)

    def test_transpose_layout(self):
        default = np.eye(2, dtype=np.int64)
        opt = np.array([[0, 1], [1, 0]], dtype=np.int64)
        M = transformation_matrix(default, opt)
        assert np.array_equal(M, opt)

    def test_singular_default_rejected(self):
        singular = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            transformation_matrix(singular, np.eye(2, dtype=np.int64))

    def test_nearly_integral_solution_rejected(self):
        # M = 1000001 / 1000000 lies within a float tolerance of 1.
        with pytest.raises(LayoutError):
            transformation_matrix([[1000000]], [[1000001]])


class TestTransformAccess:
    def test_equation_3(self):
        Q = np.array([[4], [0]], dtype=np.int64)
        O = np.array([1, 2], dtype=np.int64)
        M = np.array([[0, 1], [1, 0]], dtype=np.int64)
        Q1, O1 = transform_access(Q, O, M)
        assert np.array_equal(Q1, np.array([[0], [4]]))
        assert np.array_equal(O1, np.array([2, 1]))


class TestEquation4:
    def test_paper_figure14_example(self):
        """<A[4i], A[4i+3]> with L=2: A's element 4i maps to 2i (lane 0)
        and 4i+3 maps to 2i+1 (lane 1) — Figure 14's mapping."""
        for i in range(16):
            assert map_index_1d(4 * i, a=4, b=0, L=2, p=0) == 2 * i
            assert map_index_1d(4 * i + 3, a=4, b=3, L=2, p=1) == 2 * i + 1

    def test_unaccessed_index_rejected(self):
        with pytest.raises(ValueError):
            map_index_1d(5, a=4, b=0, L=2, p=0)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            map_index_1d(0, a=0, b=0, L=2, p=0)


class TestEquation5:
    def test_lower_triangular_access(self):
        # R1 accesses A[2i + 1][3j + 2] (q21 = 0 case).
        Q1 = np.array([[2, 0], [0, 3]], dtype=np.int64)
        O1 = np.array([1, 2], dtype=np.int64)
        for i in range(4):
            for j in range(4):
                d = (2 * i + 1, 3 * j + 2)
                row, col = map_index_2d(d, Q1, O1, L=2, p=1)
                assert (row, col) == (i, 2 * j + 1)

    def test_coupled_subscripts(self):
        # A[i][i + 2j]: q21 = 1.
        Q1 = np.array([[1, 0], [1, 2]], dtype=np.int64)
        O1 = np.array([0, 0], dtype=np.int64)
        for i in range(4):
            for j in range(4):
                d = (i, i + 2 * j)
                row, col = map_index_2d(d, Q1, O1, L=4, p=3)
                assert (row, col) == (i, 4 * j + 3)

    def test_rejects_upper_triangular(self):
        Q1 = np.array([[2, 1], [0, 3]], dtype=np.int64)
        with pytest.raises(ValueError):
            map_index_2d((0, 0), Q1, np.zeros(2, dtype=np.int64), 2, 0)


class TestGeneralMapping:
    def test_1d_degenerates_to_equation_4(self):
        out = map_index_general(
            (8,), np.array([[4]], dtype=np.int64),
            np.array([0], dtype=np.int64), L=2, p=0,
        )
        assert out == (4,)

    def test_3d_strided_innermost(self):
        # A[i][j][5k + 1], L = 2, p = 0.
        Q1 = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 0, 5]], dtype=np.int64
        )
        O1 = np.array([0, 0, 1], dtype=np.int64)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    d = (i, j, 5 * k + 1)
                    out = map_index_general(d, Q1, O1, L=2, p=0)
                    assert out == (i, j, 2 * k)

    def test_matches_2d_case(self):
        Q1 = np.array([[2, 0], [0, 3]], dtype=np.int64)
        O1 = np.array([1, 2], dtype=np.int64)
        d = (2 * 3 + 1, 3 * 2 + 2)
        assert map_index_general(d, Q1, O1, 2, 1) == map_index_2d(
            d, Q1, O1, 2, 1
        )

    def test_index_off_the_leading_lattice_rejected(self):
        # 100000·i never reaches 100001; i = 1.00001 is not an iteration.
        with pytest.raises(LayoutError):
            map_index_general(
                (100001, 5), [[100000, 0], [0, 1]], [0, 0], 2, 0
            )

    def test_singular_leading_block_rejected(self):
        Q1 = np.zeros((2, 2), dtype=np.int64)
        Q1[1, 1] = 1
        with pytest.raises(ValueError):
            map_index_general(
                (0, 0), Q1, np.zeros(2, dtype=np.int64), 2, 0
            )


class TestStridedMapping:
    def test_destination_is_strided(self):
        mapping = StridedMapping(L=4, p=2)
        assert [mapping.destination(j) for j in range(3)] == [2, 6, 10]
