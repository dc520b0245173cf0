"""Mesh generation and shape-factor tests with frozen golden values."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frspectra.mesh import (
    CUBE_SHAPE_FACTOR,
    MeshGenerationError,
    generate,
    hex_surface_area,
    hex_volume,
    shape_factor,
    write_mesh,
)

UNIT_CUBE = np.array(
    [
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
        [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
    ],
    dtype=float,
)


def box_corners(a, b, c):
    return UNIT_CUBE * np.array([a, b, c])


def rotation_matrix(angles):
    ax, ay, az = angles
    rx = np.array([[1, 0, 0], [0, np.cos(ax), -np.sin(ax)], [0, np.sin(ax), np.cos(ax)]])
    ry = np.array([[np.cos(ay), 0, np.sin(ay)], [0, 1, 0], [-np.sin(ay), 0, np.cos(ay)]])
    rz = np.array([[np.cos(az), -np.sin(az), 0], [np.sin(az), np.cos(az), 0], [0, 0, 1]])
    return rz @ ry @ rx


class TestShapeFactor:
    def test_unit_cube(self):
        assert abs(shape_factor(UNIT_CUBE) - np.sqrt(np.pi / 6)) < 1e-12

    def test_volume_and_area_of_cube(self):
        assert abs(hex_volume(UNIT_CUBE) - 1.0) < 1e-14
        assert abs(hex_surface_area(UNIT_CUBE) - 6.0) < 1e-14

    def test_box_2x1x1_golden(self):
        # frozen evaluation of 6 sqrt(pi) V / S^1.5 with V=2, S=10
        assert abs(shape_factor(box_corners(2, 1, 1)) - 0.67259894596775138) < 1e-15

    def test_any_box_below_cube(self):
        for dims in [(2, 1, 1), (1, 3, 1), (0.2, 1, 1), (5, 4, 3)]:
            assert shape_factor(box_corners(*dims)) < CUBE_SHAPE_FACTOR

    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        c=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_boxes_bounded_by_cube(self, a, b, c):
        assert shape_factor(box_corners(a, b, c)) <= CUBE_SHAPE_FACTOR + 1e-12

    def test_no_single_corner_move_scores_above_the_cube(self):
        center = UNIT_CUBE.mean(axis=0)
        for i, corner in enumerate(UNIT_CUBE):
            diagonal = (corner - center) / np.linalg.norm(corner - center)
            for sign in (1.0, -1.0):
                moved = UNIT_CUBE.copy()
                moved[i] += sign * 1e-3 * diagonal
                assert shape_factor(moved) <= CUBE_SHAPE_FACTOR, (i, sign)

    @given(
        ax=st.floats(0, 2 * np.pi),
        ay=st.floats(0, np.pi),
        az=st.floats(0, 2 * np.pi),
        scale=st.floats(0.01, 100.0),
        shift=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_rigid_motion_and_scaling(self, ax, ay, az, scale, shift):
        base = box_corners(1.7, 0.9, 1.2)
        moved = scale * (base @ rotation_matrix((ax, ay, az)).T) + shift
        assert abs(shape_factor(moved) - shape_factor(base)) < 1e-9

    def test_degenerate_coincident_corners(self):
        bad = UNIT_CUBE.copy()
        bad[1] = bad[0]
        with pytest.raises(MeshGenerationError):
            shape_factor(bad)

    def test_inverted_element(self):
        flipped = UNIT_CUBE.copy()
        flipped[:, 2] = -flipped[:, 2]  # reflection: negative volume
        with pytest.raises(MeshGenerationError):
            shape_factor(flipped)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            shape_factor(UNIT_CUBE[:7])


class TestGenerate:
    def test_zero_jitter_uniform(self):
        mesh = generate((4, 4, 4), 1.0, 0.0, seed=5)
        assert np.abs(mesh.per_element_qh - CUBE_SHAPE_FACTOR).max() < 1e-12
        expected = np.linspace(0.0, 1.0, 5)
        assert np.abs(mesh.nodes[:, 0, 0, 0] - expected).max() < 1e-15

    def test_same_seed_bit_identical(self):
        m1 = generate((6, 6, 6), 2.0, 0.4, seed=123)
        m2 = generate((6, 6, 6), 2.0, 0.4, seed=123)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.per_element_qh, m2.per_element_qh)

    def test_different_seed_differs(self):
        m1 = generate((6, 6, 6), 2.0, 0.4, seed=123)
        m2 = generate((6, 6, 6), 2.0, 0.4, seed=124)
        assert not np.array_equal(m1.nodes, m2.nodes)

    def test_boundary_nodes_unperturbed(self):
        mesh = generate((5, 5, 5), 1.0, 0.7, seed=9)
        for axis in range(3):
            lo = np.take(mesh.nodes, 0, axis=axis)[..., axis]
            hi = np.take(mesh.nodes, -1, axis=axis)[..., axis]
            assert np.abs(lo).max() == 0.0
            assert np.abs(hi - 1.0).max() == 0.0

    def test_golden_mean_fixed_seed(self):
        mesh = generate((20, 20, 20), 1.0, 0.5, seed=42)
        assert float(mesh.per_element_qh.mean()) == 0.6846876930285654

    def test_mean_monotone_in_jitter(self):
        means = [
            generate((12, 12, 12), 2.0, jf, seed=7).per_element_qh.mean()
            for jf in np.arange(0.0, 0.81, 0.1)
        ]
        assert np.all(np.diff(means) <= 1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate((1, 4, 4), 1.0, 0.0, 0)
        with pytest.raises(ValueError):
            generate((4, 4, 4), 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            generate((4, 4, 4), -1.0, 0.1, 0)
        for extent in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                generate((4, 4, 4), extent, 0.1, 0)

    def test_anisotropic_extent(self):
        mesh = generate((4, 2, 2), (2.0, 1.0, 1.0), 0.0, 0)
        # elements are cubes of side 0.5 x 0.5 x 0.5
        assert np.abs(mesh.per_element_qh - CUBE_SHAPE_FACTOR).max() < 1e-12


class TestExport:
    def test_file_holds_the_mesh_losslessly(self, tmp_path):
        mesh = generate((4, 3, 2), (1.0, 0.8, 0.6), 0.35, seed=77)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[:6] == [
            "# frspectra hex mesh v1", "dims 4 3 2", "extent 1.0 0.8 0.6",
            "jitter_factor 0.35", "seed 77", "nodes 60",
        ]
        # node lines run ix fastest, then iy, then iz
        flat = np.loadtxt(path, skiprows=6, max_rows=60)
        assert np.array_equal(flat.reshape(3, 4, 5, 3).transpose(2, 1, 0, 3), mesh.nodes)
        assert lines[66] == "elements 24"
        conn = np.loadtxt(path, skiprows=67, dtype=int)
        assert np.array_equal(conn, mesh.connectivity())

    def test_connectivity_shape_and_corners(self):
        mesh = generate((3, 2, 2), 1.0, 0.0, 0)
        conn = mesh.connectivity()
        assert conn.shape == (12, 8)
        # first element's corners are the expected lattice nodes
        assert conn[0].tolist() == [0, 1, 4, 5, 12, 13, 16, 17]

    def test_generated_arrays_are_read_only(self):
        mesh = generate((3, 2, 2), 1.0, 0.3, seed=4)
        assert not mesh.nodes.flags.writeable
        assert not mesh.per_element_qh.flags.writeable
