import numpy as np

from eigenweight import assemble_stiffness, build_grid, decreasing_rearrangement
from eigenweight.serialize import (
    read_field_csv,
    read_profile_csv,
    write_field_csv,
    write_profile_csv,
    write_stiffness_coo,
)


def test_field_roundtrip_1d(tmp_path, rng):
    grid = build_grid("interval", [1.0], [17])
    values = rng.standard_normal(17)
    path = tmp_path / "f.csv"
    write_field_csv(path, values, grid)
    back, meta = read_field_csv(path)
    np.testing.assert_array_equal(back, values)
    assert meta["shape"] == (17,)
    assert meta["extents"] == (1.0,)


def test_field_roundtrip_2d(tmp_path, rng):
    grid = build_grid("rectangle", [2.0, 1.0], [6, 4])
    values = rng.standard_normal(24)
    path = tmp_path / "f2.csv"
    write_field_csv(path, values, grid)
    back, meta = read_field_csv(path)
    np.testing.assert_array_equal(back, values)
    assert meta["dim"] == 2
    # one row per first-axis line
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 1 + 4
    assert len(rows[1].split(",")) == 6


def test_profile_roundtrip(tmp_path):
    grid = build_grid("interval", [1.0], [8])
    cls = decreasing_rearrangement(
        np.array([1.0, 1.0, -2.0, -2.0, -2.0, 0.5, 0.5, 0.5]), grid)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, cls)
    pairs = read_profile_csv(path)
    assert pairs == [(1.0, 0.25), (0.5, 0.375), (-2.0, 0.375)]


def test_truncated_field_rejected(tmp_path, rng):
    from eigenweight import ParseError
    import pytest

    grid = build_grid("rectangle", [1.0, 1.0], [4, 3])
    path = tmp_path / "f.csv"
    write_field_csv(path, rng.standard_normal(12), grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="rows"):
        read_field_csv(path)


def test_stiffness_dump(tmp_path):
    grid = build_grid("interval", [1.0], [3])
    K = assemble_stiffness(grid)
    path = tmp_path / "K.txt"
    write_stiffness_coo(path, K)
    triples = [line.split() for line in path.read_text().splitlines()]
    rebuilt = np.zeros((3, 3))
    for i, j, v in triples:
        rebuilt[int(i), int(j)] = float(v)
    np.testing.assert_array_equal(rebuilt, K.toarray())
