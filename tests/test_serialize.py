import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenweight import (
    assemble_stiffness,
    build_grid,
    decreasing_rearrangement,
    simulate_logistic,
    weight_field,
)
from eigenweight.serialize import (
    read_field_csv,
    read_profile_csv,
    write_field_csv,
    write_profile_csv,
    write_stiffness_coo,
    write_trajectory_csv,
)
from oracles import per_value_field_csv, per_value_trajectory_csv

#: binary exponents of subnormals and of values near 1e-300 and 1e+300
EXTREME_EXPONENTS = np.r_[-1074:-1040, -1000:-990, 990:1024]


def family_values(family: str, rng, size: int) -> np.ndarray:
    """``size`` drawn values of one family of cell values."""
    if family == "normal":
        return rng.standard_normal(size)
    if family == "signed zeros":
        values = np.copysign(np.where(rng.random(size) < 0.5, 0.0,
                                      rng.standard_normal(size)),
                             rng.standard_normal(size))
        values[:2] = (0.0, -0.0)[:size]
        return values
    if family == "extremes":
        return np.ldexp(rng.uniform(-1.0, 1.0, size),
                        rng.choice(EXTREME_EXPONENTS, size))
    return np.round(rng.standard_normal(size) * 10.0 ** rng.integers(
        0, 18, size))  # integral floats, some past 2**53


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(2, 12), min_size=1, max_size=3),
       family=st.sampled_from(["normal", "signed zeros", "extremes",
                               "integral"]),
       classes=st.sampled_from([None, 1, 2, 3, 4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_field_csv_bytes_match_per_value_writer(csv_dir, shape, family,
                                                classes, seed):
    grid = build_grid(("interval", "rectangle", "box")[len(shape) - 1],
                      [1.0] * len(shape), shape)
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    if classes is None:
        field = family_values(family, rng, n)
    else:  # every one of the class values appears
        values = family_values(family, rng, classes)
        field = rng.choice(values, n)
        field[:min(n, classes)] = values[:n]
    write_field_csv(csv_dir / "fast.csv", field, grid)
    per_value_field_csv(csv_dir / "oracle.csv", field, grid)
    assert (csv_dir / "fast.csv").read_bytes() == \
        (csv_dir / "oracle.csv").read_bytes()


def test_trajectory_csv_bytes_match_per_value_writer(tmp_path):
    grid = build_grid("rectangle", [2.0, 1.0], [16, 8])
    m = weight_field(grid, np.where(np.arange(128) < 32, 1.0, -2.0))
    traj = simulate_logistic(m, 20.0, np.full(128, 0.01), dt=0.05,
                             t_end=1.0)
    write_trajectory_csv(tmp_path / "fast.csv", traj)
    per_value_trajectory_csv(tmp_path / "oracle.csv", traj)
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


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
