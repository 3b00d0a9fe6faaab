import pickle
import warnings

import numpy as np
import pytest

from aggr1d import measure
from aggr1d.measure import (
    DiscreteMeasure,
    from_cells,
    quantile,
    wasserstein1,
    write_atoms_csv,
    write_csv,
)


def dirac(x):
    return DiscreteMeasure([x], [1.0])


def test_unpickled_measure_is_read_only_with_the_same_bits():
    rng = np.random.default_rng(7)
    m = DiscreteMeasure(rng.normal(size=50), rng.random(50) * 1e-300)
    back = pickle.loads(pickle.dumps(m))
    for got, want in ((back.positions, m.positions), (back.masses, m.masses)):
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()


def test_from_cells_basic():
    m = from_cells(0.0, 1.0, [0.5, 0.0, 0.5])
    np.testing.assert_array_equal(m.positions, [0.0, 2.0])
    np.testing.assert_array_equal(m.masses, [0.5, 0.5])


def test_from_cells_single_cell():
    m = from_cells(0.0, 0.5, [2.0])
    np.testing.assert_array_equal(m.positions, [0.0])
    np.testing.assert_array_equal(m.masses, [1.0])


def test_from_cells_empty_and_errors():
    m = from_cells(-1.0, 1.0, [0.0, 0.0, 0.0])
    assert m.n_atoms == 0
    assert m.total_mass == 0.0
    with pytest.raises(ValueError):
        from_cells(0.0, 1.0, [0.1, -0.2])
    with pytest.raises(ValueError):
        from_cells(0.0, 0.0, [0.1])


@pytest.mark.parametrize(
    "origin, dx",
    # at 1e6 steps of 2e-12 round to coincident centers, which become one atom; steps of 5e-13 from 0 stay distinct
    [(-2.4975, 0.005), (0.0, 1.0), (1e6, 2e-12), (0.0, 5e-13)],
)
def test_from_cells_matches_constructor(origin, dx):
    # denormal densities whose cell mass underflows to zero are dropped too
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.0, 1.0, 1000)
    rho[rng.uniform(size=1000) < 0.3] = 0.0
    rho[:3] = 5e-324
    m = from_cells(origin, dx, rho)
    ref = DiscreteMeasure(origin + dx * np.arange(rho.size), rho * dx)
    np.testing.assert_array_equal(m.positions, ref.positions)
    np.testing.assert_array_equal(m.masses, ref.masses)
    assert np.all(np.diff(m.positions) > 0.0)
    assert not m.positions.flags.writeable and not m.masses.flags.writeable
    assert np.all(m.masses > 0.0)


def test_constructor_merges_only_coincident_atoms():
    m = DiscreteMeasure([1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    np.testing.assert_array_equal(m.positions, [0.0, 1.0])
    np.testing.assert_array_equal(m.masses, [0.5, 0.5])
    # atoms 5e-13 apart are two atoms: only the particle engine merges distinct positions
    close = DiscreteMeasure([1.0, 1.0 + 5e-13, 0.0], [0.25, 0.25, 0.5])
    np.testing.assert_array_equal(close.positions, [0.0, 1.0, 1.0 + 5e-13])
    np.testing.assert_array_equal(close.masses, [0.5, 0.25, 0.25])
    # positions whose differences overflow, or are inf - inf, compare with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = DiscreteMeasure([1.5e308, -1.5e308, np.inf, np.inf], [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_array_equal(far.positions, [-1.5e308, 1.5e308, np.inf])
    np.testing.assert_array_equal(far.masses, [0.25, 0.25, 0.5])


def test_constructor_rejects_negative_mass():
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0], [-1.0])


def test_quantile_single_atom():
    assert quantile(dirac(0.0), 0.7) == 0.0


def test_quantile_two_atoms():
    m = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    assert quantile(m, 0.25) == -1.0
    assert quantile(m, 0.75) == 1.0


def test_quantile_right_continuity_at_breakpoint():
    # F(0) = 1/2 is not > 1/2, so the generalized inverse jumps to the next atom
    m = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
    assert quantile(m, 0.5) == 2.0


def test_quantile_monotone_right_continuous():
    rng = np.random.default_rng(3)
    m = DiscreteMeasure(np.sort(rng.normal(size=6)), np.full(6, 1.0 / 6.0))
    z = np.sort(rng.uniform(1e-6, 1.0 - 1e-6, size=300))
    q = quantile(m, z)
    assert np.all(np.diff(q) >= 0)


def test_quantile_domain_errors():
    with pytest.raises(ValueError):
        quantile(dirac(0.0), 0.0)
    with pytest.raises(ValueError):
        quantile(dirac(0.0), 1.0)
    with pytest.raises(ValueError):
        quantile(DiscreteMeasure([0.0], [0.5]), 0.5)


def test_wasserstein_two_diracs():
    assert wasserstein1(dirac(-1.0), dirac(1.0)) == 2.0


def test_wasserstein_split_vs_dirac():
    m = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
    assert wasserstein1(m, dirac(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_wasserstein_identity_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 9)
        w = rng.random(n) + 0.05
        m = DiscreteMeasure(np.sort(rng.normal(size=n) * 3), w / w.sum())
        assert wasserstein1(m, m) == 0.0
        n2 = rng.integers(1, 9)
        w2 = rng.random(n2) + 0.05
        m2 = DiscreteMeasure(np.sort(rng.normal(size=n2) * 3), w2 / w2.sum())
        assert wasserstein1(m, m2) == pytest.approx(wasserstein1(m2, m), abs=0)


def test_wasserstein_mass_mismatch():
    with pytest.raises(ValueError):
        wasserstein1(dirac(0.0), DiscreteMeasure([0.0], [0.9]))


def _random_probability(rng, max_atoms=8):
    n = rng.integers(1, max_atoms + 1)
    w = rng.random(n) + 0.02
    return DiscreteMeasure(rng.normal(size=n) * 4.0, w / w.sum())


def test_wasserstein_empty_measures():
    empty = DiscreteMeasure([], [])
    assert wasserstein1(empty, empty) == 0.0
    # the masses agree to 1e-11, within MASS_MATCH_TOL, but no transport plan exists
    with pytest.raises(ValueError, match="empty"):
        wasserstein1(empty, DiscreteMeasure([0.0], [1e-11]))
    with pytest.raises(ValueError, match="empty"):
        wasserstein1(DiscreteMeasure([0.0], [1e-11]), empty)


def test_wasserstein_triangle_inequality():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        m1, m2, m3 = (_random_probability(rng) for _ in range(3))
        d12 = wasserstein1(m1, m2)
        d23 = wasserstein1(m2, m3)
        d13 = wasserstein1(m1, m3)
        assert d13 <= d12 + d23 + 1e-10


def _riemann_w1(m1, m2, n_points=1_000_000):
    z = (np.arange(n_points) + 0.5) / n_points
    return float(np.mean(np.abs(quantile(m1, z) - quantile(m2, z))))


def test_wasserstein_against_riemann_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m1, m2 = _random_probability(rng), _random_probability(rng)
        assert wasserstein1(m1, m2) == pytest.approx(_riemann_w1(m1, m2), abs=1e-4)


def test_wasserstein_translation_exact():
    # dyadic positions and shift: the shifted quantile differences are the
    # same floats, so the distance matches bit for bit
    rng = np.random.default_rng(31)
    scale = 2.0**-20
    for _ in range(50):
        n1, n2 = rng.integers(1, 9), rng.integers(1, 9)
        x1 = np.sort(rng.integers(-(2**22), 2**22, size=n1)) * scale
        x2 = np.sort(rng.integers(-(2**22), 2**22, size=n2)) * scale
        w1 = rng.random(n1) + 0.1
        w2 = rng.random(n2) + 0.1
        m1 = DiscreteMeasure(x1, w1 / w1.sum())
        m2 = DiscreteMeasure(x2, w2 / w2.sum())
        s = 3.25
        m1s = DiscreteMeasure(m1.positions + s, m1.masses)
        m2s = DiscreteMeasure(m2.positions + s, m2.masses)
        assert wasserstein1(m1s, m2s) == wasserstein1(m1, m2)


def _tied_cumulatives(rng):
    """Pairs of cumulative masses with forced ties, as wasserstein1 receives them."""
    for n1, n2 in [(1, 1), (3, 5), (64, 64), (512, 2000)]:
        m1, m2 = _random_probability(rng, n1), _random_probability(rng, n2)
        c1 = m1.cumulative()
        yield c1, m2.cumulative()
        yield c1, c1.copy()  # equal measures
        shared = np.concatenate([c1[::2], rng.random(n2) * c1[-1]])
        shared.sort()
        yield c1, shared  # every other breakpoint shared
    # dyadic masses: the coarse cumulative masses are exact sums of the fine ones
    yield np.cumsum(np.full(8, 0.125)), np.cumsum([0.25, 0.5, 0.25])
    # a mass below one ulp of its running sum repeats that sum
    tiny = np.cumsum([0.3, 1e-20, 0.2, 1e-300, 0.5])
    assert tiny[0] == tiny[1] and tiny[2] == tiny[3]
    yield tiny, np.cumsum([0.3, 0.7])


def test_breakpoint_merge_is_np_unique_bit_for_bit():
    rng = np.random.default_rng(37)
    for c1, c2 in _tied_cumulatives(rng):
        got = measure._breakpoints(c1, c2)
        want = np.unique(np.concatenate([[0.0], c1, c2]))
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_atoms_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    m = DiscreteMeasure(np.sort(rng.normal(size=5)), rng.random(5) + 0.1)
    path = write_atoms_csv(m, tmp_path / "atoms.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "position,mass"
    pos, mas = [], []
    for line in lines[1:]:
        a, b = line.split(",")
        pos.append(float(a))
        mas.append(float(b))
    np.testing.assert_array_equal(pos, m.positions)  # 17 significant digits round-trip
    np.testing.assert_array_equal(mas, m.masses)


def test_write_csv_array_rows_match_row_path(tmp_path):
    # the one-pass array path writes the bytes of the per-value row path,
    # integral columns included (str(3) == "%.17g" % 3.0)
    rng = np.random.default_rng(41)
    floats = np.concatenate([rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, 20), [0.0, -0.0, 1e16, 0.1, 5e-324]])
    counts = rng.integers(0, 10**15, floats.size)
    rows = [(int(k), float(v), int(k % 7)) for k, v in zip(counts, floats)]
    by_row = write_csv(tmp_path / "rows.csv", "a,b,c", rows).read_bytes()
    by_array = write_csv(tmp_path / "array.csv", "a,b,c", np.array(rows, dtype=float)).read_bytes()
    assert by_array == by_row
    assert write_csv(tmp_path / "empty.csv", "a,b", np.empty((0, 2))).read_text() == "a,b\n"
