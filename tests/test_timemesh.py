import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfmbe import (TimeMesh, build_graded, build_uniform, extend_random,
                   extend_uniform)


def test_uniform_levels():
    mesh = build_uniform(1.0, 4)
    assert np.allclose(mesh.levels, [0, 0.25, 0.5, 0.75, 1.0], atol=0)
    assert repr(mesh) == "TimeMesh(N=4, T=1, tau_max=0.25)"


def test_uniform_single_step():
    mesh = build_uniform(1.0, 1)
    assert list(mesh.levels) == [0.0, 1.0]


def test_uniform_benchmark_step():
    mesh = build_uniform(30.0, 30000)
    assert mesh.tau_max == pytest.approx(1e-3, rel=1e-12)
    assert mesh.levels[-1] == 30.0


def test_graded_quadratic():
    mesh = build_graded(1.0, 4, 2.0)
    assert np.allclose(mesh.levels, [0, 1 / 16, 1 / 4, 9 / 16, 1.0], atol=0)


def test_graded_gamma_one_is_uniform_bitwise():
    graded = build_graded(1.0, 7, 1.0)
    uniform = build_uniform(1.0, 7)
    assert np.array_equal(graded.levels, uniform.levels)


def test_graded_first_step_cubic():
    mesh = build_graded(0.01, 30, 3.0)
    assert mesh.taus[0] == pytest.approx(0.01 * (1 / 30) ** 3, rel=1e-12)


def test_graded_rejects_coarsening_exponent():
    with pytest.raises(ValueError):
        build_graded(1.0, 4, 0.5)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_uniform(-1.0, 4)
    with pytest.raises(ValueError):
        build_uniform(1.0, 0)
    with pytest.raises(ValueError, match="at least two levels"):
        TimeMesh([0.0])
    with pytest.raises(ValueError):
        TimeMesh([0.1, 0.2])
    with pytest.raises(ValueError):
        TimeMesh([0.0, 0.5, 0.5])


def test_extend_random_single_cell_exact():
    mesh = extend_random(build_uniform(1.0, 1), 2.0, 1, seed=99)
    assert mesh.levels[-1] == 2.0
    assert mesh.taus[-1] == 1.0


def test_extend_random_sums_and_determinism():
    base = build_uniform(1.0, 1)
    a = extend_random(base, 3.0, 2, seed=5)
    b = extend_random(base, 3.0, 2, seed=5)
    assert a.taus[-2:].sum() == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(a.levels, b.levels)
    c = extend_random(base, 3.0, 2, seed=6)
    assert not np.array_equal(a.levels, c.levels)


def test_extend_random_requires_larger_horizon():
    with pytest.raises(ValueError):
        extend_random(build_uniform(1.0, 2), 0.5, 3, seed=0)


@pytest.mark.parametrize("extend", [lambda m, T, n: extend_random(m, T, n, seed=0),
                                    extend_uniform], ids=["random", "uniform"])
def test_extensions_share_validation(extend):
    base = build_uniform(1.0, 2)
    with pytest.raises(ValueError, match=r"extension target T=1\.0 must exceed"):
        extend(base, 1.0, 3)
    with pytest.raises(ValueError, match=r"N1 must be at least 1, got 0"):
        extend(base, 2.0, 0)
    assert extend(base, 2.0, 3).levels[-1] == 2.0


def test_extend_uniform_steps():
    mesh = extend_uniform(build_uniform(1.0, 1), 2.0, 2)
    assert np.allclose(mesh.taus[-2:], 0.5, atol=0)
    mesh = extend_uniform(build_uniform(1.0, 1), 1.5, 1)
    assert mesh.taus[-1] == pytest.approx(0.5, abs=1e-15)


def test_extend_uniform_benchmark_tail():
    prefix = build_graded(0.01, 30, 3.0)
    mesh = extend_uniform(prefix, 30.0, 29970)
    assert mesh.taus[-1] == pytest.approx((30.0 - 0.01) / 29970, rel=1e-12)
    assert mesh.levels[-1] == 30.0


@given(st.floats(0.1, 100.0), st.integers(1, 200), st.floats(1.0, 6.0))
@settings(max_examples=50, deadline=None)
def test_step_sums_match_horizon(T0, N0, gamma):
    mesh = build_graded(T0, N0, gamma)
    assert mesh.taus.sum() == pytest.approx(T0, rel=1e-12)
    assert np.all(mesh.taus > 0)
    assert mesh.tau_max == mesh.taus.max()


@given(st.integers(0, 2**32 - 1), st.integers(1, 50))
@settings(max_examples=30, deadline=None)
def test_extend_random_pure_function(seed, n1):
    base = build_graded(0.5, 3, 2.0)
    a = extend_random(base, 2.0, n1, seed)
    b = extend_random(base, 2.0, n1, seed)
    assert np.array_equal(a.levels, b.levels)
    assert a.taus.sum() == pytest.approx(2.0, rel=1e-12)


def test_mesh_immutable():
    mesh = build_uniform(1.0, 4)
    with pytest.raises(ValueError):
        mesh.levels[0] = 1.0
