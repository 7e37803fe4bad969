import numpy as np
import pytest

from ltll.numerics import RngStream, normal_quantile


def test_same_key_replays_identically():
    a = RngStream(123456789, 7)
    b = RngStream(123456789, 7)
    assert np.array_equal(a.uniforms(100), b.uniforms(100))


def test_scalar_and_bulk_agree():
    a = RngStream(9, 3)
    scalars = [a.uniforms(1)[0] for _ in range(10)]
    assert np.array_equal(scalars, RngStream(9, 3).uniforms(10))


def test_counter_continuation():
    a = RngStream(5, 0)
    first = a.uniforms(5)
    second = a.uniforms(5)
    assert np.array_equal(np.concatenate([first, second]), RngStream(5, 0).uniforms(10))


def test_streams_independent():
    n = 100_000
    u0 = RngStream(2024, 0).uniforms(n)
    u1 = RngStream(2024, 1).uniforms(n)
    assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.01
    assert not np.array_equal(u0[:100], u1[:100])


def test_uniform_statistics():
    u = RngStream(31415, 2).uniforms(100_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert u.min() > 0.0 and u.max() < 1.0  # strictly open interval


def test_normal_statistics():
    z = normal_quantile(RngStream(31415, 3).uniforms(100_000))
    assert abs(z.var() - 1.0) < 0.02
    assert abs(z.mean()) < 0.01


def test_master_seed_changes_sequence():
    assert not np.array_equal(RngStream(1, 0).uniforms(50), RngStream(2, 0).uniforms(50))


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -2), (1 << 70, 0)])
def test_key_validation(seed, stream):
    with pytest.raises(ValueError):
        RngStream(seed, stream)
