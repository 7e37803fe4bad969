import numpy as np
import pytest

import ltll.numerics as numerics
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


@pytest.mark.parametrize("seed,stream,expected", [
    (0, 0, ["0x1.f8082b7aed440p-1", "0x1.48647f1568eb0p-1",
            "0x1.2e8ec8e619bf0p-6", "0x1.1384fdda146abp-2"]),
    (20240, 1, ["0x1.a86070eb115d6p-1", "0x1.1c090b14b2fb6p-1",
                "0x1.d057076f10957p-2", "0x1.c5d0bed8d3ea8p-5"]),
    ((1 << 64) - 1, (1 << 64) - 1, ["0x1.f044d94cb7b1dp-2", "0x1.d0678b91fe53cp-4",
                                    "0x1.6715ba0d7eb18p-1", "0x1.f299954ee9b3cp-1"]),
])
def test_pinned_streams(seed, stream, expected):
    # Every sweep and chain draws through these keys; a change here moves all outputs.
    got = RngStream(seed, stream).uniforms(4)
    assert [float(u).hex() for u in got] == expected


def test_top_word_stays_below_one(monkeypatch):
    stream = RngStream(7, 0)
    monkeypatch.setattr(numerics, "_mix64_array",
                        lambda z: np.full(z.shape, np.iinfo(np.uint64).max, dtype=np.uint64))
    u = stream.uniforms(3)
    assert np.all(u < 1.0)
    assert np.all(u == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(normal_quantile(u)))
