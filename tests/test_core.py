import numpy as np
import pytest

import hidict
from hidict.core import (
    ComparisonTally,
    _key_bytes,
    derive_seed,
    geometric_from_bits,
    oracle_uniform,
    oracle_value,
    show_value,
)


def test_oracle_deterministic():
    assert oracle_value(123, 45, 0) == oracle_value(123, 45, 0)
    assert oracle_uniform(123, 45, 0) == oracle_uniform(123, 45, 0)


def test_oracle_stream_separation():
    vals = {oracle_value(7, 9, s) for s in range(8)}
    assert len(vals) == 8


def test_oracle_seed_and_key_sensitivity():
    assert oracle_value(1, 2, 0) != oracle_value(2, 2, 0)
    assert oracle_value(1, 2, 0) != oracle_value(1, 3, 0)
    # negative/positive and str/int keys must not collide trivially
    assert oracle_value(1, -2, 0) != oracle_value(1, 2, 0)


def test_oracle_bit_uniformity():
    # each of the 64 output bits set with frequency 0.5 +- 0.01 over 1e5 keys
    vals = np.array([oracle_value(42, k, 0) for k in range(1, 100_001)],
                    dtype=np.uint64)
    bits = np.unpackbits(vals.view(np.uint8)).reshape(-1, 64)
    freqs = bits.mean(axis=0)
    assert freqs.min() > 0.49 and freqs.max() < 0.51


# The key encoding spelled out: an int is a sign byte (0 for >= 0, 1 for
# < 0) and its magnitude big-endian in as few bytes as hold it, at least
# one; bytes and str are a type byte and the bytes, str as UTF-8.
_ENCODINGS = [
    (0, b"\x00\x00"),
    (1, b"\x00\x01"),
    (255, b"\x00\xff"),
    (256, b"\x00\x01\x00"),
    (2**64 - 1, b"\x00\xff\xff\xff\xff\xff\xff\xff\xff"),
    (2**64, b"\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00"),
    (-1, b"\x01\x01"),
    (-255, b"\x01\xff"),
    (-256, b"\x01\x01\x00"),
    (-(2**64 - 1), b"\x01\xff\xff\xff\xff\xff\xff\xff\xff"),
    (-(2**64), b"\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"),
    ("", b"s"),
    ("\u00e9", b"s\xc3\xa9"),
    (b"", b"b"),
    (b"x", b"bx"),
]


@pytest.mark.parametrize("key, encoded", _ENCODINGS, ids=[repr(k) for k, _ in _ENCODINGS])
def test_key_encoding_is_pinned(key, encoded):
    # oracle_value and every tree's ranks share this encoder, so the
    # reference-oracle tests cannot see a slip in it; this test can
    assert _key_bytes(key) == encoded


# oracle_value(seed, key, stream): a change to the key encoding or to the
# oracle's hashing moves these
_ORACLE_VALUES = [
    ((0, 0, 0), 0x3b439dc87c182736),
    ((1, 0, 0), 0x11f4f604d2addba5),
    ((1, -1, 0), 0x52a37bce7fac9083),
    ((7, 255, 1), 0x08f948ab3c4c0871),
    ((7, 256, 2), 0xe3b25bb314a6452c),
    ((42, 2**64 - 1, 3), 0x3f9ed9e6538fef60),
    ((42, 2**64, 8), 0x9c6b25fab1eb3168),
    ((42, -(2**64), 9), 0x8af85b08a369a2d4),
    ((5, "", 0), 0x8fb5d3805ff361f1),
    ((5, "\u00e9", 2), 0x8e98909cc4a7012c),
    ((5, b"", 3), 0x41746ddaf73d5379),
    ((5, b"x", 0), 0x8d0576eea39f6931),
    ((2**64 + 3, "x", 1), 0x8637e76adcc7458b),
]


@pytest.mark.parametrize("args, value", _ORACLE_VALUES)
def test_oracle_values_are_pinned(args, value):
    assert oracle_value(*args) == value


def test_show_value_names_an_int_too_long_to_print():
    assert show_value(2.5) == "2.5"
    assert show_value("x") == "'x'"
    assert show_value(10**4000) == repr(10**4000)
    # past Python's int-to-string limit: the type, the sign and the digits
    assert show_value(10**5000) == "<int of 5001 digits>"
    assert show_value(10**5000 - 1) == "<int of 5000 digits>"
    assert show_value(-(10**6000)) == "<negative int of 6001 digits>"


def test_geometric_examples():
    assert geometric_from_bits(0) == 0
    assert geometric_from_bits(0x7FFFFFFFFFFFFFFF) == 0  # top bit clear
    assert geometric_from_bits((1 << 64) - 1) == 64  # all ones: cap
    assert geometric_from_bits(0x8000000000000000) == 1
    assert geometric_from_bits(0xC000000000000000) == 2


def test_geometric_mean():
    # E[Geom(1/2)] = 1; Monte Carlo over 1e6 uniform 64-bit inputs
    rng = np.random.default_rng(0)
    inputs = rng.integers(0, 1 << 64, size=1_000_000, dtype=np.uint64)
    mean = sum(geometric_from_bits(int(b)) for b in inputs) / 1_000_000
    assert mean == pytest.approx(1.0, abs=0.01)


def test_oracle_uniform_open_interval():
    us = [oracle_uniform(5, k, 0) for k in range(1000)]
    assert all(0.0 < u < 1.0 for u in us)


def test_derive_seed_distinct():
    seeds = {derive_seed(0, "a", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(0, "a", 1) != derive_seed(1, "a", 1)


def test_tally():
    t = ComparisonTally()
    assert t.count == 0
    t.count += 3
    t.reset()
    assert t.count == 0


def test_exports_resolve():
    for name in hidict.__all__:
        assert hasattr(hidict, name), name
    namespace = {}
    exec("from hidict import *", namespace)
    assert set(hidict.__all__) <= set(namespace)
