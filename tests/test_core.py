import numpy as np
import pytest

import hidict
from hidict.core import (
    ComparisonTally,
    derive_seed,
    geometric_from_bits,
    oracle_uniform,
    oracle_value,
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
