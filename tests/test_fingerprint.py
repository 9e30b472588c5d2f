"""The one-walk fingerprint against a reference serializer.

``_reference`` is the serializer the fingerprint had before it became one
walk: a preorder pass for the shape, then a pass in key order through
``items()`` that feeds each ``key=payload;`` entry to its own sha256
update.  It prints each rank from its definition (the zip-zip pair, the
L-treap's ``(f, oracle)``, the C-treap's ``(log u / f,)``) and each drawn
weight from its definition (``threshold(weight, N)`` in a thresholded
dict, the stored weight elsewhere), so it shares no formatting with the walk.
Every structure must give the same bytes as the reference, a paired dict
the reference of each side, each with its own payload digest.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from hidict.core import oracle_uniform, oracle_value
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import CTreap, LTreap, ZipZipTree
from hidict.thresholding import ThresholdedDict, threshold


def _rank_text(tree, node):
    if isinstance(tree, ZipZipTree):
        return repr(divmod(node.rank, 2**32))
    if isinstance(tree, LTreap):
        return repr((node.weight, oracle_value(tree.seed, node.key, 2)))
    return repr((math.log(oracle_uniform(tree.seed, node.key, 3)) / node.weight,))


def _reference(tree) -> bytes:
    parts = ["%s;seed=%d;n=%d;" % (tree.kind, tree.seed, tree._n)]
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(".")
            continue
        drawn = (threshold(node.weight, tree.N)
                 if isinstance(tree, ThresholdedDict) else node.weight)
        parts.append("(%r:%s:%r)" % (node.key, _rank_text(tree, node), drawn))
        stack.append(node.right)
        stack.append(node.left)
    h = hashlib.sha256()
    for key, payload in tree.items():
        if payload is None:
            continue
        h.update(repr(key).encode())
        h.update(b"=")
        h.update(payload)
        h.update(b";")
    head = tree.header() if isinstance(tree, ThresholdedDict) else b""
    return head + ("".join(parts) + "|payload=").encode() + h.digest()


def _reference_fingerprint(d) -> bytes:
    if not isinstance(d, PairedDict):
        return _reference(d)
    cap = -1 if d.capacity is None else d.capacity
    head = b"paired;gamma=%s;cap=%d;" % (repr(d.gamma).encode(), cap)
    return head + _reference(d.learned) + b"|" + _reference(d)


_KEYS = {
    "int": lambda i: (i * 7919) % 1009 - 500 + (i % 3) * 10**20,
    "str": lambda i: "k'é=;%d\"" % i,
    "bytes": lambda i: b"k=;\x00\xff" + i.to_bytes(2, "big"),
}

_PAYLOADS = (None, b"", b"a=b;c", b"=;", b"\x00;=\xff")


def _estimate(kind, rng):
    """An estimate for the next insert, drawn for the structure ``kind``."""
    if kind == "uniform":
        return rng.choice([1.0, 1, True])  # equal weights that print apart
    if kind == "l-treap":
        return rng.choice([0.0, -0.0, -0.25, -3.0, 0.5, 0.5, 2, rng.random() - 0.5])
    if kind == "biased":
        return rng.choice([0.5, np.float64(0.5), 0.25, 1, rng.random() + 1e-9])
    if kind == "positive":
        return rng.choice([0.5, 1e-9, rng.random() * 0.01 + 1e-12])
    # a frequency, often at or below a cutoff's floor
    return rng.choice([0.0, 0, 1e-9, 0.5, rng.random() * 0.01, rng.random()])


_STRUCTURES = {
    "zipzip": (lambda: ZipZipTree(3), "uniform"),
    "biased-zipzip": (lambda: ZipZipTree(4), "biased"),
    "threshold": (lambda: ThresholdedDict(5, 300), "frequency"),
    "dynamic-whi": (lambda: DynamicThresholdDict(6, scheme="whi", scheme_seed=2), "frequency"),
    "dynamic-amortized": (lambda: DynamicThresholdDict(7, scheme="amortized"), "frequency"),
    "paired": (lambda: PairedDict(8), "positive"),
    "paired-cap": (lambda: PairedDict(9, gamma=1.3863, capacity=300), "positive"),
    "l-treap": (lambda: LTreap(10), "l-treap"),
    "c-treap": (lambda: CTreap(11), "biased"),
}


def _check(d, where):
    state = dict(vars(d))
    assert d.fingerprint() == _reference_fingerprint(d), where
    assert vars(d) == state, where  # the walk leaves nothing resident


@pytest.mark.parametrize("key_kind", sorted(_KEYS))
@pytest.mark.parametrize("name", list(_STRUCTURES))
def test_fingerprint_equals_the_two_walk_reference(name, key_kind):
    make, kind = _STRUCTURES[name]
    key_of = _KEYS[key_kind]
    rng = random.Random("%s/%s" % (name, key_kind))
    d = make()
    _check(d, "empty")
    present = []
    # grow, then mostly delete, then empty out
    for phase, steps, p_insert in (("grow", 120, 1.0), ("shrink", 90, 0.3),
                                   ("empty", None, 0.0)):
        for _ in range(steps or len(present)):
            key = key_of(rng.randrange(2000))
            if rng.random() < p_insert and key not in present:
                d.insert(key, _estimate(kind, rng), rng.choice(_PAYLOADS))
                present.append(key)
            elif present and rng.random() >= p_insert:
                d.delete(present.pop(rng.randrange(len(present))))
            if rng.random() < 0.2:
                _check(d, (phase, len(d)))
        _check(d, phase)
    assert len(d) == 0


def test_dynamic_fingerprints_equal_the_reference_after_rebuilds():
    # a rebuild moves every rank below both floors; the walk's inline
    # threshold must follow the new cutoff
    for scheme in ("whi", "amortized"):
        d = DynamicThresholdDict(12, scheme=scheme, scheme_seed=3)
        cutoffs = set()
        rng = random.Random(5)
        for k in range(400):
            d.insert(k, rng.choice([0.0, 1e-4, 0.01, 0.3]), b"p%d" % k)
            cutoffs.add(d.N)
            if k % 37 == 0:
                assert d.fingerprint() == _reference_fingerprint(d), (scheme, d.N)
        for k in range(0, 400, 2):
            d.delete(k)
            cutoffs.add(d.N)
            if k % 41 == 0:
                assert d.fingerprint() == _reference_fingerprint(d), (scheme, d.N)
        assert d.fingerprint() == _reference_fingerprint(d)
        assert len(cutoffs) > 3, (scheme, cutoffs)


def test_ltreap_signed_zero_estimates_print_their_sign():
    # -0.0 and 0.0 tie as priorities, and the oracle orders them; each
    # node still prints the estimate it was given
    t = LTreap(13)
    for key, f in ((1, 0.0), (2, -0.0), (3, -0.0), (4, 0.0), (5, -1.5)):
        t.insert(key, f, b"v=%d;" % key)
    fp = t.fingerprint()
    assert fp == _reference(t)
    for key, f in ((1, 0.0), (2, -0.0), (3, -0.0), (4, 0.0)):
        assert ("(%d:(%r, %d):%r)" % (key, f, oracle_value(13, key, 2), f)).encode() in fp
