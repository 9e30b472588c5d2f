"""Values the library refuses, named in its own message, with no change.

An int past Python's int-to-string limit (4,300 digits) cannot be shown by
``repr``; a refusal names it by type, sign and digit count.  A cutoff N
is at most half the largest double, so its floor weight 1/(2N) is a
double; a larger one is refused where it is set.  A precedence tree's
payload is bytes or None, the values its fingerprint prints as given.
"""

import math
import random
import sys

import numpy as np
import pytest

from hidict.dynamics import CutoffSimulator, DynamicThresholdDict
from hidict.hiverify import growth_strategy, shi_check, whi_check
from hidict.pairing import PairedDict
from hidict.structures import AVLTree, CTreap, LTreap, ZipZipTree
from hidict.thresholding import ThresholdedDict, threshold, threshold_array
from hidict.workloads import adversarial_rank, inverse_power_frequencies, zipf_frequencies

HUGE = 10**5000  # 5,001 digits
HUGE_TEXT = "<int of 5001 digits>"
NEG_TEXT = "<negative int of 5001 digits>"


def _state(d):
    return d.fingerprint(), len(d), getattr(d, "N", None)


def _filled(make):
    d = make()
    for k in (1, 2, 3):
        d.insert(k, 0.25)
    return d


@pytest.mark.parametrize("make, bad, message", [
    (lambda: ZipZipTree(7), HUGE, "weight must be positive and finite, got " + HUGE_TEXT),
    (lambda: ZipZipTree(7), -HUGE, "weight must be positive and finite, got " + NEG_TEXT),
    (lambda: LTreap(7), HUGE, "L-treap requires a finite estimate a double holds exactly, got "
     + HUGE_TEXT),
    (lambda: CTreap(7), -HUGE, "C-treap requires a positive finite frequency estimate, got "
     + NEG_TEXT),
    (lambda: ThresholdedDict(7, 10), HUGE, "frequency must be in [0, 1], got " + HUGE_TEXT),
    (lambda: DynamicThresholdDict(7, scheme_seed=1), -HUGE,
     "frequency must be in [0, 1], got " + NEG_TEXT),
    (lambda: PairedDict(7), -HUGE, "weight must be positive and finite, got " + NEG_TEXT),
    (lambda: PairedDict(7, capacity=10), -HUGE, "frequency must be in [0, 1], got " + NEG_TEXT),
    (lambda: PairedDict(7), HUGE, "weight must be positive and finite, got " + HUGE_TEXT),
    (lambda: PairedDict(7, capacity=10), HUGE, "frequency must be in [0, 1], got " + HUGE_TEXT),
], ids=["zipzip", "zipzip-neg", "l-treap", "c-treap", "threshold", "dynamic", "paired-neg",
        "paired-cap-neg", "paired", "paired-cap"])
def test_an_unprintable_estimate_is_named_and_changes_nothing(make, bad, message):
    d = _filled(make)
    before = _state(d)
    with pytest.raises(ValueError) as caught:
        d.insert(4, bad)
    assert str(caught.value) == message
    assert _state(d) == before


def test_unprintable_values_in_the_other_refusals():
    with pytest.raises(ValueError) as caught:
        threshold(HUGE, 5)
    assert str(caught.value) == "frequency must be in [0, 1], got " + HUGE_TEXT
    with pytest.raises(ValueError) as caught:
        PairedDict(7, gamma=-HUGE)
    assert str(caught.value) == ("gamma must be positive and at most max double / 64, got "
                                 + NEG_TEXT)
    t = _filled(lambda: ZipZipTree(7))
    before = _state(t)
    with pytest.raises(ValueError) as caught:
        t.range_query(HUGE, 1)
    assert str(caught.value) == "range bounds out of order: %s > 1" % HUGE_TEXT
    with pytest.raises(ValueError) as caught:
        t.range_query(2, -HUGE)
    assert str(caught.value) == "range bounds out of order: 2 > " + NEG_TEXT
    assert _state(t) == before
    t = ZipZipTree(7)
    with pytest.raises(ValueError) as caught:
        t.load_sorted([(HUGE, 1.0, None), (1, 1.0, None)])
    assert str(caught.value) == "entries out of key order: 1 after " + HUGE_TEXT
    assert _state(t) == _state(ZipZipTree(7))


_LEAST_C = 46 / sys.float_info.max  # a C-treap's least estimate
_TINY = "C-treap requires f >= 46 / max double, so that log u / f is finite, got "


@pytest.mark.parametrize("f", [5e-324, 1e-308, math.nextafter(_LEAST_C, 0)],
                         ids=["5e-324", "1e-308", "below-bound"])
def test_a_c_treap_refuses_an_estimate_whose_rank_overflows(f):
    # |log u| < 46, so log u / f is finite from f = 46 / max double on;
    # below it a rank could be -inf: at f = 1e-308, 322 of the keys
    # 1..1999 of CTreap(3) ranked -inf, tied, and fell back to key order
    d = _filled(lambda: CTreap(3))
    before = _state(d)
    with pytest.raises(ValueError) as caught:
        d.insert(4, f)
    assert str(caught.value) == _TINY + repr(f)
    assert _state(d) == before
    t = CTreap(3)
    with pytest.raises(ValueError) as caught:
        t.load_sorted([(1, 0.5, None), (2, f, None)])
    assert str(caught.value) == _TINY + repr(f)
    assert _state(t) == _state(CTreap(3))
    # a non-positive estimate keeps its own message
    for bad in (0.0, -f, float("nan")):
        with pytest.raises(ValueError) as caught:
            d.insert(4, bad)
        assert str(caught.value) == ("C-treap requires a positive finite frequency "
                                     "estimate, got " + repr(bad))


def test_a_c_treap_ranks_finitely_at_its_least_estimate():
    t = CTreap(3)
    for k in range(1, 2000):
        t.insert(k, _LEAST_C)
    assert all(math.isfinite(node.rank) for node in t._inorder())
    t.check_invariants()


_PRECEDENCE = {
    "zipzip": lambda: ZipZipTree(7),
    "l-treap": lambda: LTreap(7),
    "c-treap": lambda: CTreap(7),
    "threshold": lambda: ThresholdedDict(7, 10),
    "dynamic-whi": lambda: DynamicThresholdDict(7, scheme="whi", scheme_seed=1),
    "dynamic-amortized": lambda: DynamicThresholdDict(7, scheme="amortized"),
    "paired": lambda: PairedDict(7),
    "paired-cap": lambda: PairedDict(7, capacity=10),
}


@pytest.mark.parametrize("payload", ["x", 0, 1.5, bytearray(b"x"), memoryview(b"x")],
                         ids=["str", "int", "float", "bytearray", "memoryview"])
@pytest.mark.parametrize("name", list(_PRECEDENCE))
def test_a_payload_that_is_not_bytes_is_refused(name, payload):
    # a str or int payload had been stored, and then fingerprint() raised
    # TypeError; a bytearray printed, and changed the fingerprint when
    # mutated later
    d = _filled(_PRECEDENCE[name])

    def state():
        # a dynamic dict's scheme RNG draws nothing for a refused insert
        return _state(d), d.keys(), d.rng.getstate() if hasattr(d, "rng") else None

    message = "payload must be bytes or None, got " + type(payload).__name__
    before = state()
    for key in (4, 2):  # an absent key and a present one
        with pytest.raises(TypeError) as caught:
            d.insert(key, 0.25, payload)
        assert str(caught.value) == message
        assert state() == before
    if name in ("zipzip", "l-treap", "c-treap"):
        t = _PRECEDENCE[name]()
        with pytest.raises(TypeError) as caught:
            t.load_sorted([(1, 0.25, b"a"), (2, 0.25, payload)])
        assert str(caught.value) == message
        assert _state(t) == _state(_PRECEDENCE[name]()) and t.keys() == []
    d.insert(4, 0.25, b"x")  # bytes and None are taken
    d.insert(5, 0.25)
    assert d.search(4).payload == b"x" and d.search(5).payload is None


_TREES = {"avl": lambda: AVLTree(7), **_PRECEDENCE}


@pytest.mark.parametrize("bad", [1.5, float("nan"), True, np.int64(1), None],
                         ids=["float", "nan", "bool", "numpy-int", "none"])
@pytest.mark.parametrize("name", list(_TREES))
def test_a_key_of_another_type_is_refused(name, bad):
    # AVL had taken 1.5 and nan, and a nan key broke its order: after it,
    # the key 0 went to the right of nan and check_invariants failed; True
    # after the key 1 had raised DuplicateKeyError
    d = _filled(_TREES[name])
    message = "keys must be int, str or bytes, got " + type(bad).__name__
    before = _state(d), d.keys()
    for write in (lambda: d.insert(bad, 0.25), lambda: d.delete(bad)):
        with pytest.raises(TypeError) as caught:
            write()
        assert str(caught.value) == message
        assert (_state(d), d.keys()) == before
    d.insert(0, 0.25)
    assert d.keys() == [0, 1, 2, 3]
    d.check_invariants()


# the largest cutoff: half the largest double, an int
_TOP = int(sys.float_info.max / 2)


@pytest.mark.parametrize("bad", [10**400, _TOP + 1, HUGE], ids=["1e400", "top+1", "huge"])
def test_a_cutoff_above_half_the_largest_double_is_refused(bad):
    # 2.0 * 10**400 raised OverflowError at every insert of a dict that
    # took this cutoff
    text = HUGE_TEXT if bad is HUGE else repr(bad)
    message = "cutoff must be an int in [1, max double / 2], got " + text
    for make in (lambda: ThresholdedDict(1, bad), lambda: PairedDict(1, capacity=bad),
                 lambda: threshold(0.5, bad), lambda: threshold_array(np.array([0.5]), bad)):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message
    for make in (lambda: ThresholdedDict(1, 4),
                 lambda: DynamicThresholdDict(1, scheme="whi", scheme_seed=2)):
        d = _filled(make)
        before = _state(d)
        with pytest.raises(ValueError) as caught:
            d.rebuild(bad)
        assert str(caught.value) == message
        assert _state(d) == before
        d.insert(4, 0.1)  # still takes keys at its old cutoff


def test_the_largest_cutoff_takes_keys():
    # 2.0 * _TOP is the largest double, and the floor weight is subnormal
    assert 0.0 < threshold(0.0, _TOP) < sys.float_info.min
    for d in (ThresholdedDict(1, _TOP), PairedDict(1, capacity=_TOP)):
        for k in (1, 2, 3):
            d.insert(k, 0.0 if isinstance(d, ThresholdedDict) else 0.25)
        assert d.keys() == [1, 2, 3]
        d.check_invariants()
    d = ThresholdedDict(1, 4)
    d.rebuild(_TOP)
    assert d.N == _TOP


# the largest gamma: gamma * log2(n) stays a double for any size
_GAMMA_TOP = sys.float_info.max / 64


@pytest.mark.parametrize("bad, text", [
    (1e308, "1e+308"), (10**400, repr(10**400)), (HUGE, HUGE_TEXT),
    (_GAMMA_TOP * (1 + 2**-52), repr(_GAMMA_TOP * (1 + 2**-52)))],
    ids=["1e308", "1e400", "huge", "top+ulp"])
def test_a_gamma_whose_budget_overflows_is_refused(bad, text):
    # 1e308 and 10**400 had constructed, then every search raised
    # OverflowError
    for capacity in (None, 10):
        with pytest.raises(ValueError) as caught:
            PairedDict(7, gamma=bad, capacity=capacity)
        assert str(caught.value) == ("gamma must be positive and at most max double / 64, got "
                                     + text)


@pytest.mark.parametrize("gamma", [_GAMMA_TOP, int(_GAMMA_TOP), 1e300])
def test_a_large_valid_gamma_still_searches(gamma):
    for capacity in (None, 10):
        d = PairedDict(7, gamma=gamma, capacity=capacity)
        assert d.search(1).found is False  # empty
        for k in range(1, 8):
            d.insert(k, 0.1, b"v%d" % k)
        # the budget outruns the learned side, which answers every search
        assert d.search_budget() > 10**200
        for k in range(1, 8):
            res = d.search(k)
            assert (res.found, res.payload) == (True, b"v%d" % k)
        assert d.search(9).found is False
        d.check_invariants()


def _whi_factory(s):
    return CutoffSimulator("whi", random.Random(s))


def test_unprintable_values_in_the_checks_and_the_workloads():
    cases = [
        # an empty universe had compared one empty tree with another, and a
        # one-key universe its one build with itself: both passed even the
        # AVL control
        (lambda: shi_check(AVLTree, 0, 0), "shi_check needs universe_size >= 2, got 0"),
        (lambda: shi_check(AVLTree, 1, 0), "shi_check needs universe_size >= 2, got 1"),
        (lambda: shi_check(lambda: ZipZipTree(1), -HUGE, 5),
         "shi_check needs universe_size >= 2, got " + NEG_TEXT),
        (lambda: shi_check(lambda: ZipZipTree(1), 8, -HUGE),
         "shi_check needs trials >= 1 above a universe of 6, got " + NEG_TEXT),
        (lambda: whi_check(_whi_factory, 4, -HUGE, [growth_strategy(4)] * 2),
         "whi_check needs samples >= 1, got " + NEG_TEXT),
        (lambda: whi_check(_whi_factory, HUGE, 5, [growth_strategy(4)] * 2),
         "strategy 0 ends at n=4, not target_n=" + HUGE_TEXT),
        (lambda: growth_strategy(5, 1, [3, HUGE]),
         "size %s is outside 1..5, the sizes the run passes" % HUGE_TEXT),
        (lambda: growth_strategy(5, 1, [-HUGE]),
         "size %s is outside 1..5, the sizes the run passes" % NEG_TEXT),
        (lambda: adversarial_rank(1, 5, HUGE), "delta must be in [0, 1], got " + HUGE_TEXT),
        (lambda: adversarial_rank(1, 5, -HUGE), "delta must be in [0, 1], got " + NEG_TEXT),
        (lambda: inverse_power_frequencies(5, -HUGE),
         "alpha must be finite and > 1 for the inverse power workload, got " + NEG_TEXT),
        (lambda: zipf_frequencies(5, -HUGE),
         "alpha must be finite and >= 1 for the Zipfian workload (at most the largest "
         "double), got " + NEG_TEXT),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


@pytest.mark.parametrize("alpha", [HUGE, 10**400, 2**1024], ids=["huge", "1e400", "2^1024"])
def test_a_zipf_alpha_no_double_holds_is_refused(alpha):
    # 10**5000 had raised OverflowError from numpy, not a ValueError
    text = HUGE_TEXT if alpha is HUGE else repr(alpha)
    with pytest.raises(ValueError) as caught:
        zipf_frequencies(5, alpha)
    assert str(caught.value) == ("alpha must be finite and >= 1 for the Zipfian workload "
                                 "(at most the largest double), got " + text)
    # the largest double is an alpha: every rank past the first weighs 0
    assert zipf_frequencies(3, sys.float_info.max).tolist() == [1.0, 0.0, 0.0]
