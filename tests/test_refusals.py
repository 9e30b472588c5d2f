"""Values the library refuses, named in its own message, with no change.

An int past Python's int-to-string limit (4,300 digits) cannot be shown by
``repr``; a refusal names it by type, sign and digit count.  A cutoff N
is at most half the largest double, so its floor weight 1/(2N) is a
double; a larger one is refused where it is set.
"""

import sys

import numpy as np
import pytest

from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import CTreap, LTreap, ZipZipTree
from hidict.thresholding import ThresholdedDict, threshold, threshold_array

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
    (lambda: PairedDict(7), -HUGE, "paired insert requires f > 0, got " + NEG_TEXT),
    (lambda: PairedDict(7, capacity=10), -HUGE, "paired insert requires f > 0, got " + NEG_TEXT),
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
    assert str(caught.value) == "gamma must be positive and finite, got " + NEG_TEXT
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
