"""The Python frames and the C work of one insert and one delete, pinned
per structure.

Each frame a write enters costs about as much as a hash update, so the
write paths call no helper beyond these; a helper frame added to any of
them fails here, on any host, where a timing test could not tell.  The
hashing and bisection calls are pinned beside the frames, so a rank that
hashes once more fails here too.

``_profile`` is the suite's one call counter: the read pins and the
tests that bound the calls of a write or a rebuild by the tree's size
count with it as well.
"""

import sys

import pytest

from hidict.bench import make_structure
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import AVLTree

# the pins name frames by their code objects' qualified names, there from
# Python 3.11, and count the C calls of that interpreter
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

# a list comprehension runs in a frame of its own before Python 3.12
_LISTCOMP = (["_PrecedenceTree.delete.<locals>.<listcomp>"]
             if sys.version_info < (3, 12) else [])

_ZIPZIP_INSERT = ["_PrecedenceTree.insert", "ZipZipTree._rank", "_zz_rank_keyed",
                  "_key_bytes", "_Node.__init__"]
_TREE_DELETE = ["_PrecedenceTree.delete", "_PrecedenceTree._zip"]
_THRESHOLD_INSERT = (["ThresholdedDict.insert", "_PrecedenceTree.insert",
                      "ThresholdedDict._rank"] + _ZIPZIP_INSERT[1:])

_FRAMES = {
    "avl": (["AVLTree.insert", "_Node.__init__", "AVLTree._retrace"],
            ["AVLTree.delete", "AVLTree._retrace"]),
    "zipzip": (_ZIPZIP_INSERT, _TREE_DELETE),
    "biased-zipzip": (_ZIPZIP_INSERT, _TREE_DELETE),
    "threshold-zipzip": (_THRESHOLD_INSERT, _TREE_DELETE),
    "paired-zipzip": (["PairedDict.insert"] + _THRESHOLD_INSERT + _ZIPZIP_INSERT,
                      ["PairedDict.delete"] + _TREE_DELETE + _TREE_DELETE),
    "paired-uncapped": (["PairedDict.insert"] + _ZIPZIP_INSERT + _ZIPZIP_INSERT,
                        ["PairedDict.delete"] + _TREE_DELETE + _TREE_DELETE),
    # 20 is on this L-treap's spine, whose delete lists the keys that
    # take its place
    "l-treap": (["_PrecedenceTree.insert", "LTreap._rank", "_order_bits", "_oracle_keyed",
                 "_key_bytes", "_Node.__init__"],
                _TREE_DELETE + _LISTCOMP),
    "c-treap": (["_PrecedenceTree.insert", "CTreap._rank", "_oracle_keyed", "_key_bytes",
                 "_Node.__init__"], _TREE_DELETE),
    "dynamic-threshold": (["DynamicThresholdDict.insert"] + _THRESHOLD_INSERT[1:]
                          + ["_CutoffScheme._after_insert", "whi_before_insert"],
                          ["DynamicThresholdDict.delete"] + _TREE_DELETE
                          + ["_CutoffScheme._after_delete", "whi_after_delete"]),
}

# the C work a write may do: hash a key, and bisect a spine
_C_WORK = ("blake2b.copy", "blake2b.update", "blake2b.digest", "bisect_left")

# the _C_WORK counts of the insert and of the delete pinned above: a
# zip-zip rank hashes the key with two copies of the keyed hash, a treap
# rank with one, and every precedence tree a write enters bisects its
# spine once
_ZIPZIP_RANK = (2, 3, 2, 1)
_TREAP_RANK = (1, 2, 1, 1)
_BISECT = (0, 0, 0, 1)
_C_CALLS = {
    "avl": ((0, 0, 0, 0), (0, 0, 0, 0)),
    "zipzip": (_ZIPZIP_RANK, _BISECT),
    "biased-zipzip": (_ZIPZIP_RANK, _BISECT),
    "threshold-zipzip": (_ZIPZIP_RANK, _BISECT),
    "paired-zipzip": ((4, 6, 4, 2), (0, 0, 0, 2)),
    "paired-uncapped": ((4, 6, 4, 2), (0, 0, 0, 2)),
    "l-treap": (_TREAP_RANK, _BISECT),
    "c-treap": (_TREAP_RANK, _BISECT),
    "dynamic-threshold": (_ZIPZIP_RANK, _BISECT),
}


def _profile(call, *args):
    """The qualified names of the Python frames ``call(*args)`` enters and
    of the C functions it calls, two lists in call order.  Before Python
    3.11 a frame is named by its bare ``co_name``."""
    frames, c_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            frames.append(getattr(code, "co_qualname", code.co_name))
        elif event == "c_call":
            c_calls.append(arg.__qualname__)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(before)
    return frames, c_calls[:-1]  # the last is that sys.setprofile


def _frames(call, *args):
    """The Python frames ``call(*args)`` enters, as ``_profile`` names them."""
    return _profile(call, *args)[0]


def _c_work(call, *args):
    """How many times ``call(*args)`` calls each function of ``_C_WORK``."""
    c_calls = _profile(call, *args)[1]
    return tuple(c_calls.count(name) for name in _C_WORK)


def _make(name):
    if name == "paired-uncapped":
        return PairedDict(3)
    if name == "dynamic-threshold":
        return DynamicThresholdDict(3, scheme="whi", scheme_seed=3)
    return make_structure(name, 3, 100)


@pytest.mark.parametrize("name", sorted(_FRAMES))
def test_write_frames_are_pinned(name):
    d = _make(name)
    for k in range(1, 40, 3):
        d.insert(k, 0.01)
    before = (d.keys(), getattr(d, "N", None))
    insert, delete = _FRAMES[name]
    assert _frames(d.insert, 20, 0.01) == insert
    assert _frames(d.delete, 20) == delete
    # a fresh key in and out, with no rebuild due in the dynamic dict
    assert (d.keys(), getattr(d, "N", None)) == before


@pytest.mark.parametrize("name", sorted(_FRAMES))
def test_write_c_calls_are_pinned(name):
    # a C call is cheaper than a frame but a hash is not: a rank's blake2b
    # work is about half of it
    d = _make(name)
    for k in range(1, 40, 3):
        d.insert(k, 0.01)
    insert, delete = _C_CALLS[name]
    assert _c_work(d.insert, 20, 0.01) == insert, _C_WORK
    assert _c_work(d.delete, 20) == delete, _C_WORK


def test_avl_double_rotation_reads_heights_inline():
    t = AVLTree()
    t.insert(1)
    t.insert(3)
    assert _frames(t.insert, 2) == ["AVLTree.insert", "_Node.__init__", "AVLTree._retrace",
                                    "AVLTree._rot_right", "AVLTree._rot_left"]
    assert t.keys() == [1, 2, 3] and t.height() == 2
    t.check_invariants()
