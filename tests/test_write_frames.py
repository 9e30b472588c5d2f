"""The Python frames of one insert and one delete, pinned per structure.

Each frame a write enters costs about as much as a hash update, so the
write paths call no helper beyond these; a helper frame added to any of
them fails here, on any host, where a timing test could not tell.
"""

import sys

import pytest

from hidict.bench import make_structure
from hidict.dynamics import DynamicThresholdDict
from hidict.pairing import PairedDict
from hidict.structures import AVLTree

# a frame's qualified name is on its code object from Python 3.11
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


def _frames(call, *args):
    """The qualified names of the Python frames ``call(*args)`` enters, in
    order; C functions (hashing, bisection, the RNG) enter none."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(before)
    return names


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


def test_avl_double_rotation_reads_heights_inline():
    t = AVLTree()
    t.insert(1)
    t.insert(3)
    assert _frames(t.insert, 2) == ["AVLTree.insert", "_Node.__init__", "AVLTree._retrace",
                                    "AVLTree._rot_right", "AVLTree._rot_left"]
    assert t.keys() == [1, 2, 3] and t.height() == 2
    t.check_invariants()
