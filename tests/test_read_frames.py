"""The Python frames of one read, pinned per structure.

A search of any tree enters ``_BST.search`` alone: it fills a blank reply
and enters no constructor.  A paired search enters ``PairedDict.search``
and the ``search_budget`` it reads once, and nothing else: it walks the
learned side to the budget and, when the budget runs out, the fallback in
its own frame, and fills one blank reply whether it falls back or not.
``predecessor`` and ``range_query`` enter no frame but their own.  A
search of these short trees hashes nothing and bisects nothing.  The
harness is the write frames' (``tests/test_write_frames.py``).
"""

import sys

import pytest

import hidict.pairing
from hidict.structures import SearchResult
from test_write_frames import _c_work, _frames, _make

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

_SEARCH = ["_BST.search"]
_PAIRED = ["PairedDict.search", "PairedDict.search_budget"]

_NAMES = ["avl", "zipzip", "biased-zipzip", "threshold-zipzip", "paired-zipzip",
          "paired-uncapped", "l-treap", "c-treap", "dynamic-threshold"]


def _filled(name):
    d = _make(name)
    for k in range(1, 40, 3):
        d.insert(k, 0.01, b"v%d" % k)
    return d


def _falls_back(d, key):
    return d.learned.search_budgeted(key, d.search_budget())[1]


@pytest.mark.parametrize("name", _NAMES)
def test_read_frames_are_pinned(name):
    d = _filled(name)
    paired = name.startswith("paired")
    for key in (19, 20):  # held, and not; a paired dict finds both within its budget
        # every slot of the filled reply is set, as the constructor sets it
        res = d.search(key)
        assert res == SearchResult(key == 19, res.comparisons, b"v19" if key == 19 else None)
        assert _frames(d.search, key) == (_PAIRED if paired else _SEARCH), key
        assert _c_work(d.search, key) == (0, 0, 0, 0), key
        assert _frames(d.predecessor, key) == ["_BST.predecessor"]
        assert _frames(d.range_query, key, key + 9) == ["_BST.range_query"]
    assert _frames(d.__contains__, 19) == ["_BST.__contains__"] + _frames(d.search, 19)


@pytest.mark.parametrize("name", ["paired-zipzip", "paired-uncapped"])
def test_a_paired_search_that_falls_back_builds_one_reply(monkeypatch, name):
    # both sides walked in the paired search's own frame, into one blank reply
    d = _filled(name)
    costs = d.search_costs()
    deep = [key for key in d.keys() if _falls_back(d, key)]
    assert deep
    for key in deep:
        res = d.search(key)
        assert (res.found, res.comparisons, res.payload) == (True, costs[key], b"v%d" % key)
        assert _frames(d.search, key) == _PAIRED, key
    made = []
    blank = hidict.pairing._blank

    def counted(cls):
        made.append(blank(cls))
        return made[-1]

    monkeypatch.setattr(hidict.pairing, "_blank", counted)
    for n, key in enumerate(deep + [0, 20, 99], 1):  # falling back, and not
        assert d.search(key) is made[-1]
        assert len(made) == n, key
