"""Ordered dictionaries with comparison counting.

All trees share one contract: insert/delete/search/predecessor/range_query/
node_count plus a canonical ``fingerprint()`` used by the history-independence
harness.  Every tree, AVL included, inherits its read path and its fingerprint
walk from ``_BST``.  The randomized trees (zip-zip and both learned treaps)
are built on a single precedence-tree engine: each node carries a totally
ordered rank, the tree is the unique BST that is heap-ordered on ranks (ties
broken toward the smaller key), and insertion/deletion use iterative unzip/zip
so that deep, degenerate trees (which the adversarial benchmarks deliberately
produce) never hit the recursion limit.  Nodes already in key order are linked
in O(n) by the Cartesian-tree stack construction (bulk loads and rebuilds).
Each precedence tree keeps its right spine, the path from the root to the
largest key, as a list of nodes and a list of their keys.  A root descent
turns right at exactly the spine nodes with smaller keys, so a write, and a
``search``, ``predecessor`` or ``range_query`` on a spine of more than
``_SPINE_BISECT`` nodes, bisects the spine's keys in C and starts at the
first spine node it would not pass, counting the nodes it skipped.  A read
on a shorter spine, a balanced tree's, starts at the root, and so does every
``search_budgeted``.  A key appended above the largest that the largest
outranks attaches in O(1), with no descent.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from math import floor, log2
from typing import Optional

from .core import (
    DuplicateKeyError,
    MissingKeyError,
    ComparisonTally,
    KEY_TYPES,
    MASK64,
    _key_bytes,
    key_type_error,
    keyed_hasher,
    show_value,
    # no tree calls these two, whose draws the keyed ones equal; they stay
    # bound here, where perfbench's hooks look them up
    oracle_uniform,
    oracle_value,
)


@dataclass(slots=True)
class SearchResult:
    """A search's reply.  ``comparisons`` is the paper's metric, the
    comparisons of the descent from the root: a descent that starts partway
    down the right spine counts the spine nodes it passes, as
    ``search_costs`` counts depths.  ``_BST.search`` sets the three slots
    of a ``_blank`` instance itself."""

    found: bool
    comparisons: int
    payload: Optional[bytes] = None


# an instance with no slot set, made in C
_blank = object.__new__


class _Node:
    """Node of every tree.  ``rank`` orders the shape: the heap priority in
    a precedence tree, the subtree height in an AVL tree.  One node type
    keeps the attribute loads of the shared read path monomorphic."""

    __slots__ = ("key", "rank", "weight", "payload", "left", "right")

    def __init__(self, key, rank, weight, payload):
        self.key = key
        self.rank = rank
        self.weight = weight
        self.payload = payload
        self.left = None
        self.right = None


def zz_rank(seed: int, key, weight: float, stream: int = 0):
    """Rank pair for a (possibly weighted) zip-zip tree node.

    r1 = floor(log2 weight) + Geometric(1/2); r2 is a uniform 32-bit
    tie-breaker.  Heavier keys get stochastically larger primary ranks,
    which is what yields O(log W/w) retrieval depth.  The two draws use
    oracle streams ``stream`` and ``stream + 1``.  A tree stores the pair
    as the double ``_zz_rank_keyed`` returns; this decodes it.
    """
    return divmod(int(_zz_rank_keyed(keyed_hasher(seed), key, weight, stream)), 1 << 32)


# the oracle's stream byte, by stream mod 256
_STREAM_BYTE = tuple(bytes((s,)) for s in range(256))

# a weight check against it also rejects nan and an int no double holds
_MAX_DOUBLE = sys.float_info.max

# every oracle u has |log u| < 46, so a C-treap rank log u / f is finite
# for f at least this (about 2.56e-307); below it a rank can be -inf
_MIN_CTREAP_F = 46 / _MAX_DOUBLE

# the lowest int-to-string limit Python accepts (640 digits); an int key
# whose repr is longer prints as its hex under every limit, so a
# fingerprint does not depend on sys.set_int_max_str_digits
_REPR_MAX = sys.int_info.str_digits_check_threshold

# a digest as the oracle's little-endian 64-bit int, and its low 32 bits,
# each in one C call
_U64 = struct.Struct("<Q").unpack
_U32 = struct.Struct("<I").unpack_from

# the leading set bits of each byte value, top bit first
_LEADING_ONES = tuple(8 - (b ^ 0xFF).bit_length() for b in range(256))


def _oracle_keyed(keyed, key, stream: int) -> int:
    """``oracle_value(seed, key, stream)`` over ``keyed``, the seed's
    ``keyed_hasher``, which is copied and not fed."""
    h = keyed.copy()
    h.update(_key_bytes(key))
    h.update(_STREAM_BYTE[stream & 0xFF])
    return _U64(h.digest())[0]


def _zz_rank_keyed(keyed, key, weight: float, stream: int) -> float:
    """``zz_rank``, packed into one exact double, over ``keyed``, the seed's
    ``keyed_hasher``, which is copied and not fed: the key is encoded and
    fed once, and that state is copied for the second stream.

    The rank is the float of the int ``(r1 << 32) | r2``, which orders as
    the pair does, negative r1 included, because ``0 <= r2 < 2**32``.  The
    float holds that int exactly: for any positive finite weight,
    subnormals included, ``floor(log2 weight)`` lies in [-1074, 1023] and
    the geometric draw in [0, 64], so ``|r1| <= 1087`` and
    ``|rank| < 1088 * 2**32 < 2**43 < 2**53``.  A float takes 24 bytes
    where that int takes 32-36, and it keeps every order and tie.

    Every rank runs this, so it calls no Python helper but ``_key_bytes``:
    r1 is ``_weight_level(weight) + geometric_from_bits(draw)`` written
    out, and ``r1 * 2**32 + r2``, exact in doubles, is that float.  The
    draw's leading set bits are those of its top byte, the digest's last,
    unless that byte is 0xFF (1 draw in 256), when all 64 bits are read.
    """
    if not 0 < weight <= _MAX_DOUBLE:
        raise ValueError("weight must be positive and finite, got %s" % show_value(weight))
    h = keyed.copy()
    h.update(_key_bytes(key))
    tie = h.copy()
    h.update(_STREAM_BYTE[stream & 0xFF])
    tie.update(_STREAM_BYTE[(stream + 1) & 0xFF])
    draw = h.digest()
    ones = _LEADING_ONES[draw[7]]
    if ones == 8:  # 64 less the length of the draw's complement
        ones = 64 - (_U64(draw)[0] ^ MASK64).bit_length()
    return (floor(log2(weight)) + ones) * 4294967296.0 + _U32(tie.digest())[0]


def _weight_level(weight: float) -> int:
    # the part of a zip-zip rank that depends on the weight
    return floor(log2(weight))


def zz_rerank(rank, old_weight: float, new_weight: float):
    """The packed rank of a key at ``new_weight``, from its packed rank at
    ``old_weight``: the geometric draw and the tie-breaker do not depend on
    the weight, so no oracle call is needed.  The level change moves r1
    within [-1074, 1087], so on a double rank the sum stays exact."""
    return rank + ((_weight_level(new_weight) - _weight_level(old_weight)) << 32)


_DOUBLE = struct.Struct("<d")


def _order_bits(f: float) -> int:
    """An int that orders as the float ``f`` does, -0.0 and 0.0 alike: the
    IEEE bits of a non-negative f, the negated magnitude bits of a negative
    one."""
    bits = int.from_bytes(_DOUBLE.pack(f), "little", signed=True)
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _wins(rank_a, key_a, rank_b, key_b):
    """Whether node a sits above node b in a precedence tree: the higher
    rank wins, and a rank tie goes to the smaller key so the shape stays a
    pure function of the content set.  A zip-zip rank is an exact double,
    an L-treap's an int and a C-treap's a float; each orders as the rank it
    packs, and a tie is an equal value.  The insert descent and the zip
    loop write this test inline, saving a call per level; ranks are
    finite, so both inline forms equal it.  The descent writes
    ``r >= r2 and (r > r2 or key < key2)``, which settles its common case,
    a lower new rank, with one comparison; the zip loop writes
    ``r > r2 or (r == r2 and key < key2)``; the insert's spine tests
    write ``rank <= node.rank`` for a spine node of smaller key winning,
    ``node.rank < rank`` for the new node winning over one, and
    ``rank >= node.rank`` for the new node winning over a spine node of
    larger key.  Not a
    method: a paired dict and its learned side are of two classes, so a
    load on ``self`` would miss CPython's attribute cache at every
    switch."""
    if rank_a != rank_b:
        return rank_a > rank_b
    return key_a < key_b


# ``search``, ``predecessor`` and ``range_query`` bisect the right spine
# only when it is longer than this.  A randomized tree's spine holds about
# H_n nodes (Seidel and Aragon, 1996), 2-17 on paper-check's 2,000-key
# trees, and a search skips about one of them: there the root descent
# passes them as fast as a bisection would skip them, and the bisection is
# pure fixed cost.  A path-shaped tree's spine holds thousands.  One
# constant, not a bound read per tree: a bound of ``_n.bit_length()`` cost
# about half the gain on hot reads.
_SPINE_BISECT = 64


class _BST:
    """Read path and fingerprint walk shared by every tree.

    Subclasses own the shape (a node's ``rank``, printed as ``_RANK_TEXT``
    says) and the update path; the read path uses only ``key``, ``payload``,
    ``left`` and ``right``, and the lists ``_spine`` and ``_spine_keys``.
    On a spine of more than ``_SPINE_BISECT`` nodes, ``search``,
    ``predecessor`` and ``range_query`` start at ``_spine[i]``, where
    ``i = bisect_left(_spine_keys, key)`` is the number of spine nodes the
    root descent turns right at, and count them; past the spine's end they
    end.  On a shorter spine, and on the empty one an AVL tree keeps, they
    start at the root, whose descent passes and counts the same nodes, so
    the replies are the same.  ``search_budgeted`` starts at the root.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._root = None
        self._n = 0

    def node_count(self) -> int:
        return self._n

    def __len__(self):
        return self._n

    def __contains__(self, key):
        return self.search(key).found

    def search(self, key) -> SearchResult:
        keys = self._spine_keys
        if len(keys) > _SPINE_BISECT:
            comps = bisect_left(keys, key)
            cur = self._spine[comps] if comps < len(keys) else None
        else:
            comps, cur = 0, self._root
        # the reply is a blank instance whose three slots are set here: the
        # dataclass's __init__ is a Python frame, a fifth of a short search
        res = _blank(SearchResult)
        while cur is not None:
            comps += 1
            if key == cur.key:
                res.found, res.comparisons, res.payload = True, comps, cur.payload
                return res
            cur = cur.left if key < cur.key else cur.right
        res.found, res.comparisons, res.payload = False, comps, None
        return res

    def search_costs(self) -> dict:
        """``{key: search(key).comparisons}`` for every held key, from one
        walk: a search stops at its key's depth, counted from 1."""
        costs = {}
        level = [] if self._root is None else [self._root]
        depth = 0
        while level:
            depth += 1
            below = []
            push = below.append
            for node in level:
                costs[node.key] = depth
                if node.left is not None:
                    push(node.left)
                if node.right is not None:
                    push(node.right)
            level = below
        return costs

    def search_budgeted(self, key, budget: int):
        """Search spending at most ``budget`` comparisons.

        Returns (result, exhausted).  exhausted=True means the budget ran
        out before the descent reached a conclusion.  The descent starts at
        the root on any spine: the budget bounds it.
        """
        comps, cur = 0, self._root
        while cur is not None:
            if comps >= budget:
                return SearchResult(False, comps), True
            comps += 1
            if key == cur.key:
                return SearchResult(True, comps, cur.payload), False
            cur = cur.left if key < cur.key else cur.right
        return SearchResult(False, comps), False

    def predecessor(self, key):
        keys = self._spine_keys
        if len(keys) > _SPINE_BISECT:
            i = bisect_left(keys, key)
            best = keys[i - 1] if i else None
            cur = self._spine[i] if i < len(keys) else None
        else:
            best, cur = None, self._root
        while cur is not None:
            if cur.key < key:
                best = cur.key
                cur = cur.right
            else:
                cur = cur.left
        return best

    def range_query(self, lo, hi, tally: Optional[ComparisonTally] = None):
        """The keys in ``[lo, hi]``, in increasing order.

        ``tally`` counts each node whose key the walk compares: the search
        paths to both bounds, plus the keys between.  A node left of ``lo``
        goes right, a node right of ``hi`` goes left, and a node in range
        goes left, is emitted, then goes right.  The stack holds only the
        in-range nodes still to be emitted, so a visit allocates nothing.
        On a spine longer than ``_SPINE_BISECT``, the spine nodes left
        of ``lo`` are counted and skipped.
        """
        if lo > hi:
            raise ValueError("range bounds out of order: %s > %s"
                             % (show_value(lo), show_value(hi)))
        keys = self._spine_keys
        if len(keys) > _SPINE_BISECT:
            i = bisect_left(keys, lo)
            cur = self._spine[i] if i < len(keys) else None
            if tally is not None:
                tally.count += i
        else:
            cur = self._root
        out = []
        stack = []
        while True:
            while cur is not None:
                if tally is not None:
                    tally.count += 1
                key = cur.key
                if key < lo:
                    cur = cur.right
                elif key > hi:
                    cur = cur.left
                else:
                    stack.append(cur)
                    cur = cur.left
            if not stack:
                return out
            cur = stack.pop()
            out.append(cur.key)
            cur = cur.right

    def _inorder(self) -> list:
        """The nodes in key order, collected by one stack loop."""
        out = []
        stack = []
        push, pop, emit = stack.append, stack.pop, out.append
        cur = self._root
        while True:
            while cur is not None:
                push(cur)
                cur = cur.left
            if not stack:
                return out
            cur = pop()
            emit(cur)
            cur = cur.right

    def keys(self):
        return [node.key for node in self._inorder()]

    def items(self):
        """(key, payload) pairs in key order."""
        return [(node.key, node.payload) for node in self._inorder()]

    def __iter__(self):
        return iter(self.keys())

    def check_invariants(self):
        """BST order, and the subclass's shape rule at each node; used by
        tests."""
        stack = [(self._root, None, None)]
        while stack:
            node, lo, hi = stack.pop()
            if node is None:
                continue
            if lo is not None:
                assert node.key > lo
            if hi is not None:
                assert node.key < hi
            self._check_node(node)
            stack.append((node.left, lo, node.key))
            stack.append((node.right, node.key, hi))

    def _drawn_floor(self):
        # None when every rank was drawn at its node's weight, else the float
        # floor of the drawn weight max(weight / 2, floor), computed inline
        return None

    def _walk(self, head: str, entries) -> bytes:
        """``head``, then the tree in preorder, and each payload entry
        appended to ``entries``, when it is a list, in key order: the stack
        loop prints a node (and a ``.`` for each empty child) on the way
        down and meets it in key order on the way up.  A key's repr is
        taken once (an int whose repr is longer than ``_REPR_MAX`` or
        raises prints as its ``hex``, which no decimal int, str or bytes
        repr spells).  Every rank is printed inline, as ``_RANK_TEXT``
        names: a zip-zip double as its packed pair; an L-treap's as
        (weight, oracle), one repr of the weight printed twice, so a -0.0
        keeps its sign; a C-treap's as a one-float tuple; an AVL height
        after ``h``, with no weight.  A thresholded tree's floor weight,
        which most of its nodes are drawn at, is printed from one repr."""
        floor = self._drawn_floor()
        floor_text = repr(floor)
        form = self._RANK_TEXT
        height = form == "h"
        pair = form == "(r1, r2)"
        oracle = form == "(f, oracle)"
        # floor gives an integral double's int, in a call a third of int()'s
        as_int = math.floor
        parts = [head]
        append = parts.append
        stack = []
        push, pop = stack.append, stack.pop
        cur = self._root
        while True:
            while cur is not None:
                try:
                    key = repr(cur.key)
                    if len(key) > _REPR_MAX and type(cur.key) is int:
                        key = hex(cur.key)
                except ValueError:  # an int past the int-to-string limit
                    key = hex(cur.key)
                if height:
                    append(f"({key}:h{cur.rank})")
                else:
                    if floor is None:
                        text = repr(cur.weight)
                    else:
                        w = cur.weight / 2.0  # threshold(weight, N), inline
                        text = floor_text if w <= floor else repr(w)
                    if pair:  # an f-string formats faster than %
                        rank = as_int(cur.rank)
                        append(f"({key}:({rank >> 32}, {rank & 0xFFFFFFFF}):{text})")
                    elif oracle:
                        append(f"({key}:({text}, {cur.rank & MASK64}):{text})")
                    else:  # a C-treap's float rank, as the one-float tuple
                        append(f"({key}:({cur.rank!r},):{text})")
                push((cur, key))
                cur = cur.left
            append(".")
            if not stack:
                return "".join(parts).encode()
            cur, key = pop()
            if entries is not None and cur.payload is not None:
                entries.append(b"%s=%s;" % (key.encode(), cur.payload))
            cur = cur.right


class _PrecedenceTree(_BST):
    """Base for trees whose shape is the unique heap-on-ranks BST.

    ``_spine`` lists the nodes from the root along right children down to
    the largest key, and ``_spine_keys`` their keys, in increasing order;
    both are empty in an empty tree.  A root descent turns right at
    exactly the spine nodes with keys below its key, so writes, and
    ``search``, ``predecessor`` and ``range_query`` on a spine longer than
    ``_SPINE_BISECT``, bisect ``_spine_keys`` and start at the first spine
    node they would not pass: a finger search from the end of the key
    order (Guibas, McCreight, Plass and Roberts, STOC 1977; Seidel and
    Aragon, 1996).  A key above the largest whose rank the largest node
    outranks becomes its right child with no descent.  The spine is a
    function of the shape, and so of the contents alone; every tree sets
    both lists in ``__init__``, so a fresh tree and an emptied one hold
    the same attributes.  A list's spare capacity, which its appends
    leave, is physical layout, like the nodes' addresses (ROADMAP item
    11).
    """

    def __init__(self, seed: int):
        _BST.__init__(self, seed)
        self._spine = []
        self._spine_keys = []
        # every rank draw copies this, the seed's keyed_hasher; it is never
        # fed, so its state is a function of the seed alone
        self._hasher = keyed_hasher(seed)

    # subclasses provide the rank for a (key, weight-or-frequency), its
    # ``_RANK_TEXT``, and ``kind``, the name at the head of the fingerprint
    def _rank(self, key, weight):
        raise NotImplementedError

    def insert(self, key, weight: float = 1.0, payload: Optional[bytes] = None):
        # the rank comes first: it rejects an unsupported key type even
        # when the key equals a present one (1.0 == 1)
        rank = self._rank(key, weight)
        # the fingerprint prints a payload's bytes, which must stay as given
        if payload is not None and type(payload) is not bytes:
            raise TypeError("payload must be bytes or None, got %s" % type(payload).__name__)
        spine = self._spine
        keys = self._spine_keys
        if keys and key > keys[-1] and rank <= spine[-1].rank:
            # the largest node wins (_wins; a tie goes to its smaller key),
            # and so does every spine node above it; a key above the
            # largest cannot be present, so new is its right child
            spine[-1].right = new = _Node(key, rank, weight, payload)
            spine.append(new)
            keys.append(key)
            self._n += 1
            return
        # the root descent turns right at the i spine nodes below key
        i = join = bisect_left(keys, key)
        stop = spine[i] if i < len(keys) else None
        if stop is not None and stop.key == key:
            raise DuplicateKeyError(key)
        if stop is None or rank >= stop.rank:
            # new wins over stop (a tie goes to its smaller key), so it
            # joins the spine at index join, below the spine nodes that
            # win over it, and takes the place of the spine node there
            while join and spine[join - 1].rank < rank:
                join -= 1
            parent = right = spine[join - 1] if join else None
            cur = spine[join] if join < i else stop
        else:
            # stop wins, and so does every spine node above it: the
            # descent turns left at stop, and new lands off the spine
            join = None
            parent = stop
            right = None  # the last node the descent turned right at
            cur = stop.left
            while cur is not None:
                crank = cur.rank
                if rank >= crank and (rank > crank or key < cur.key):  # _wins, inline
                    break
                parent = cur
                if key < cur.key:
                    cur = cur.left
                else:
                    right = cur
                    cur = cur.right
            # equal keys go right, and every key below a right turn is
            # larger, so a present key above cur is the last right turn
            if right is not None and right.key == key:
                raise DuplicateKeyError(key)
        # new takes cur's position; unzip cur's subtree, the rest of the
        # search path, around key (every key below a present one is smaller)
        lt = rt = None
        lt_tail = rt_tail = None
        node = cur
        while node is not None:
            if node.key < key:
                if lt_tail is None:
                    lt = node
                else:
                    lt_tail.right = node
                lt_tail = node
                node = node.right
            else:
                if rt_tail is None:
                    rt = node
                else:
                    rt_tail.left = node
                rt_tail = node
                node = node.left
        if lt_tail is not None:
            lt_tail.right = None
        if rt_tail is not None:
            rt_tail.left = None
            if rt_tail.key == key:  # a present key ends the right half
                self._zip(lt, rt)  # the unique subtree again, rooted at cur
                raise DuplicateKeyError(key)
        new = _Node(key, rank, weight, payload)
        new.left = lt
        new.right = rt
        if parent is None:
            self._root = new
        elif parent is right:
            parent.right = new
        else:
            parent.left = new
        if join is not None:
            # the spine nodes new passed left the spine for its left
            # subtree; its right subtree's spine is the old one from stop
            spine[join:i] = [new]
            keys[join:i] = [key]
        self._n += 1

    def delete(self, key):
        # insert rejects such a key when it hashes it; delete hashes nothing
        if type(key) not in KEY_TYPES:
            raise key_type_error(key)
        spine = self._spine
        i = bisect_left(self._spine_keys, key)
        if i == len(spine):  # above the largest key, or an empty tree
            raise MissingKeyError(key)
        hit = spine[i]
        on_spine = hit.key == key
        if on_spine:
            parent = spine[i - 1] if i else None
        else:
            # below the spine, one comparison per level, as in insert: the
            # key, if present, is the last right turn, and the descent goes
            # on down the left spine of its right subtree
            above, cur = hit, hit.left
            hit = parent = None
            while cur is not None:
                if key < cur.key:
                    above, cur = cur, cur.left
                else:
                    hit, parent = cur, above
                    above, cur = cur, cur.right
            if hit is None or hit.key != key:
                raise MissingKeyError(key)
        stop = hit.right
        merged = self._zip(hit.left, stop)
        if parent is None:
            self._root = merged
        elif parent.left is hit:
            parent.left = merged
        else:
            parent.right = merged
        if on_spine:
            # the merged subtree's right spine takes hit's place: the nodes
            # of hit's left subtree that won over stop, then stop's own
            run = []
            while merged is not stop:
                run.append(merged)
                merged = merged.right
            spine[i:i + 1] = run
            self._spine_keys[i:i + 1] = [node.key for node in run]
        self._n -= 1

    def load_sorted(self, entries):
        """Fill an empty tree from (key, weight, payload) entries in
        strictly increasing key order, in O(n).

        The result equals inserting the entries one by one.  On an error
        (a non-empty tree, unsorted or duplicate keys, a bad key or
        weight) the tree is left unchanged.
        """
        if self._n:
            raise ValueError("load_sorted needs an empty tree")
        nodes = []
        for key, weight, payload in entries:
            rank = self._rank(key, weight)
            if payload is not None and type(payload) is not bytes:
                raise TypeError("payload must be bytes or None, got %s"
                                % type(payload).__name__)
            if nodes:
                last = nodes[-1].key
                if key == last:
                    raise DuplicateKeyError(key)
                if key < last:
                    raise ValueError("entries out of key order: %s after %s"
                                     % (show_value(key), show_value(last)))
            nodes.append(_Node(key, rank, weight, payload))
        self._link_sorted(nodes)

    def _link_sorted(self, nodes):
        """Make ``nodes``, in increasing key order, the whole tree.

        The stack construction of a Cartesian tree (Gabow, Bentley and
        Tarjan, STOC 1984): the stack holds the right spine; a new node
        takes the nodes it outranks as its left subtree and becomes the
        right child of the stack top.  Each node is pushed and popped once,
        and the final stack is the spine.
        """
        stack = []
        for node in nodes:
            rank = node.rank
            below = None
            # the top has the smaller key, so it wins a rank tie (_wins)
            while stack and stack[-1].rank < rank:
                below = stack.pop()
            node.left = below
            node.right = None
            if stack:
                stack[-1].right = node
            stack.append(node)
        self._root = stack[0] if stack else None
        self._spine = stack
        self._spine_keys = [node.key for node in stack]
        self._n = len(nodes)

    def _zip(self, a, b):
        # merge two trees with all keys of a below all keys of b
        if a is None:
            return b
        if b is None:
            return a
        root = None
        attach_node = None
        attach_right = True
        while a is not None and b is not None:
            ra, rb = a.rank, b.rank
            if ra > rb or (ra == rb and a.key < b.key):  # _wins, inline
                winner, a, side_right = a, a.right, True
            else:
                winner, b, side_right = b, b.left, False
            if root is None:
                root = winner
            elif attach_right:
                attach_node.right = winner
            else:
                attach_node.left = winner
            attach_node = winner
            attach_right = side_right
        rest = a if a is not None else b
        if attach_right:
            attach_node.right = rest
        else:
            attach_node.left = rest
        return root

    def header(self) -> bytes:
        # what the dict holds beside the tree, at the head of its fingerprint
        return b""

    def fingerprint(self, digest: Optional[bytes] = None) -> bytes:
        """Canonical serialization: preorder topology, each node's key, rank
        and the weight its rank was drawn at, then a sha256 of the
        ``key=payload;`` entries of the nodes with a payload, in key order.
        A ``digest`` given by the caller is printed in place of that
        sha256, and the walk collects no entries: a paired dict's fallback
        side takes the learned side's digest."""
        head = "%s;seed=%d;n=%d;" % (self.kind, self.seed, self._n)
        if digest is None:
            entries = []
            shape = self._walk(head, entries)
            digest = hashlib.sha256(b"".join(entries)).digest()
        else:
            shape = self._walk(head, None)
        return self.header() + shape + b"|payload=" + digest

    def check_invariants(self):
        _BST.check_invariants(self)
        walk = []
        node = self._root
        while node is not None:
            walk.append(node)
            node = node.right
        assert self._spine == walk
        assert self._spine_keys == [node.key for node in walk]

    def _check_node(self, node):
        # heap-on-ranks order
        for child in (node.left, node.right):
            if child is not None:
                assert _wins(node.rank, node.key, child.rank, child.key)


class ZipZipTree(_PrecedenceTree):
    """Zip-zip tree; uniform when every insert uses weight 1, biased otherwise.

    ``_stream`` is the first oracle stream of the rank draws; a subclass
    that moves it (the paired dict's fallback side) gets rank draws
    independent of a tree over the same keys and seed.  Ranks come from
    ``_hasher``, the seed's ``keyed_hasher``, built once per tree.  A
    node's ``rank`` is its ``zz_rank`` pair packed into one exact double
    (``_zz_rank_keyed``); the fingerprint prints the pair.
    """

    kind = "zipzip"
    _stream = 0
    _RANK_TEXT = "(r1, r2)"

    def _rank(self, key, weight):
        return _zz_rank_keyed(self._hasher, key, weight, self._stream)


class LTreap(_PrecedenceTree):
    """Learned treap with deterministic priority = frequency estimate.

    Ties are broken by oracle bits.  The shape is a function of the
    (key, f) set under any insertion order, so an f monotone in the key
    makes a path; that is inherent to the priority rule and deliberately
    not papered over: a search of key k reports k comparisons.  With f
    falling the path is a right path, all spine, so writes, and
    ``search``, ``predecessor`` and ``range_query`` once it is longer than
    ``_SPINE_BISECT``, bisect to key k in O(log n) time and ascending
    appends cost O(1);
    with f rising it is a left path, and key k still takes k levels.
    """

    kind = "l-treap"
    _RANK_TEXT = "(f, oracle)"

    def _rank(self, key, f):
        # 0 and negative estimates are valid priorities; a non-finite one
        # would tie or fail to compare, and the rank holds f as a double, so
        # 2**53 + 1 would tie with 2**53
        if not -_MAX_DOUBLE <= f <= _MAX_DOUBLE or f != float(f):
            raise ValueError("L-treap requires a finite estimate a double holds exactly, got %s"
                             % show_value(f))
        # the pair (f, oracle) as one int, which orders as the pair does
        # because 0 <= oracle < 2**64
        return (_order_bits(f) << 64) | _oracle_keyed(self._hasher, key, 2)


class CTreap(_PrecedenceTree):
    """Weighted treap with priority u**(1/f), compared in log space.

    An estimate below ``_MIN_CTREAP_F`` is refused: its rank could be -inf."""

    kind = "c-treap"
    _RANK_TEXT = "(log u / f,)"

    def _rank(self, key, f):
        if not _MIN_CTREAP_F <= f <= _MAX_DOUBLE:
            if 0 < f < _MIN_CTREAP_F:
                raise ValueError("C-treap requires f >= 46 / max double, so that log u / f"
                                 " is finite, got %s" % show_value(f))
            raise ValueError("C-treap requires a positive finite frequency estimate, got %s"
                             % show_value(f))
        u = (_oracle_keyed(self._hasher, key, 3) + 0.5) / 2.0**64  # oracle_uniform
        # log of u**(1/f); monotone transform, avoids underflow for tiny f
        return math.log(u) / f


class AVLTree(_BST):
    """Frequency-oblivious balanced BST; the non-learned control.

    A node's ``rank`` holds its subtree's height, printed after ``h``."""

    _RANK_TEXT = "h"

    def __init__(self, seed: int = 0):
        super().__init__(seed)  # seed unused; uniform constructor signature
        # rotations move the spine, so none is kept: reads start at the root
        self._spine = self._spine_keys = ()

    @staticmethod
    def _h(node):
        return node.rank if node is not None else 0

    # The writes read a height as ``_h`` does, inline: a call per read
    # would cost more than the read.

    def _rot_right(self, y):
        x = y.left
        y.left = mid = x.right
        x.right = y
        out = y.right
        hm = mid.rank if mid is not None else 0
        ho = out.rank if out is not None else 0
        y.rank = hy = 1 + (hm if hm > ho else ho)
        out = x.left
        ho = out.rank if out is not None else 0
        x.rank = 1 + (hy if hy > ho else ho)
        return x

    def _rot_left(self, x):
        y = x.right
        x.right = mid = y.left
        y.left = x
        out = x.left
        hm = mid.rank if mid is not None else 0
        ho = out.rank if out is not None else 0
        x.rank = hx = 1 + (hm if hm > ho else ho)
        out = y.right
        ho = out.rank if out is not None else 0
        y.rank = 1 + (hx if hx > ho else ho)
        return y

    def insert(self, key, weight: float = 1.0, payload: Optional[bytes] = None):
        # weight accepted for interface uniformity and ignored; the key
        # types are those of the precedence trees (nan would break the order)
        if type(key) not in KEY_TYPES:
            raise key_type_error(key)
        # one comparison per level: a present key is the last right turn
        path = []
        right = None
        cur = self._root
        while cur is not None:
            path.append(cur)
            if key < cur.key:
                cur = cur.left
            else:
                right = cur
                cur = cur.right
        if right is not None and right.key == key:
            raise DuplicateKeyError(key)
        new = _Node(key, 1, None, payload)
        if not path:
            self._root = new
        elif path[-1] is right:
            path[-1].right = new
        else:
            path[-1].left = new
        self._n += 1
        self._retrace(path)

    def delete(self, key):
        if type(key) not in KEY_TYPES:
            raise key_type_error(key)
        # the descent stops at the key, where the successor walk starts
        path = []
        cur = self._root
        while cur is not None:
            ckey = cur.key
            if key == ckey:
                break
            path.append(cur)
            cur = cur.left if key < ckey else cur.right
        if cur is None:
            raise MissingKeyError(key)
        if cur.left is not None and cur.right is not None:
            # the successor's key and payload move up, and the successor,
            # which has no left child, is unlinked in their place
            path.append(cur)
            succ = cur.right
            while succ.left is not None:
                path.append(succ)
                succ = succ.left
            cur.key, cur.payload = succ.key, succ.payload
            cur = succ
        child = cur.left if cur.left is not None else cur.right
        if not path:
            self._root = child
        elif path[-1].left is cur:
            path[-1].left = child
        else:
            path[-1].right = child
        self._n -= 1
        self._retrace(path)

    def _retrace(self, path):
        """Restore heights and balance up ``path``, the ancestors of a
        changed subtree from the root down, in one loop.  It stops at the
        first node whose rebalanced subtree kept its height: nothing above
        it changes (Knuth, TAOCP vol. 3, 6.2.3)."""
        while path:
            node = path.pop()
            old = node.rank
            left, right = node.left, node.right
            hl = left.rank if left is not None else 0
            hr = right.rank if right is not None else 0
            if hl - hr > 1:
                outer, inner = left.left, left.right
                if (outer.rank if outer is not None else 0) < (
                        inner.rank if inner is not None else 0):
                    node.left = self._rot_left(left)
                top = self._rot_right(node)
            elif hr - hl > 1:
                outer, inner = right.right, right.left
                if (outer.rank if outer is not None else 0) < (
                        inner.rank if inner is not None else 0):
                    node.right = self._rot_right(right)
                top = self._rot_left(node)
            else:
                node.rank = 1 + (hl if hl > hr else hr)
                if node.rank == old:
                    return
                continue
            if not path:
                self._root = top
            elif path[-1].left is node:
                path[-1].left = top
            else:
                path[-1].right = top
            if top.rank == old:
                return

    def height(self) -> int:
        return self._h(self._root)

    def _check_node(self, node):
        # the stored height is exact, and the balance is in [-1, 1]
        hl, hr = self._h(node.left), self._h(node.right)
        assert node.rank == 1 + max(hl, hr)
        assert -1 <= hl - hr <= 1

    def fingerprint(self) -> bytes:
        return self._walk("avl;n=%d;" % self._n, None)
