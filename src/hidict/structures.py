"""Ordered dictionaries with comparison counting.

All trees share one contract: insert/delete/search/predecessor/range_query/
node_count plus a canonical ``fingerprint()`` used by the history-independence
harness.  Every tree, AVL included, inherits its read path from ``_BST``.
The randomized trees (zip-zip and both learned treaps) are built on
a single precedence-tree engine: each node carries a totally ordered rank, the
tree is the unique BST that is heap-ordered on ranks (ties broken toward the
smaller key), and insertion/deletion use iterative unzip/zip so that deep,
degenerate trees (which the adversarial benchmarks deliberately produce)
never hit the recursion limit.  Nodes already in key order are linked in
O(n) by the Cartesian-tree stack construction (bulk loads and rebuilds).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional

from .core import (
    DuplicateKeyError,
    MissingKeyError,
    ComparisonTally,
    KEY_TYPES,
    MASK64,
    _key_bytes,
    geometric_from_bits,
    key_type_error,
    keyed_hasher,
    oracle_uniform,
    oracle_value,
)


@dataclass
class SearchResult:
    found: bool
    comparisons: int
    payload: Optional[bytes] = None


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
    oracle streams ``stream`` and ``stream + 1``.
    """
    # a tree stores the pair (r1, r2) as the int (r1 << 32) | r2, which
    # orders as the pair does, negative r1 included, because 0 <= r2 < 2**32
    return divmod(_zz_rank_keyed(keyed_hasher(seed), key, weight, stream), 1 << 32)


# the oracle's stream byte, by stream mod 256
_STREAM_BYTE = tuple(bytes((s,)) for s in range(256))


def _zz_rank_keyed(keyed, key, weight: float, stream: int):
    """``zz_rank``, packed into one int, over ``keyed``, the seed's
    ``keyed_hasher``, which is copied and not fed: the key is encoded and
    fed once, and that state is copied for the second stream."""
    if not 0 < weight < math.inf:
        raise ValueError("weight must be positive and finite, got %r" % (weight,))
    h = keyed.copy()
    h.update(_key_bytes(key))
    tie = h.copy()
    h.update(_STREAM_BYTE[stream & 0xFF])
    tie.update(_STREAM_BYTE[(stream + 1) & 0xFF])
    r1 = _weight_level(weight) + geometric_from_bits(int.from_bytes(h.digest(), "little"))
    return (r1 << 32) | (int.from_bytes(tie.digest(), "little") & 0xFFFFFFFF)


def _weight_level(weight: float) -> int:
    # the part of a zip-zip rank that depends on the weight
    return math.floor(math.log2(weight))


def zz_rerank(rank: int, old_weight: float, new_weight: float) -> int:
    """The packed rank of a key at ``new_weight``, from its packed rank at
    ``old_weight``: the geometric draw and the tie-breaker do not depend on
    the weight, so no oracle call is needed."""
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
    pure function of the content set.  The insert descent and the zip loop
    write this test inline, saving a call per level; ranks are finite, so
    ``r > r2 or (r == r2 and key < key2)`` equals it.  Not a method: a
    paired dict and its learned side are of two classes, so a load on
    ``self`` would miss CPython's attribute cache at every switch."""
    if rank_a != rank_b:
        return rank_a > rank_b
    return key_a < key_b


class _BST:
    """Read path shared by every tree.

    Subclasses own the shape (what a node's ``rank`` holds) and the update
    path; the read path uses only ``key``, ``payload``, ``left`` and
    ``right``.
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
        cur = self._root
        while cur is not None:
            if key == cur.key:
                return True
            cur = cur.left if key < cur.key else cur.right
        return False

    def search(self, key) -> SearchResult:
        comps = 0
        cur = self._root
        while cur is not None:
            comps += 1
            if key == cur.key:
                return SearchResult(True, comps, cur.payload)
            cur = cur.left if key < cur.key else cur.right
        return SearchResult(False, comps)

    def search_budgeted(self, key, budget: int):
        """Search spending at most ``budget`` comparisons.

        Returns (result, exhausted).  exhausted=True means the budget ran
        out before the descent reached a conclusion.
        """
        comps = 0
        cur = self._root
        while cur is not None:
            if comps >= budget:
                return SearchResult(False, comps), True
            comps += 1
            if key == cur.key:
                return SearchResult(True, comps, cur.payload), False
            cur = cur.left if key < cur.key else cur.right
        return SearchResult(False, comps), False

    def predecessor(self, key):
        best = None
        cur = self._root
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
        """
        if lo > hi:
            raise ValueError("range bounds out of order: %r > %r" % (lo, hi))
        out = []
        stack = []
        cur = self._root
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

    def _inorder(self):
        stack = []
        cur = self._root
        while cur is not None or stack:
            while cur is not None:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            yield cur
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


class _PrecedenceTree(_BST):
    """Base for trees whose shape is the unique heap-on-ranks BST."""

    kind = "precedence"

    # subclasses provide the rank for a (key, weight-or-frequency), and
    # ``_show_rank(rank, weight)``, the rank's text in the fingerprint
    def _rank(self, key, weight):
        raise NotImplementedError

    def insert(self, key, weight: float = 1.0, payload: Optional[bytes] = None):
        # the rank comes first: it rejects an unsupported key type even
        # when the key equals a present one (1.0 == 1)
        rank = self._rank(key, weight)
        parent = None
        cur = self._root
        while cur is not None:
            ckey = cur.key
            if key == ckey:
                raise DuplicateKeyError(key)
            crank = cur.rank
            if rank > crank or (rank == crank and key < ckey):  # _wins, inline
                break
            parent = cur
            cur = cur.left if key < ckey else cur.right
        # the rest of the search path is the unzip path below cur; a
        # present key lies on it when its rank is below the new one
        node = cur
        while node is not None:
            if key == node.key:
                raise DuplicateKeyError(key)
            node = node.right if node.key < key else node.left
        new = _Node(key, rank, weight, payload)
        # new takes cur's position; unzip cur's subtree around key
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
        new.left = lt
        new.right = rt
        if parent is None:
            self._root = new
        elif key < parent.key:
            parent.left = new
        else:
            parent.right = new
        self._n += 1

    def delete(self, key):
        # insert rejects such a key when it hashes it; delete hashes nothing
        if type(key) not in KEY_TYPES:
            raise key_type_error(key)
        parent = None
        cur = self._root
        while cur is not None and cur.key != key:
            parent = cur
            cur = cur.left if key < cur.key else cur.right
        if cur is None:
            raise MissingKeyError(key)
        merged = self._zip(cur.left, cur.right)
        if parent is None:
            self._root = merged
        elif parent.left is cur:
            parent.left = merged
        else:
            parent.right = merged
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
            if nodes:
                last = nodes[-1].key
                if key == last:
                    raise DuplicateKeyError(key)
                if key < last:
                    raise ValueError("entries out of key order: %r after %r" % (key, last))
            nodes.append(_Node(key, rank, weight, payload))
        self._link_sorted(nodes)

    def _link_sorted(self, nodes):
        """Make ``nodes``, in increasing key order, the whole tree.

        The stack construction of a Cartesian tree (Gabow, Bentley and
        Tarjan, STOC 1984): the stack holds the right spine; a new node
        takes the nodes it outranks as its left subtree and becomes the
        right child of the stack top.  Each node is pushed and popped once.
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

    def _drawn_floor(self):
        # None when every rank was drawn at its node's weight; a float
        # floor when it was drawn at the thresholded weight
        # max(weight / 2, floor), which the fingerprint computes inline
        return None

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
        if digest is None:
            entries = []
            shape = self._walk(entries)
            digest = hashlib.sha256(b"".join(entries)).digest()
        else:
            shape = self._walk(None)
        return self.header() + shape + b"|payload=" + digest

    def _walk(self, entries) -> bytes:
        """The fingerprint's one walk: the text of the tree in preorder,
        and, when ``entries`` is a list, each payload entry appended to it
        in key order.  The stack loop meets a node in preorder on the way
        down, where it prints the node (and a ``.`` for each empty child),
        and in key order on the way up.  A key's repr is taken once, a
        packed zip-zip rank is printed inline, and a thresholded tree's
        floor weight, which most of its nodes are drawn at, is printed
        from one repr."""
        floor = self._drawn_floor()
        if floor is not None:
            floor_text = repr(floor)
        show = None if isinstance(self, ZipZipTree) else self._show_rank
        parts = ["%s;seed=%d;n=%d;" % (self.kind, self.seed, self._n)]
        append = parts.append
        stack = []
        push, pop = stack.append, stack.pop
        cur = self._root
        while True:
            while cur is not None:
                key = repr(cur.key)
                if floor is None:
                    text = repr(cur.weight)
                else:
                    w = cur.weight / 2.0  # threshold(weight, N), inline
                    text = floor_text if w <= floor else repr(w)
                rank = cur.rank
                if show is None:  # an f-string formats faster than %
                    append(f"({key}:({rank >> 32}, {rank & 0xFFFFFFFF}):{text})")
                else:
                    append("(%s:%s:%s)" % (key, show(rank, cur.weight), text))
                push((cur, key))
                cur = cur.left
            append(".")
            if not stack:
                return "".join(parts).encode()
            cur, key = pop()
            if entries is not None and cur.payload is not None:
                entries.append(b"%s=%s;" % (key.encode(), cur.payload))
            cur = cur.right

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
    ``_hasher``, the seed's ``keyed_hasher``, built once per tree; its
    state is a function of the seed alone.  A node's ``rank`` is the
    packed int of its ``zz_rank`` pair; the fingerprint prints the pair.
    """

    kind = "zipzip"
    _stream = 0

    @staticmethod
    def _show_rank(rank, weight=None):
        # repr((r1, r2)), as the fingerprint's walk prints it inline; two
        # shifts cost less than divmod's long division
        return "(%d, %d)" % (rank >> 32, rank & 0xFFFFFFFF)

    def __init__(self, seed: int):
        _BST.__init__(self, seed)
        self._hasher = keyed_hasher(seed)

    def _rank(self, key, weight):
        return _zz_rank_keyed(self._hasher, key, weight, self._stream)


class LTreap(_PrecedenceTree):
    """Learned treap with deterministic priority = frequency estimate.

    Ties are broken by oracle bits.  With monotone frequencies and sorted
    insertion the tree degenerates toward a path; that order sensitivity
    is inherent to the priority rule and deliberately not papered over.
    """

    kind = "l-treap"

    def _rank(self, key, f):
        # 0 and negative estimates are valid priorities; a non-finite one
        # would tie or fail to compare
        if not math.isfinite(f):
            raise ValueError("L-treap requires a finite frequency estimate, got %r" % (f,))
        if f != float(f):
            # the rank holds f as a double, so 2**53 + 1 would tie with 2**53
            raise ValueError("L-treap requires an estimate a double holds exactly, got %r"
                             % (f,))
        # the pair (f, oracle) as one int, which orders as the pair does
        # because 0 <= oracle < 2**64
        return (_order_bits(f) << 64) | oracle_value(self.seed, key, 2)

    @staticmethod
    def _show_rank(rank, f):
        # repr((f, oracle)); f is the node's weight, which keeps the sign
        # of a -0.0 that the rank ties with 0.0
        return "(%r, %d)" % (f, rank & MASK64)


class CTreap(_PrecedenceTree):
    """Weighted treap with priority u**(1/f), compared in log space."""

    kind = "c-treap"

    def _rank(self, key, f):
        if not 0 < f < math.inf:
            raise ValueError("C-treap requires a positive finite frequency estimate, got %r"
                             % (f,))
        u = oracle_uniform(self.seed, key, 3)
        # log of u**(1/f); monotone transform, avoids underflow for tiny f
        return math.log(u) / f

    @staticmethod
    def _show_rank(rank, weight=None):
        # repr((rank,)): the fingerprint prints the rank as a one-float tuple
        return "(%r,)" % (rank,)


class AVLTree(_BST):
    """Frequency-oblivious balanced BST; the non-learned control.

    A node's ``rank`` holds the height of its subtree."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)  # seed unused; uniform constructor signature

    @staticmethod
    def _h(node):
        return node.rank if node is not None else 0

    def _fix(self, node):
        node.rank = 1 + max(self._h(node.left), self._h(node.right))

    def _rot_right(self, y):
        x = y.left
        y.left = x.right
        x.right = y
        self._fix(y)
        self._fix(x)
        return x

    def _rot_left(self, x):
        y = x.right
        x.right = y.left
        y.left = x
        self._fix(x)
        self._fix(y)
        return y

    def insert(self, key, weight: float = 1.0, payload: Optional[bytes] = None):
        # weight accepted for interface uniformity and ignored
        path = []
        cur = self._root
        while cur is not None:
            if key == cur.key:
                raise DuplicateKeyError(key)
            path.append(cur)
            cur = cur.left if key < cur.key else cur.right
        new = _Node(key, 1, None, payload)
        if not path:
            self._root = new
        elif key < path[-1].key:
            path[-1].left = new
        else:
            path[-1].right = new
        self._n += 1
        self._retrace(path)

    def delete(self, key):
        path = []
        cur = self._root
        while cur is not None and key != cur.key:
            path.append(cur)
            cur = cur.left if key < cur.key else cur.right
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
                if self._h(left.left) < self._h(left.right):
                    node.left = self._rot_left(left)
                top = self._rot_right(node)
            elif hr - hl > 1:
                if self._h(right.left) > self._h(right.right):
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
        parts = [b"avl;n=%d;" % self._n]
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                parts.append(b".")
                continue
            parts.append(b"(%s:h%d)" % (repr(node.key).encode(), node.rank))
            stack.append(node.right)
            stack.append(node.left)
        return b"".join(parts)
