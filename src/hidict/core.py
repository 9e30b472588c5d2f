"""Shared primitives: keyed per-key randomness, geometric variates, counters.

All structural randomness in this library is a pure function of a 64-bit
seed and a key.  Deleting and reinserting a key therefore regains exactly
the same random bits, which is what makes the randomized trees uniquely
represented (and hence strongly history independent).
"""

from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1


class DuplicateKeyError(ValueError):
    """Raised when inserting a key that is already present."""


class MissingKeyError(KeyError):
    """Raised when deleting or updating a key that is not present."""


class CapacityError(RuntimeError):
    """Raised when a static-capacity structure overflows."""


# Keys are exactly these types.  A float, bool or numpy integer compares
# equal to an int key in the tree but would hash to other ranks, so one
# content set could take two shapes.
KEY_TYPES = (int, str, bytes)


def key_type_error(key) -> TypeError:
    """The error for a key whose type is not in ``KEY_TYPES``."""
    return TypeError("keys must be int, str or bytes, got %s" % type(key).__name__)


def show_value(value) -> str:
    """``repr(value)`` for an error message.  An int too long for ``repr``
    (Python's limit on int-to-string conversion) shows as its type, its
    sign and its number of decimal digits."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
    size = abs(value)
    # floor(bits * log10(2)) + 1 is the count or one above it; one more
    # covers the float's rounding
    digits = int(size.bit_length() * 0.30102999566398120) + 2
    while digits > 1 and size < 10 ** (digits - 1):
        digits -= 1
    sign = "negative " if value < 0 else ""
    return "<%s%s of %d digits>" % (sign, type(value).__name__, digits)


def _key_bytes(key) -> bytes:
    kind = type(key)
    if kind is int:
        # sign byte + big-endian magnitude of at least one byte keeps
        # distinct ints distinct; a non-negative int's sign byte is the
        # leading zero byte of one to_bytes
        if key < 0:
            key = -key
            return b"\x01" + key.to_bytes((key.bit_length() + 7) // 8 or 1, "big")
        return key.to_bytes(((key.bit_length() or 1) + 15) // 8, "big")
    if kind is bytes:
        return b"b" + key
    if kind is str:
        return b"s" + key.encode("utf-8")
    raise key_type_error(key)


def keyed_hasher(seed: int):
    """The oracle's blake2b keyed by ``seed``, before any input.

    A tree keeps one and never feeds it: a copy fed a key's bytes and
    then a stream byte digests to ``oracle_value(seed, key, stream)``, so
    the key schedule is hashed once per tree, not once per draw.
    """
    return hashlib.blake2b(digest_size=8, key=(seed & MASK64).to_bytes(8, "little"))


def oracle_value(seed: int, key, stream: int = 0) -> int:
    """Deterministic 64-bit value for (seed, key, stream).

    Acts as a keyed pseudorandom function: with the seed kept private,
    the per-key values look uniform and independent across streams.
    Not cryptographic-strength by contract, but blake2b gives us that
    for free.  It keys its own hasher, not ``keyed_hasher``'s, so it
    stays the reference the trees' hashers are tested against.
    """
    h = hashlib.blake2b(digest_size=8, key=(seed & MASK64).to_bytes(8, "little"))
    h.update(_key_bytes(key))
    h.update(bytes([stream & 0xFF]))
    return int.from_bytes(h.digest(), "little")


def oracle_uniform(seed: int, key, stream: int = 0) -> float:
    """Uniform float in the open interval (0, 1), derived from the oracle."""
    return (oracle_value(seed, key, stream) + 0.5) / 2.0**64


def geometric_from_bits(bits: int) -> int:
    """Number of leading set bits of a 64-bit word, capped at 64.

    Each bit is a fair coin, so the result is Geometric(1/2) (number of
    failures before the first success) up to the cap.
    """
    # all 64 bits set: the complement is 0, of bit_length 0, giving the cap
    return 64 - (~bits & MASK64).bit_length()


def derive_seed(master: int, *parts) -> int:
    """Derive an independent 64-bit child seed from a master seed and labels."""
    h = keyed_hasher(master)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


class ComparisonTally:
    """Mutable counter of key-order tests; reset between queries."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0
