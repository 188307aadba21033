"""numpy's ``default_rng(seed).integers(0, n, size)``, bit for bit, in pure Python.

The bootstrap in ``evalharness`` resamples with this draw. Writing it out
keeps numpy out of the runtime dependencies, and keeps report bytes fixed
on any numpy version: NEP 19 promises no stream stability for
``Generator`` methods across releases. numpy (1.17 and later) takes
these steps:

1. ``SeedSequence(seed)``: the seed as 32-bit words, hashed into a pool
   of four words and mixed; ``generate_state(4, uint64)`` then hashes
   the pool out into four 64-bit words.
2. PCG64, O'Neill's XSL-RR 128/64 generator, seeded from those words as
   (state high, state low, increment high, increment low).
3. 32-bit draws: each 64-bit output serves two, low half first.
4. Lemire's bounded draw (arXiv:1805.10941): ``(u * n) >> 32`` for a
   32-bit ``u``, drawing ``u`` again while ``(u * n) mod 2**32`` is below
   ``2**32 mod n``. For n = 1 nothing is drawn.

Each ``integers`` call of a fresh generator reads the same 32-bit stream
from its start, so ``Draws`` makes that stream once and maps it onto
every bound asked for.
"""
from __future__ import annotations

import sys
from array import array

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ROTATE = (1 << 64) + 1  # (x * _ROTATE) >> r, low 64 bits: x rotated right by r


def _hasher(init: int, mult: int):
    """SeedSequence's hash of 32-bit words, whose constant advances per call."""
    const = init

    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hash_word


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed >> 32 * k & _M32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    hash_word = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hash_word(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_word(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_word(word))
    hash_word = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [hash_word(pool[i % 4]) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _native(code: str, data) -> array:
    """``data``, little-endian words, as an array of typecode ``code``."""
    words = array(code, data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


class Draws:
    """The draws of fresh ``numpy.random.default_rng(seed)`` generators."""

    def __init__(self, seed: int):
        words = _seed_words(seed)
        # PCG's seeding: the increment is odd; from state 0, step, add the
        # initial state, step.
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (words[0] << 64 | words[1])) * _PCG_MULT + self._inc) & _M128
        # The 32-bit stream made so far, each word in an 8-byte little-endian
        # lane, so that one multiplication draws a whole bound's worth.
        self._lanes = bytearray()

    def integers(self, n: int, count: int) -> array:
        """``default_rng(seed).integers(0, n, size=count)`` for 1 <= n <= 2**32,
        in order: an array of typecode ``B`` for n up to 256, else ``I``."""
        if n == 1:
            return array("B", bytes(count))
        threshold = (1 << 32) % n
        taken = count
        while True:
            # Each lane now holds (u * n) mod 2**32, then the draw (u * n) >> 32.
            products = (int.from_bytes(self._words(taken), "little") * n).to_bytes(8 * taken, "little")
            remainders = _native("I", products)[::2]
            rejected = ([k for k, low in enumerate(remainders) if low < threshold]
                        if threshold and min(remainders) < threshold else [])
            if taken - len(rejected) == count:
                break
            taken = count + len(rejected)  # the words after a rejection move up
        if rejected:
            products = bytearray(products)
            for k in reversed(rejected):
                del products[8 * k:8 * k + 8]
        return array("B", products[4::8]) if n <= 256 else _native("I", products)[1::2]

    def _words(self, count: int) -> bytearray:
        """The first ``count`` words of the stream, in their lanes."""
        missing = count - len(self._lanes) // 8
        if missing > 0:
            state, inc, outputs = self._state, self._inc, array("Q")
            for _ in range((missing + 1) // 2):
                # Step, then output the state's halves xor-ed, rotated right
                # by its top 6 bits.
                state = (state * _PCG_MULT + inc) & _M128
                outputs.append(((state >> 64 ^ state) & _M64) * _ROTATE >> (state >> 122) & _M64)
            self._state = state
            if sys.byteorder == "big":
                outputs.byteswap()
            words = outputs.tobytes()
            lanes = bytearray(2 * len(words))
            for i in range(4):
                lanes[i::8] = words[i::4]
            self._lanes += lanes
        return self._lanes[:8 * count]
