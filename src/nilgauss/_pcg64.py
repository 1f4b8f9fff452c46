"""The draws of ``np.random.default_rng(seed)`` that random charts make.

``default_rng(seed)`` seeds PCG64 (M. E. O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905) through ``SeedSequence(seed)``.  This module
reproduces that seeding and the two ``Generator`` methods the ``random_graph``
catalog entry calls, bit for bit and with the standard library alone: a process
that builds random charts never imports ``numpy.random``, and the charts stay
the same should a NumPy release change how ``Generator`` methods turn bits into
numbers (NEP 19 keeps only the bit streams stable).
"""

import math

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, uint32)``: a pool of four 32-bit
    words mixed from the seed's little-endian 32-bit words, then hashed out."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> 16)
    return words


class PCG64Stream:
    """``np.random.default_rng(seed)``'s ``integers(low, high)`` (a range under
    2**32) and ``uniform(low, high)``, drawn in the same order."""

    def __init__(self, seed: int):
        # the words make four little-endian uint64s: the first pair is the initial
        # state, the second the stream, each high word first
        w = _seed_words(seed)
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self.inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & MASK128 | 1
        # pcg64_srandom_r: step from 0, add the initial state, step again
        self.state = (self.inc + state) * PCG_MULTIPLIER + self.inc & MASK128
        self.half = None  # the high half of the last 64-bit output, not yet drawn

    def next64(self) -> int:
        """One XSL-RR output after one LCG step of the 128-bit state."""
        self.state = self.state * PCG_MULTIPLIER + self.inc & MASK128
        value, rot = (self.state >> 64 ^ self.state) & MASK64, self.state >> 122
        return (value >> rot | value << (64 - rot)) & MASK64

    def next32(self) -> int:
        """The low half of a fresh 64-bit output, then its high half."""
        if self.half is None:
            value = self.next64()
            self.half = value >> 32
            return value & MASK32
        value, self.half = self.half, None
        return value

    def integers(self, low: int, high: int) -> int:
        """Lemire's bounded method on 32-bit draws; a range of one value draws nothing."""
        span = high - low
        if not 0 < span < 1 << 32:
            raise ValueError(f"integers({low}, {high}): the range must hold 1 to 2**32 - 1 values")
        if span == 1:
            return low
        m = self.next32() * span
        if m & MASK32 < span:
            threshold = (1 << 32) % span
            while m & MASK32 < threshold:
                m = self.next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self.next64() >> 11) * 2.0**-53)


def round6(x: float) -> float:
    """``float(np.round(x, 6))``: rint(x * 1e6) / 1e6, ties to even, the sign of a zero kept."""
    return math.copysign(round(x * 1e6) / 1e6, x)
