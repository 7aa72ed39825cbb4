"""Seeded standard normals: default_rng(seed)'s draws from one reused PCG64.

standard_normals(seed, size) returns the bits of
np.random.default_rng(seed).standard_normal(size) without building a new
SeedSequence hash, PCG64 and Generator per call. default_rng(seed) is
Generator(PCG64(SeedSequence(seed))), and both seeding steps are fixed
algorithms (NumPy's NEP 19 keeps bit-generator streams fixed):

- SeedSequence(seed).pool holds 4 uint32 words mixed from the seed's words;
  PCG64 asks it for 8 output words, each a word of the pool, cycled, run
  through the output hash of SeedSequence.generate_state;
- PCG64 takes words 0-3 as its 128-bit initial state and words 4-7 as its
  stream, and seeds with two steps of its 128-bit LCG (O'Neill, "PCG: A
  Family of Simple Fast Space-Efficient Statistically Good Algorithms for
  Random Number Generation", 2014).

This module computes that (state, inc) on Python ints. The output hash is
straight-line code over the four pool words, taken twice, with the nine
multipliers of _hash_steps() as module constants. The 8 hashed words go
into one 256-bit int, in the slot order that makes its low half the
128-bit state and its high half the stream, so one masked xor-shift
finishes all 8 and the state and increment are read off its halves. The
(state, inc) pair is set through PCG64's documented .state on one PCG64
made at first use, and the normals are drawn through numpy's own
Generator.standard_normal. The .state dict is built once, at import; each
call writes its seed's two numbers into it. A lock covers those writes, the
set and the draw, so threads may share the generator and the dict. The
first call in a process checks the seeding against numpy's for a
multi-word probe seed and raises SolverError, naming numpy's version, if
the two differ; there is no fallback path.
"""

import threading

from ._numpy import np
from .errors import SolverError

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
# Three 32-bit words, so the probe takes SeedSequence's multi-word path.
_PROBE_SEED = 10**20 + 7


def _hash_steps() -> list[int]:
    """generate_state's multipliers H[0..8] for its 8 output words, word i
    using H[i] and H[i + 1]: H[0] = 0x8B51F9DD and H[i + 1] = H[i] *
    0x58F38DED mod 2**32."""
    h = [0x8B51F9DD]
    for _ in range(8):
        h.append(h[-1] * 0x58F38DED & _MASK32)
    return h


_H0, _H1, _H2, _H3, _H4, _H5, _H6, _H7, _H8 = _hash_steps()
# The low 16 bits of each 32-bit slot of a 256-bit int.
_LOW16 = sum(0xFFFF << 32 * k for k in range(8))
_lock = threading.Lock()
_generator = None  # (PCG64, Generator), made by the first call
# PCG64's .state as set for every seed; the lock guards _WORDS' writes.
_WORDS = {"state": 0, "inc": 0}
_STATE = {"bit_generator": "PCG64", "state": _WORDS, "has_uint32": 0, "uinteger": 0}


def _pcg64_state(seed) -> tuple[int, int]:
    """PCG64(seed).state's (state, inc), for any seed SeedSequence takes."""
    p0, p1, p2, p3 = np.random.SeedSequence(seed).pool.tolist()
    # generate_state's words w0-w7 (pool word i % 4 hashed with H[i], H[i +
    # 1]) before the final v ^ v >> 16, one per 32-bit slot from the low end
    # in the order w2, w3, w0, w1, w6, w7, w4, w5: then the low 128 bits
    # are the initial state and the high 128 bits the stream.
    v = ((p2 ^ _H2) * _H3 & _MASK32
         | ((p3 ^ _H3) * _H4 & _MASK32) << 32
         | ((p0 ^ _H0) * _H1 & _MASK32) << 64
         | ((p1 ^ _H1) * _H2 & _MASK32) << 96
         | ((p2 ^ _H6) * _H7 & _MASK32) << 128
         | ((p3 ^ _H7) * _H8 & _MASK32) << 160
         | ((p0 ^ _H4) * _H5 & _MASK32) << 192
         | ((p1 ^ _H5) * _H6 & _MASK32) << 224)
    v ^= v >> 16 & _LOW16
    inc = (v >> 127 | 1) & _MASK128  # 2 * stream + 1, mod 2**128
    return ((v & _MASK128) + inc) * _PCG_MULT + inc & _MASK128, inc


def _first_generator():
    """The reused PCG64 and its Generator, once this module's seeding has
    matched numpy's on the probe seed."""
    probe = np.random.PCG64(_PROBE_SEED).state["state"]
    if _pcg64_state(_PROBE_SEED) != (probe["state"], probe["inc"]):
        raise SolverError(
            f"numpy {np.__version__} seeds PCG64 differently from ybion's "
            "seeded normals, so they would not be default_rng(seed)'s")
    bit_generator = np.random.PCG64(0)
    return bit_generator, np.random.Generator(bit_generator)


def standard_normals(seed, size):
    """np.random.default_rng(seed).standard_normal(size), bit for bit.

    seed is anything SeedSequence takes; None draws OS entropy, as
    default_rng(None) does.
    """
    global _generator
    state, inc = _pcg64_state(seed)
    with _lock:
        if _generator is None:
            _generator = _first_generator()
        bit_generator, generator = _generator
        _WORDS["state"] = state
        _WORDS["inc"] = inc
        bit_generator.state = _STATE
        return generator.standard_normal(size)
