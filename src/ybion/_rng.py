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

This module computes that (state, inc) on Python ints and sets it, through
PCG64's documented .state, on one PCG64 made at first use, then draws
through numpy's own Generator.standard_normal. A lock covers the set and
the draw, so threads may share the generator. The first call in a process
checks the seeding against numpy's for a multi-word probe seed and raises
SolverError, naming numpy's version, if the two differ; there is no
fallback path.
"""

import threading

from ._numpy import np
from .errors import SolverError

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
# Three 32-bit words, so the probe takes SeedSequence's multi-word path.
_PROBE_SEED = 10**20 + 7


def _hash_steps() -> list[tuple[int, int]]:
    """generate_state's (H[i], H[i + 1]) for its 8 output words: H[0] =
    0x8B51F9DD and H[i + 1] = H[i] * 0x58F38DED mod 2**32."""
    h = [0x8B51F9DD]
    for _ in range(8):
        h.append(h[-1] * 0x58F38DED & _MASK32)
    return list(zip(h, h[1:]))


_HASH_STEPS = _hash_steps()
_lock = threading.Lock()
_generator = None  # (PCG64, Generator), made by the first call


def _pcg64_state(seed) -> tuple[int, int]:
    """PCG64(seed).state's (state, inc), for any seed SeedSequence takes."""
    pool = np.random.SeedSequence(seed).pool.tolist()
    w = []
    for word, (h, h_next) in zip(pool * 2, _HASH_STEPS):
        v = (word ^ h) * h_next & _MASK32
        w.append(v ^ v >> 16)
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (2 * (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) + 1) & _MASK128
    return ((initstate + inc) * _PCG_MULT + inc) & _MASK128, inc


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
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        return generator.standard_normal(size)
