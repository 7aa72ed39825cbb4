"""ybion._rng draws default_rng(seed)'s normals from one reused PCG64.

The kernel must give np.random.default_rng(seed).standard_normal(size) bit
for bit, for every seed SeedSequence takes and from several threads at
once, and must refuse to draw when numpy seeds PCG64 some other way.
"""

import random
import re
import sys
import threading

import numpy as np
import pytest

from ybion import _rng
from ybion._rng import standard_normals
from ybion.cli import main
from ybion.errors import SolverError

# 2**128 and up have five or more 32-bit words, which SeedSequence mixes
# into its 4-word pool in a loop of their own.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 + 7, 10**30,
              2**128, 2**160 + 7, 10**60,
              np.uint64(2**64 - 1), np.int64(2**63 - 1), np.uint32(2**32 - 1),
              np.int8(7)]
LARGEST_SCAN = 481  # points of the largest scan on the bench lineshape ladder


def seeds_to_check() -> list:
    """The edge seeds, then 100 000 more of one to four 32-bit words."""
    bits = random.Random(44)
    return (EDGE_SEEDS + list(range(40_000))
            + np.random.default_rng(44).integers(0, 2**63, 30_000).tolist()
            + [bits.getrandbits(bits.randint(33, 128)) for _ in range(30_000)])


def mismatches(seeds, size) -> list:
    return [seed for seed in seeds if standard_normals(seed, size).tobytes()
            != np.random.default_rng(seed).standard_normal(size).tobytes()]


def test_normals_are_default_rng_s_bit_for_bit():
    seeds = seeds_to_check()
    assert len(seeds) > 10**5
    assert mismatches(seeds, 4) == []
    assert mismatches(EDGE_SEEDS + seeds[::50], LARGEST_SCAN) == []


def test_threads_drawing_at_once_get_their_own_seeds_normals():
    barrier = threading.Barrier(4)
    drawn = {}

    def draw(first):
        barrier.wait(timeout=60)
        drawn[first] = [standard_normals(seed, 4).tobytes()
                        for seed in range(first, first + 2000)]

    threads = [threading.Thread(target=draw, args=(k * 10**6,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(drawn) == [k * 10**6 for k in range(4)]
    for first, draws in drawn.items():
        expected = [np.random.default_rng(seed).standard_normal(4).tobytes()
                    for seed in range(first, first + 2000)]
        assert draws == expected


def test_a_numpy_that_seeds_pcg64_otherwise_is_refused_at_first_use(monkeypatch):
    monkeypatch.setattr(_rng, "_PCG_MULT", _rng._PCG_MULT + 2)
    monkeypatch.setattr(_rng, "_generator", None)
    with pytest.raises(SolverError, match=f"numpy {re.escape(np.__version__)} "):
        standard_normals(0, 4)
    assert _rng._generator is None


@pytest.mark.parametrize("argv", [
    ["verify-roundtrip", "--eta", "2.135", "--q2", "2.0", "--seeds", "10"],
    ["scan", "--scheme", "linewidth_reference", "--grid", "-30e6", "30e6", "21",
     "--noise-sigma", "0.4", "--seed", "7"],
])
def test_a_refused_seeding_exits_two_not_as_missed_seeds(argv, monkeypatch, capsys):
    monkeypatch.setattr(_rng, "_PCG_MULT", _rng._PCG_MULT + 2)
    monkeypatch.setattr(_rng, "_generator", None)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: numpy {np.__version__} seeds PCG64 differently")
    assert err.count("\n") == 1
