"""Counter-based random stream derivation.

Every stochastic routine in the library draws from a stream derived from
``(seed, *path)`` where the path components name the trial, cell, or purpose.
Streams are independent of execution order and of how work is distributed
across workers, so parallel and serial runs produce identical numbers.

``substream`` defines a stream: numpy's ``SeedSequence`` hashes the seed and
the path keys into the key of a Philox generator.  A battery of trials draws
the streams ``(seed, t, label)`` for t = 0, ..., trials - 1, and building a
``SeedSequence`` and a ``Philox`` per stream costs several times the draws
the stream serves.  ``trial_keys`` therefore runs the same hash
(``mix_entropy``, then ``generate_state(2, uint64)``) as uint32 array
arithmetic over all trial indices at once; only the trial word varies, the
seed words and the label's ``stream_key`` stay fixed.  ``TrialStreams``
re-keys one reused generator per label to each trial's key, at counter 0
with an empty buffer, which is the state ``substream`` starts from.  The
batched keys equal ``substream``'s bit for bit; the tests check them against
numpy's ``SeedSequence`` itself.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError

__all__ = ["substream", "stream_key", "trial_keys", "TrialStreams"]

# the constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_ZERO4 = (0, 0, 0, 0)


def stream_key(part: int | str) -> int:
    """Map a stream-path component to a stable 32-bit key."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path components must be nonnegative, got {part}")
        return int(part)
    return zlib.crc32(part.encode("utf-8"))


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return an independent Philox generator for ``(seed, *path)``.

    The same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(stream_key(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _int_words(n: int) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of a nonnegative integer, low word first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(const: int, mult: int):
    """``SeedSequence``'s hashmix, whose multiplier runs on from call to call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def trial_keys(seed: int, trials, label: str) -> np.ndarray:
    """Philox keys of the streams ``substream(seed, t, label)``, one row per index t.

    ``trials`` is an array of trial indices, each below 2**32 (a larger index
    would take two words of the spawn key).  Returns a (len(trials), 2)
    uint64 array.
    """
    index = np.asarray(trials)
    if index.ndim != 1 or not (index.size == 0 or (np.issubdtype(index.dtype, np.integer)
                                                    and 0 <= index.min()
                                                    and index.max() <= _MASK32)):
        raise ParameterError(f"trial indices must be a 1-d array of integers in 0..2**32-1,"
                             f" got {trials!r}")
    if int(seed) < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    # entropy: the seed words, padded to the pool size because a spawn key
    # follows, then the spawn key (trial, label); the hash multipliers do not
    # depend on the data, so every step runs on all trials at once
    run = _int_words(int(seed))
    run += [0] * (_POOL_SIZE - len(run))
    n = index.size
    entropy = ([np.full(n, w, np.uint32) for w in run]
               + [index.astype(np.uint32), np.full(n, stream_key(label), np.uint32)])

    # mix_entropy: hash the first pool-size words in, mix every pool word into
    # every other, then mix each remaining word into every pool word
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(2, uint64): four state words, paired little-endian
    hash_out = _hashmix(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (hash_out(word).astype(np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=1)


class TrialStreams:
    """The streams ``substream(seed, t, label)`` of trials t = 0, ..., trials - 1.

    The keys of each label are derived in one pass.  ``rng(t, label)``
    re-keys the one generator of ``label`` to trial ``t`` and returns it, so
    a returned generator is valid until the next call for its label.
    """

    def __init__(self, seed: int, trials: int, labels):
        if trials > _MASK32 + 1:
            raise ParameterError(f"at most 2**32 trials, got {trials}")
        index = np.arange(trials)
        self._keys = {label: trial_keys(seed, index, label) for label in labels}
        self._generators = {label: np.random.Generator(np.random.Philox(0)) for label in labels}

    def rng(self, trial: int, label: str) -> np.random.Generator:
        generator = self._generators[label]
        generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": self._keys[label][trial]},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return generator
