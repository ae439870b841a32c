"""Seeded synthetic measurement noise and the error metrics used throughout.

Noise generation is a pure function of (NoiseSpec, input): the draw is the
stream of Generator(PCG64(NoiseSpec.seed)), so identical inputs give
bit-identical outputs on every platform and under any execution schedule.
The SeedSequence hash that PCG64(seed) runs is re-implemented here over
uint32 columns (_seed_words), so a sweep seeds all its draws, one per
(delta, replicate), in one array pass, and the PCG64 start state is set
directly from the hashed words (_noise); each row stays bit-equal to
Generator(PCG64(seed)).  Every mu of a sweep reuses the same rows.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .spectral_core import Grid, RealSignal

__all__ = [
    "NOISE_MODES",
    "NoiseSpec",
    "add_noise",
    "discrete_l2",
    "relative_l2_error",
]

# The noise modes, spelled as NoiseSpec.mode takes them.
NOISE_MODES = ("iid", "norm_calibrated")


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Recipe for one synthetic noise draw.

    delta is the nominal noise level.  In "iid" mode each sample gets an
    independent Gaussian of mean 0 and standard deviation delta.  In
    "norm_calibrated" mode the Gaussian vector is rescaled so its discrete
    L2 norm equals delta exactly; that mode exists because iid per-sample
    noise only approximates the bound ||g_noisy - g|| <= delta, while the
    theoretical error bound assumes it holds.
    """

    delta: float
    seed: int
    mode: str = "iid"

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(
                f"noise level delta must be finite and nonnegative, got {self.delta}"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "seed", int(self.seed))
        if self.mode not in NOISE_MODES:
            raise ValueError(
                f"noise mode must be one of {NOISE_MODES}, got {self.mode!r}"
            )


def _l2(dx: float, v: np.ndarray) -> np.ndarray:
    """sqrt(dx * v.v) over the last axis; each row's v.v is a (1, n) @ (n, 1)
    matmul, np.dot's BLAS dot, so a batch rounds as each row alone would.
    That needs C-ordered rows (in a sweep only the noise norms come from
    here); on strided rows matmul takes numpy's own loop, which can round a
    row's sum an ulp apart from the same row alone."""
    return np.sqrt(dx * np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


# SeedSequence's constants (numpy/random/bit_generator.pyx): pool size, the
# hashmix seeds and multipliers for mixing (A) and output (B), the mix
# multipliers and the xor-shift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _int_words(value: int) -> list:
    """The uint32 entropy words SeedSequence takes from one int, low first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed entropy must be a nonnegative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """(xor, multiply) constants of successive hashmix calls from init."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mul = next(constants)
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, np.uint32), many at once.

    entropy is a sequence of uint32 arrays, one per entropy word (low word
    of each int first), broadcast against each other to one shape; item k
    of the result, shape + (n_words,), is the state of the SeedSequence
    whose entropy is item k of the broadcast words.  No spawn key, pool
    size 4.  Fewer than 4 words are padded with zero words, which hashes
    exactly as SeedSequence's own padding does, so a seed below 2^32 may be
    passed as two words (low word, 0).
    """
    words = [np.asarray(w, dtype=np.uint32) for w in entropy]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    shape = np.broadcast_shapes(*(w.shape for w in words))
    out = np.empty(shape + (n_words,), dtype=np.uint32)
    with np.errstate(over="ignore"):
        constants = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(w, constants) for w in words[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(word, constants))
        constants = _hash_constants(_INIT_B, _MULT_B)
        for k in range(n_words):
            out[..., k] = _hashmix(pool[k % _POOL_SIZE], constants)
    return out


def _noise(grid: Grid, delta: float, words: np.ndarray, mode: str,
           gen: np.random.Generator) -> np.ndarray:
    """The noise law, one row per seed: n Gaussians of the stream
    Generator(PCG64(seed)), scaled by mode to level delta.

    words is the (rows, 8) array _seed_words(seed words, 8): the words
    PCG64(seed) takes from SeedSequence(seed).  Each row sets the state
    PCG64's set_seed reaches from them (two 128-bit LCG steps) on gen's
    PCG64, whatever state it had, then draws into the row.  Noise that
    overflows when scaled to delta raises ValueError.
    """
    eps = np.empty((len(words), grid.n))
    bitgen = gen.bit_generator
    pairs = words.astype("<u4", copy=False).view("<u8").tolist()
    for row, (seed_hi, seed_lo, seq_hi, seq_lo) in zip(eps, pairs):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    with np.errstate(over="ignore", invalid="ignore"):
        eps *= delta if mode == "iid" else delta / _l2(grid.dx, eps)[:, None]
    if not np.isfinite(eps).all():
        raise ValueError(f"noise level delta={delta!r} overflows float64")
    return eps


def add_noise(g: RealSignal, spec: NoiseSpec) -> RealSignal:
    """Return g plus one seeded noise realization.

    delta = 0 returns g itself (exact, no generator call).
    """
    if spec.delta == 0.0:
        return g
    # One seed needs no array hash: SeedSequence itself hashes it once,
    # for the words and for the bit generator they are set on.
    seq = np.random.SeedSequence(spec.seed)
    words = seq.generate_state(8, np.uint32)[None]
    eps = _noise(g.grid, spec.delta, words, spec.mode, np.random.default_rng(seq))
    return RealSignal(g.grid, g.values + eps[0])


def discrete_l2(s: RealSignal) -> float:
    """sqrt(dx * sum(s_j^2)), the grid discretization of the L2 norm.

    The sqrt(dx) weight makes the value consistent under grid refinement and
    matches the spectral Sobolev norm at smoothness order 0 (Parseval).
    """
    return float(_l2(s.grid.dx, s.values))


def relative_l2_error(estimate: RealSignal, truth: RealSignal) -> float:
    """discrete_l2(estimate - truth) / discrete_l2(truth)."""
    if estimate.grid != truth.grid:
        raise ValueError("estimate and truth live on different grids")
    denom = discrete_l2(truth)
    if denom == 0.0:
        raise ValueError("relative error is undefined against a zero signal")
    return float(_l2(truth.grid.dx, estimate.values - truth.values)) / denom
