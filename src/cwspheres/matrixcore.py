"""Dense complex and quaternion matrix algebra.

Covers the group-theoretic kernels used everywhere else: skew-Hermitian
matrix exponentials through eigendecomposition (so results are exactly
unitary), eigenvalue phase extraction on the principal branch, Haar
sampling on U(n) and complex Ginibre draws.  Quaternion matrices are
stored as complex pairs (Q1, Q2) meaning Q = Q1 + Q2*j.

The Monte-Carlo kernels work on stacks: the phases take a leading trial
axis, and the samplers take a `StreamBlock` and return the stack of one
draw per stream.  `trial_blocks` cuts a run into blocks of trial ids; a
block's streams are a `StreamBlock`, the streams `rng.split(k)` of its
ids k (each below 2**32) or their children along further keys, with no
RngStream per trial.  A block is the (T, L) uint32 array of its streams'
SeedSequence entropy words, one row per stream, and a lone RngStream is a
block of one row.  All seeding goes through `_generators`: the rows are
hashed in one vectorised pass and each PCG64 generator is built from its
row, the bits numpy's own SeedSequence gives.  numpy's stacked QR, eigvals
and matmul give the same bits as one call per matrix, so draw k of a stack
equals the draw of its stream alone.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import InvalidInput

SKEW_TOL = 1e-12
UNITARY_TOL = 1e-10
TRIAL_BLOCK = 256           # trials whose matrices are stacked at once
BLOCK_ENTRIES = 2 ** 18     # most matrix entries one trial block may stack


# --------------------------------------------------------------------------
# deterministic RNG streams
# --------------------------------------------------------------------------

def _stream_int(value, what):
    """`value` as a non-negative Python int; a bool, a float or a negative
    number is refused, since SeedSequence reads a key as uint32 words."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise InvalidInput(f"{what} must be a non-negative integer, not a boolean")
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be a non-negative integer, got {value!r}") from None
    if value < 0:
        raise InvalidInput(f"{what} must be non-negative, got {value}")
    return value


class RngStream:
    """Seeded random stream with deterministic, order-independent substreams.

    Substreams are derived from the root seed and a key path, so parallel
    trial loops can split the stream without coordinating call order.
    Stream (seed, key) draws exactly what
    `np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))`
    draws: a PCG64 generator seeded by numpy's SeedSequence hash.
    Identical seeds replay identical samples.
    """

    def __init__(self, seed, _key=()):
        self.seed = _stream_int(seed, "seed")
        self._key = tuple(_key)
        self._gen = None

    @property
    def gen(self):
        """The stream's numpy Generator, built when first drawn from."""
        if self._gen is None:
            self._gen = _generators(np.array([self._entropy()], np.uint32))[0]
        return self._gen

    def _entropy(self):
        """The stream's SeedSequence entropy words: the seed's, zero-filled
        to the pool size (SeedSequence reads a shorter entropy zero-filled
        anyway), then each key's."""
        words = _uint32_words(self.seed)
        return words + [0] * (_POOL - len(words)) + [w for k in self._key
                                                     for w in _uint32_words(k)]

    def split(self, k):
        """Return an independent child stream keyed by integer `k`."""
        return RngStream(self.seed, self._key + (_stream_int(k, "stream key"),))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self._key})"


# numpy's SeedSequence (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq): pool size and hash constants.  All arithmetic is on uint32
# words and wraps mod 2**32.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_STATE_CYCLE = np.arange(8) % _POOL     # generate_state(4, uint64) reads 8 words


@functools.lru_cache(maxsize=64)
def _hash_consts(init, mult, count):
    """Read-only column of the hash constants init * mult**j mod 2**32,
    j = 0..count: hash call j xors with constant j, multiplies by j + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(words, xor, mul):
    words = (words ^ xor) * mul
    return words ^ (words >> _SHIFT)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def _pool_mixing_consts():
    """Per source word, the (xor, mul) columns of its three hash calls in
    mix_entropy's all-pairs stage (calls POOL..4*POOL-1), placed at the
    destination rows; the source's own row gets zeros, its result unused."""
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
    steps = []
    for src in range(_POOL):
        xor = np.zeros((_POOL, 1), dtype=np.uint32)
        mul = np.zeros_like(xor)
        dst = [d for d in range(_POOL) if d != src]
        call = _POOL + (_POOL - 1) * src
        xor[dst], mul[dst] = a[call:call + _POOL - 1], a[call + 1:call + _POOL]
        steps.append((xor, mul))
    return tuple(steps)


_POOL_MIXING = _pool_mixing_consts()


def _seed_states(entropy):
    """SeedSequence(entropy).generate_state(4, uint64) for each row of a
    (G, L) uint32 array of assembled entropy words, L at least the pool
    size, as a (G, 4) array.

    The hash constants depend only on L, so one run of array operations
    over the (words, G) transpose hashes all G rows: mix_entropy, then
    generate_state.
    """
    words = entropy.T
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * len(words))
    # the first POOL words fill the pool
    pool = _hashmix(words[:_POOL], a[:_POOL], a[1:_POOL + 1])
    # every pool word is hashed and mixed into each other pool word
    for src, (xor, mul) in enumerate(_POOL_MIXING):
        mixed = _mix(pool, _hashmix(pool[src], xor, mul))
        mixed[src] = pool[src]
        pool = mixed
    # every further entropy word is hashed and mixed into each pool word
    for src in range(_POOL, len(words)):
        call = _POOL * src
        pool = _mix(pool, _hashmix(words[src], a[call:call + _POOL],
                                   a[call + 1:call + _POOL + 1]))
    b = _hash_consts(_INIT_B, _MULT_B, len(_STATE_CYCLE))
    state = _hashmix(pool[_STATE_CYCLE], b[:-1], b[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _uint32_words(n):
    """Integer n as SeedSequence reads it: little-endian uint32 words."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _SeedStates(np.random.bit_generator.ISeedSequence):
    """Precomputed SeedSequence outputs, rows of a (G, 4) uint64 array,
    handed in turn to G PCG64 generators as their seed: PCG64 reads its
    four state words once, when it is built.  One object per block, not
    one per stream, keeps the per-generator cost to numpy's own."""

    __slots__ = ("_rows",)

    def __init__(self, states):
        self._rows = iter(states)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's four uint64 state words are precomputed")
        return next(self._rows)


def _generators(entropy):
    """numpy Generators of the streams whose SeedSequence entropy words are
    the rows of the (T, L) uint32 array `entropy`: every row hashed in one
    `_seed_states` pass, then one PCG64 Generator per row.  The one place a
    Generator is built; each is bit-identical to
    `default_rng(SeedSequence(seed, spawn_key=key))` of its stream.
    """
    seeds = _SeedStates(_seed_states(entropy))
    return [np.random.Generator(np.random.PCG64(seeds)) for _ in range(len(entropy))]


class StreamBlock:
    """The streams `rng.split(k)` for the keys k of `ids` (a range or a
    sequence of ints below 2**32), or their descendants along further keys,
    held as what they are hashed from: a (T, L) uint32 array `entropy` of
    SeedSequence entropy words, row k the words of stream k.  `split(j)`
    appends j's words to every row, and `generators()` seeds every stream
    in one `_generators` pass.  No RngStream is made per stream."""

    __slots__ = ("entropy",)

    def __init__(self, rng, ids):
        if isinstance(ids, range):
            low, high = sorted((ids[0], ids[-1])) if ids else (0, 0)
        else:
            ids = [_stream_int(k, "stream key") for k in ids]
            low, high = min(ids, default=0), max(ids, default=0)
        if not 0 <= low <= high <= _MASK32:
            raise InvalidInput(f"a block's stream keys must lie in [0, 2**32), not {low}..{high}")
        head = rng._entropy()
        self.entropy = np.empty((len(ids), len(head) + 1), dtype=np.uint32)
        self.entropy[:, :-1] = head
        self.entropy[:, -1] = ids

    def __len__(self):
        return len(self.entropy)

    def split(self, k):
        """The block of every stream's child keyed by integer `k`."""
        words = np.array(_uint32_words(_stream_int(k, "stream key")), dtype=np.uint32)
        child = object.__new__(StreamBlock)
        child.entropy = np.concatenate(
            [self.entropy, np.broadcast_to(words, (len(self.entropy), words.size))], axis=1)
        return child

    def generators(self):
        """The numpy Generator of each stream, fresh on every call."""
        return _generators(self.entropy)


def trial_blocks(rng, trials, entries):
    """Trials 0..trials-1 in consecutive blocks: yields (range of trial
    ids, StreamBlock of their streams `rng.split(k)`), so trial k keeps its
    own stream.

    A block holds TRIAL_BLOCK trials, or fewer when one trial stacks
    `entries` matrix entries and the block would pass BLOCK_ENTRIES; the
    stacks a checker builds stay bounded whatever the trial count.  A
    block's ids are one entropy word each, so more than 2**32 trials are
    refused before the first block.
    """
    trials = int(trials)
    if trials > _MASK32 + 1:
        raise InvalidInput(f"at most 2**32 trials can be drawn, not {trials}")
    size = max(1, min(TRIAL_BLOCK, BLOCK_ENTRIES // max(int(entries), 1)))
    for start in range(0, trials, size):
        ks = range(start, min(start + size, trials))
        yield ks, StreamBlock(rng, ks)


def _ginibre(rngs, rows, cols, count=1):
    """(T, count, rows, cols) complex Ginibre matrices, one row per stream
    of the StreamBlock `rngs` (anything else is refused): each stream draws
    its `count` matrices in turn, each one's real parts, then its imaginary
    ones.  One complex assembly, in place, serves the whole stack."""
    if not isinstance(rngs, StreamBlock):
        raise InvalidInput(f"need a StreamBlock of streams, not a {type(rngs).__name__}")
    gens = rngs.generators()
    z = np.empty((len(gens), count, 2, rows, cols))
    for gen, out in zip(gens, z):
        gen.standard_normal(out=out)
    g = 1j * z[:, :, 1]
    g += z[:, :, 0]
    g /= np.sqrt(2.0)
    return g


# --------------------------------------------------------------------------
# complex matrices: validation, exponential, phases, Haar sampling
# --------------------------------------------------------------------------

def _require_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{what} has non-finite entries")


def as_skew_hermitian(a):
    """Validate that `a`, a matrix or a (T, n, n) stack, is square
    skew-Hermitian (A* = -A) and return it."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a, "matrix")
    defect = np.max(np.abs(a + conj_t(a)), initial=0.0)
    if defect > SKEW_TOL:
        raise InvalidInput(f"matrix is not skew-Hermitian (defect {defect:.3e})")
    return a


def conj_t(a):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def as_unitary(u):
    """Validate that `u`, a matrix or a (T, n, n) stack, is unitary
    (U*U = I) and return it."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2] != u.shape[-1]:
        raise InvalidInput(f"expected a square matrix, got shape {u.shape}")
    _require_finite(u, "matrix")
    defect = np.max(np.abs(conj_t(u) @ u - np.eye(u.shape[-1])))
    if defect > UNITARY_TOL:
        raise InvalidInput(f"matrix is not unitary (defect {defect:.3e})")
    return u


def expm_skew(a, t=1.0):
    """exp(t*A) for skew-Hermitian A, or for each matrix of a (T, n, n)
    stack, via eigendecomposition of the Hermitian matrix -iA.

    The result is assembled from an exactly unitary eigenvector matrix and
    unit-modulus phase factors, so it is unitary to machine precision.
    """
    a = as_skew_hermitian(a)
    if not np.isfinite(t):
        raise InvalidInput("flow time must be finite")
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * t * w)[..., None, :]) @ conj_t(v)


def unitary_phases(u):
    """Eigenvalue phases of a unitary matrix, sorted ascending in (-pi, pi];
    for a (T, n, n) stack, one sorted row per matrix.

    The branch point is resolved toward +pi, so -1 reports phase +pi.
    """
    u = as_unitary(u)
    phases = np.angle(np.linalg.eigvals(u))
    phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
    return np.sort(phases, axis=-1)


def _haar_qr(m):
    """Haar Q factors of a (T, k, k) Ginibre stack: one stacked QR, phases
    fixed so R's diagonal is positive (Mezzadri, Notices AMS 2007)."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n, rngs):
    """(T, n, n) stack of Haar-distributed U(n) draws, one per stream of
    the StreamBlock `rngs`: the QR of complex Ginibre matrices."""
    if n < 1:
        raise InvalidInput("dimension must be >= 1")
    return _haar_qr(_ginibre(rngs, n, n)[:, 0])


# --------------------------------------------------------------------------
# quaternion matrices as complex pairs
# --------------------------------------------------------------------------
#
# Elementwise quaternion arrays are pairs (z1, z2) of equal-shape complex
# ndarrays encoding z1 + z2*j.  The identification i = sqrt(-1) is fixed
# throughout, so i*z = z*i for complex z while j*z = conj(z)*j.
#
# A conjugate on the right of a product is bound to a name first: for
# `x * np.conj(y)` numpy reuses the conjugate's temporary once it reaches
# 256 KiB and computes conj(y) * x there, which rounds differently, so a
# stacked result would depend on the stack's size.  A named array is never
# reused that way, and on scalars `*` keeps numpy's scalar product, whose
# bits `np.multiply` (the array loop) does not always give.

def qmul(x, y):
    """Hamilton product of quaternion pairs, elementwise."""
    x1, x2 = x
    y1, y2 = y
    cy1, cy2 = np.conj(y1), np.conj(y2)
    return (x1 * y1 - x2 * cy2, x1 * y2 + x2 * cy1)


def qabs(x):
    """Quaternion modulus, elementwise."""
    return np.sqrt(np.abs(x[0]) ** 2 + np.abs(x[1]) ** 2)


class QuaternionMatrix:
    """Quaternion matrix Q = Q1 + Q2*j as a pair of complex ndarrays, or a
    stack of them with a leading trial axis."""

    __slots__ = ("q1", "q2")

    def __init__(self, q1, q2):
        q1 = np.asarray(q1, dtype=complex)
        q2 = np.asarray(q2, dtype=complex)
        if q1.shape != q2.shape or q1.ndim not in (2, 3):
            raise InvalidInput("Q1 and Q2 must be 2-d arrays (or stacks) of equal shape")
        _require_finite(q1, "Q1")
        _require_finite(q2, "Q2")
        self.q1 = q1
        self.q2 = q2

    @property
    def shape(self):
        return self.q1.shape

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex))

    def __matmul__(self, other):
        a1, a2 = self.q1, self.q2
        b1, b2 = other.q1, other.q2
        return QuaternionMatrix(a1 @ b1 - a2 @ np.conj(b2),
                                a1 @ b2 + a2 @ np.conj(b1))

    def __add__(self, other):
        return QuaternionMatrix(self.q1 + other.q1, self.q2 + other.q2)

    def conj_t(self):
        """Quaternionic conjugate transpose: (Q1 + Q2 j)* = Q1* - Q2^T j."""
        return QuaternionMatrix(conj_t(self.q1), -np.swapaxes(self.q2, -1, -2))

    def max_abs(self):
        return max(np.max(np.abs(self.q1)), np.max(np.abs(self.q2)))

    def __repr__(self):
        return f"QuaternionMatrix(shape={self.shape})"


def quaternion_skew_defect(x):
    """Max-entry defect of X* = -X for a QuaternionMatrix."""
    return (x + x.conj_t()).max_abs()


def as_quaternion_skew(x):
    """Validate quaternionic skew-Hermitian (X* = -X) and return it."""
    if quaternion_skew_defect(x) > SKEW_TOL:
        raise InvalidInput("quaternion matrix is not skew-Hermitian")
    return x
