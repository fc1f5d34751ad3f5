"""Random streams and the three hand-built distribution samplers.

The generator is counter-based (Philox4x32-10), so a sample is a pure
function of (seed, stream_id, counter). Every batch index owns its own
stream, which makes batched sampling reproducible regardless of worker
count or evaluation order: permuting items together with their stream ids
permutes the output exactly.

A stream keeps a window of blocks it has already computed and serves
later small calls from it. The window is only a cache of those pure
(seed, stream_id, block) values: every call consumes the same blocks and
returns the same numbers as a call that computes its own. It grows by
doubling while calls continue through it, up to a cap per stream
(_STREAM_WINDOW) or per set (_SET_WINDOW, summed over its streams); a
call for more blocks than the cap computes its own, as it always did.
A stream is still single-owner state, window included.

Samplers:
* gamma  -- rejection sampler on the cubed-normal transform for shape >= 1,
  boosted draw Gamma(a+1) * U^(1/a) for shape < 1;
* multivariate normal -- mean + L u with L the Cholesky factor of the
  covariance (a precision matrix is inverted first);
* Wishart -- sum of dof outer products of correlated normal vectors
  (sample_wishart, one draw), or the Bartlett decomposition
  (wishart_factors, a batch of lower-triangular factors from d gamma
  calls and one normal call, whatever the dof).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

__all__ = [
    "GammaParams",
    "RngStream",
    "RngStreamSet",
    "WishartParams",
    "sample_gamma",
    "sample_mvn",
    "sample_wishart",
    "wishart_factors",
]

_U32 = np.uint64(0xFFFFFFFF)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_SHIFT32 = np.uint64(32)

# One 128-bit Philox block yields 4 x uint32 = 2 float64 uniforms = 2 normals.
_PER_BLOCK = 2


def philox4x32(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x32-10 block function.

    counter: (..., 4) and key: (..., 2), both uint64 arrays holding 32-bit
    words. Returns (..., 4) output words. Vectorized over leading axes.
    """
    c0 = counter[..., 0].astype(np.uint64)
    c1 = counter[..., 1].astype(np.uint64)
    c2 = counter[..., 2].astype(np.uint64)
    c3 = counter[..., 3].astype(np.uint64)
    k0 = key[..., 0].astype(np.uint64)
    k1 = key[..., 1].astype(np.uint64)
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0, lo0 = p0 >> _SHIFT32, p0 & _U32
        hi1, lo1 = p1 >> _SHIFT32, p1 & _U32
        c0 = hi1 ^ c1 ^ k0
        c1 = lo1
        c2 = hi0 ^ c3 ^ k1
        c3 = lo0
        k0 = (k0 + _W0) & _U32
        k1 = (k1 + _W1) & _U32
    return np.stack([c0, c1, c2, c3], axis=-1)


def _split64(x) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x).astype(np.uint64)
    return x & _U32, (x >> _SHIFT32) & _U32


def _blocks(seed: int, stream_ids, block_index) -> np.ndarray:
    """Raw output words for (seed, stream, block) triples.

    stream_ids and block_index broadcast together; result has their
    broadcast shape plus a trailing axis of 4 words.
    """
    sid_lo, sid_hi = _split64(stream_ids)
    blk_lo, blk_hi = _split64(block_index)
    sid_lo, blk_lo = np.broadcast_arrays(sid_lo, blk_lo)
    sid_hi = np.broadcast_to(sid_hi, sid_lo.shape)
    blk_hi = np.broadcast_to(blk_hi, sid_lo.shape)
    counter = np.stack([blk_lo, blk_hi, sid_lo, sid_hi], axis=-1)
    key_lo, key_hi = _split64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    key = np.broadcast_to(np.stack([key_lo, key_hi], axis=-1), sid_lo.shape + (2,))
    return philox4x32(counter, key)


def _uniforms_from_blocks(words: np.ndarray) -> np.ndarray:
    """Two uniforms in (0, 1] per block from the 4 output words."""
    w = words.astype(np.uint64)
    x0 = (w[..., 0] << _SHIFT32) | w[..., 1]
    x1 = (w[..., 2] << _SHIFT32) | w[..., 3]
    u = np.stack([x0, x1], axis=-1) >> np.uint64(11)
    return (u.astype(np.float64) + 1.0) * (2.0 ** -53)


def _uniform_blocks(seed, stream_ids: np.ndarray, start_block, n_blocks: int) -> np.ndarray:
    """(len(stream_ids), n_blocks, 2) uniforms of blocks start_block, ... of each stream."""
    blocks = np.asarray(start_block)[..., None] + np.arange(n_blocks, dtype=np.uint64)
    return _uniforms_from_blocks(_blocks(seed, stream_ids[..., None], blocks))


def _values(u: np.ndarray, n_values: int, kind) -> np.ndarray:
    """The first n_values uniforms or normals of each stream's (blocks, 2) uniforms.

    Two standard normals per block, by Box-Muller on the block's uniforms.
    """
    if kind == "normal":
        r = np.sqrt(-2.0 * np.log(u[..., 0]))
        theta = 2.0 * np.pi * u[..., 1]
        u = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return u.reshape(u.shape[:-2] + (2 * u.shape[-2],))[..., :n_values]


def _draw(seed, stream_ids, start_block, n_values, kind) -> np.ndarray:
    """(len(stream_ids), n_values) uniforms or normals, consuming whole blocks."""
    stream_ids = np.atleast_1d(np.asarray(stream_ids))
    return _values(_uniform_blocks(seed, stream_ids, start_block, -(-n_values // _PER_BLOCK)), n_values, kind)


# Window caps, in blocks: per stream, and summed over a set's streams.
_STREAM_WINDOW = 512
_SET_WINDOW = 4096


@dataclass
class _Window:
    """Blocks [start, start + u.shape[1]) of each of a set of streams."""

    start: int
    u: np.ndarray  # (streams, blocks, 2) uniforms
    made: dict = field(default_factory=dict)  # kind -> (streams, 2 * blocks) values

    @property
    def end(self) -> int:
        return self.start + self.u.shape[1]

    def values(self, kind) -> np.ndarray:
        """All of the window's uniforms or normals, made on first use."""
        if kind not in self.made:
            self.made[kind] = _values(self.u, 2 * self.u.shape[1], kind)
        return self.made[kind]


def _take(owner, n_values: int, kind, cap: int) -> np.ndarray:
    """(streams, n_values) values at owner._block; advances it past them.

    Served from owner._window, which is refilled from the call's first
    block when the call runs past its end: at double its size while calls
    continue through it, at its old size after a jump, never below the
    call's size or above cap. A call for more than cap blocks is drawn on
    its own and leaves the window as it is.
    """
    n_blocks = -(-n_values // _PER_BLOCK)
    start = owner._block
    owner._block = start + n_blocks
    if n_blocks > cap:
        return _draw(owner.seed, owner._ids(), start, n_values, kind)
    w = owner._window
    if w is None or not w.start <= start <= w.end:
        size = n_blocks if w is None else w.u.shape[1]
        w = None
    elif start + n_blocks > w.end:
        size = 2 * w.u.shape[1]
        w = None
    if w is None:
        size = min(cap, max(n_blocks, size))
        w = owner._window = _Window(start, _uniform_blocks(owner.seed, owner._ids(), start, size))
    lo = _PER_BLOCK * (start - w.start)
    return w.values(kind)[:, lo : lo + n_values].copy()


@dataclass
class RngStream:
    """A single reproducible random stream.

    The same (seed, stream_id) always yields the same sequence; distinct
    stream_ids are statistically independent. The stream is single-owner
    mutable state: it may move between threads but must not be shared.
    Its window of prefetched blocks caches values that depend only on
    (seed, stream_id, block), so what a call returns depends only on
    _block, which may also be set by hand.
    """

    seed: int
    stream_id: int = 0
    _block: int = field(default=0, repr=False)
    _window: _Window | None = field(default=None, init=False, repr=False, compare=False)

    def _ids(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.stream_id))

    def uniforms(self, n: int) -> np.ndarray:
        return _take(self, n, "uniform", _STREAM_WINDOW)[0]

    def normals(self, n: int) -> np.ndarray:
        return _take(self, n, "normal", _STREAM_WINDOW)[0]


@dataclass
class RngStreamSet:
    """One independent stream per batch index, advanced in lockstep."""

    seed: int
    stream_ids: np.ndarray
    _block: int = field(default=0, repr=False)
    _window: _Window | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_batch(cls, seed: int, batch: int, base: int = 0) -> "RngStreamSet":
        return cls(seed, np.arange(base, base + batch, dtype=np.uint64))

    def __len__(self) -> int:
        return len(self.stream_ids)

    def _ids(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.stream_ids))

    def normals(self, n_per_item: int) -> np.ndarray:
        """(batch, n_per_item) standard normals, one stream per row."""
        return _take(self, n_per_item, "normal", _SET_WINDOW // max(len(self), 1))

    def stream(self, index: int) -> RngStream:
        """Single-stream view of one batch index at the current position."""
        return RngStream(self.seed, int(self.stream_ids[index]), self._block)


@dataclass(frozen=True)
class GammaParams:
    """Shape / rate (inverse scale) parameters."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"gamma parameters must be positive, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class WishartParams:
    """Integer degrees of freedom and SPD scale matrix."""

    n: int
    scale: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=np.float64)
        object.__setattr__(self, "scale", scale)
        if scale.ndim != 2 or scale.shape[0] != scale.shape[1]:
            raise ValueError("scale must be square")
        if int(self.n) != self.n:
            raise ValueError(f"degrees of freedom must be integer, got {self.n}")
        if self.n < scale.shape[0]:
            raise ValueError(f"dof {self.n} < dimension {scale.shape[0]}")


def _gamma_ge1(rng: RngStream, a: float) -> float:
    # Cubed-normal rejection: d = a - 1/3, c = 1/sqrt(9d);
    # accept when v = (1 + c x)^3 > 0 and
    # log u < x^2/2 + d - d v + d log v.
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    while True:
        u = float(rng.uniforms(1)[0])
        x = float(rng.normals(1)[0])
        v = (1.0 + c * x) ** 3
        if v > 0.0 and np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v):
            return d * v


def _gamma_ge1_many(rng: RngStream, a: float, n: int) -> np.ndarray:
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        u = rng.uniforms(todo)
        x = rng.normals(todo)
        v = (1.0 + c * x) ** 3
        pos = v > 0.0
        logv = np.full_like(v, -np.inf)
        np.log(v, out=logv, where=pos)
        ok = pos & (np.log(u) < 0.5 * x * x + d - d * v + d * logv)
        k = int(np.count_nonzero(ok))
        out[filled : filled + k] = d * v[ok]
        filled += k
    return out


def sample_gamma(rng: RngStream, p: GammaParams, size: int | None = None):
    """Draw from Gamma(shape=a, rate=b).

    Shapes below 1 use the boosted draw Gamma(a+1, b) * U^(1/a). ``size``
    selects a vectorized batch from the same stream (same distribution,
    different block consumption than repeated scalar calls).
    """
    if size is None:
        if p.a >= 1.0:
            raw = _gamma_ge1(rng, p.a)
        else:
            boost = _gamma_ge1(rng, p.a + 1.0)
            u = float(rng.uniforms(1)[0])
            raw = boost * u ** (1.0 / p.a)
        return raw / p.b
    if p.a >= 1.0:
        raw = _gamma_ge1_many(rng, p.a, size)
    else:
        boost = _gamma_ge1_many(rng, p.a + 1.0, size)
        u = rng.uniforms(size)
        raw = boost * u ** (1.0 / p.a)
    return raw / p.b


def sample_mvn(rng, mean: np.ndarray, mat: np.ndarray, mode: str = "cov") -> np.ndarray:
    """Draw from N(mean, Sigma) with Sigma given directly or as a precision.

    mode="precision" inverts the matrix first; the draw is
    mean + L u with L L^T = Sigma and u iid standard normals.
    """
    mean = np.asarray(mean, dtype=np.float64)
    mat = np.asarray(mat, dtype=np.float64)
    if mode not in ("cov", "precision"):
        raise ValueError(f"mode must be 'cov' or 'precision', got {mode!r}")
    cov = linalg.inverse_batched(mat) if mode == "precision" else mat
    L = linalg.cholesky_batched(cov)
    u = rng.normals(mean.shape[0])
    return mean + L @ u


def sample_wishart(rng, p: WishartParams) -> np.ndarray:
    """Draw from Wishart(dof=n, scale) as a sum of n outer products.

    S_i = R u_i with R the Cholesky factor of the scale; the result
    sum_i S_i S_i^T is symmetric by construction and a.s. positive
    definite for n >= dim.
    """
    dim = p.scale.shape[0]
    R = linalg.cholesky_batched(p.scale)
    u = rng.normals(int(p.n) * dim).reshape(int(p.n), dim)
    S = u @ R.T  # row i is (R u_i)^T
    return S.T @ S


def wishart_factors(rng, p: WishartParams, n: int) -> np.ndarray:
    """n lower-triangular factors F with F F^T ~ Wishart(p), shape (n, d, d).

    Bartlett decomposition (Smith & Hocking 1972, Appl. Stat. AS 53):
    F = L A with L the Cholesky factor of the scale and A lower-triangular,
    A_jj = sqrt(chi2(dof - j)) for j = 0..d-1 and iid standard normals
    below the diagonal. The stream is read in d vectorized gamma calls
    (the chi-squares, diagonal entry by diagonal entry) and then one
    normal call, so the cost does not grow with the dof.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = p.scale.shape[0]
    L = linalg.cholesky_batched(p.scale)
    A = np.zeros((n, dim, dim))
    for j in range(dim):
        A[:, j, j] = np.sqrt(sample_gamma(rng, GammaParams(0.5 * (p.n - j), 0.5), size=n))
    rows, cols = np.tril_indices(dim, -1)
    A[:, rows, cols] = rng.normals(n * len(rows)).reshape(n, len(rows))
    return L @ A
