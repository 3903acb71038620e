"""Monte Carlo voting and sound certification of smoothed classifiers.

Gaussian noise yields L2 certificates, coordinate-wise uniform noise yields
L1 certificates. The plug-in radius used inside the scale optimizer lives
here too; it shares the sampling conventions but is *not* a sound bound, and
``plugin_radii`` scores it at many scales with one classifier call.

Sampling is counter-based: ``rng_for_input`` maps each (seed, input_index,
stream) triple to an independent generator, a row voting on ``STREAM_CERT`` and
drawing ascent noise on ``STREAM_OPT``, so inputs are certified in any order
with the same results; ``row_rngs`` hashes a stream's row seeds in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .classifiers import ClassifierHandle, as_point
from .stats import binom_lower_confidence, clamp_probability, std_normal_quantile

__all__ = [
    "ABSTAIN",
    "GaussianCertConfig",
    "CertificationOutcome",
    "NoiseBatch",
    "rng_for_input",
    "row_rngs",
    "draw_noise",
    "vote_counts",
    "certify_l2",
    "certify_l1",
    "plugin_radii",
    "proxy_radius",
    "proxy_radius_l1",
]

# Returned as the prediction when the confidence test fails.
ABSTAIN = -1

_VOTE_BATCH = 1 << 14

NOISE_GAUSSIAN = "gaussian"
NOISE_UNIFORM = "uniform"

STREAM_CERT = 0
STREAM_OPT = 1


@dataclass(frozen=True)
class GaussianCertConfig:
    """Monte Carlo certification budget, for either noise kind.

    ``n0`` selection samples pick the candidate class, ``n_cert`` estimation
    samples bound its probability, and the whole procedure is allowed to be
    wrong with probability at most ``alpha_fail``. The scale is an argument.
    """
    n0: int = 100
    n_cert: int = 100_000
    alpha_fail: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.n_cert < self.n0:
            raise ValueError(f"n_cert must be >= n0, got {self.n_cert} < {self.n0}")
        if not 0.0 < self.alpha_fail < 1.0:
            raise ValueError(f"alpha_fail must lie in (0, 1), got {self.alpha_fail}")


@dataclass(frozen=True)
class CertificationOutcome:
    """Per-input certification result; ABSTAIN carries radius 0."""
    prediction: int
    radius: float
    p_lower: float
    samples_used: int

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.prediction == ABSTAIN and self.radius != 0.0:
            raise ValueError("an abstention must carry radius 0")

    @property
    def abstained(self) -> bool:
        return self.prediction == ABSTAIN


@dataclass(frozen=True)
class NoiseBatch:
    """Standard noise draws reused across scale values (common random numbers)."""
    kind: str
    draws: np.ndarray  # (n, d) per input, (B, n, d) for B inputs; N(0, 1) or U[-1, 1]

    def __post_init__(self):
        if self.kind not in (NOISE_GAUSSIAN, NOISE_UNIFORM):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.draws.ndim < 2 or self.draws.shape[-2] < 1:
            raise ValueError(f"draws must be (..., n, d) with n >= 1, got {self.draws.shape}")

    def __len__(self) -> int:  # draws per input
        return self.draws.shape[-2]


def rng_for_input(seed: int, input_index: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-(seed, input, stream) generator, scheduling-independent."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(input_index), int(stream)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _seed_words(seed: int, rows, stream: int) -> np.ndarray:
    """``SeedSequence([seed & (2**64 - 1), i, stream]).generate_state(4, np.uint64)``
    of every i in ``rows``, each in [0, 2**32), as a C-contiguous (len(rows), 4)
    array: numpy's mix_entropy and generate_state on uint32 lanes, an int
    entering as its little-endian 32-bit words."""
    def words(v: int) -> list[int]:
        return [v >> s & 0xFFFFFFFF for s in range(0, max(v.bit_length(), 1), 32)]

    def hashmix(value, h):  # h = [constant, multiplier]; each call advances the constant
        value, h[0] = value ^ h[0], h[0] * h[1] & 0xFFFFFFFF
        value = value * h[0]
        return value ^ value >> 16

    rows = np.asarray(rows, dtype=np.uint64).reshape(-1)
    if np.any(rows >> 32):
        raise ValueError("row indices must lie in [0, 2**32)")
    entropy = np.array(np.broadcast_arrays(*words(int(seed) & (2**64 - 1)), rows,
                                           *words(int(stream))), dtype=np.uint32)
    h = [0x43B0D7E5, 0x931E8875]
    pool = [hashmix(w, h) for w in [*entropy, 0 * entropy[0]][:4]]  # 3+ words, 0-padded
    for src in range(max(4, len(entropy))):  # the pool, then entropy beyond it
        for dst in range(4):
            if dst != src:
                mixed = (pool[dst] * 0xCA01F9DD
                         - hashmix(pool[src] if src < 4 else entropy[src], h) * 0x4973F715)
                pool[dst] = mixed ^ mixed >> 16
    h = [0x8B51F9DD, 0x58F38DED]
    state = np.array([hashmix(pool[j % 4], h) for j in range(8)], dtype=np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


class _Words(ISeedSequence):
    """A row of ``_seed_words`` as the state PCG64 asks its seed sequence for:
    ``Generator(PCG64(_Words(w)))`` is the generator ``rng_for_input`` returns."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def row_rngs(seed: int, n: int, stream: int) -> list[np.random.Generator]:
    """``[rng_for_input(seed, i, stream) for i in range(n)]``, hashed in one pass."""
    return [np.random.Generator(np.random.PCG64(_Words(w)))
            for w in _seed_words(seed, np.arange(n), stream)]


def _fill_noise(rng: np.random.Generator, out: np.ndarray, kind: str) -> np.ndarray:
    """Standard draws into ``out``: N(0, 1), or U[-1, 1] as -1 + 2u, numpy's own bits."""
    if kind == NOISE_UNIFORM:
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
    elif kind == NOISE_GAUSSIAN:
        rng.standard_normal(out=out)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return out


def draw_noise(rng: np.random.Generator, n: int, dim: int,
               kind: str = NOISE_GAUSSIAN, lead: tuple[int, ...] = ()) -> NoiseBatch:
    """n draws per input for inputs of shape ``lead``, in input order."""
    return NoiseBatch(kind, _fill_noise(rng, np.empty((*lead, n, dim)), kind))


def vote_counts(c: ClassifierHandle, x, scale: float, n: int,
                rng: np.random.Generator, kind: str = NOISE_GAUSSIAN,
                split: int | None = None) -> np.ndarray:
    """Per-class counts of ``c.vote_labels`` at x + scale * noise; with ``split``,
    one row for the first ``split`` votes and one for the rest.

    A label is the argmax of the soft output, ties going to the lowest class
    index. Each batch is drawn into one flat buffer per call (rows run on
    several threads), scaled in place and shifted by x tiled to its length: the
    bits of x + scale * draws. Binary ``c.vote_labels`` are counted as booleans.
    The draws do not depend on the chunking, so neither batch size nor split does.
    """
    x = as_point(x)
    if x.size != c.dim:
        raise ValueError(f"point has dim {x.size}, classifier expects {c.dim}")
    k, n, first = c.num_classes, int(n), int(split or 0)
    counts = np.zeros((2, k), dtype=np.int64)
    shift = np.tile(x, min(_VOTE_BATCH, n))
    buffer = np.empty_like(shift)
    for start in range(0, n, _VOTE_BATCH):
        draws = _fill_noise(rng, buffer[:min(_VOTE_BATCH, n - start) * c.dim], kind)
        draws *= scale
        draws += shift[:draws.size]
        labels = c.vote_labels(draws.reshape(-1, c.dim))
        cut = max(first - start, 0)
        for row, part in enumerate((labels[:cut], labels[cut:])):
            if k == 2:  # two classes need no bincount
                ones = np.count_nonzero(part)
                counts[row, 0] += part.size - ones
                counts[row, 1] += ones
            else:
                counts[row] += np.bincount(part, minlength=k)
    return counts[1] if split is None else counts


def _top_two(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and runner-up index along the last axis; ties go to the lowest."""
    top = np.argmax(values, axis=-1)
    rest = np.where(np.arange(values.shape[-1]) == top[..., None], -np.inf, values)
    return top, np.argmax(rest, axis=-1)


def _certify(c, x, scale, cfg, kind, rng) -> CertificationOutcome:
    """n0 selection, then n_cert estimation votes: one ``vote_counts`` call split at n0."""
    if not 0 < scale < np.inf:
        name = "lambda" if kind == NOISE_UNIFORM else "sigma"
        raise ValueError(f"{name} must be positive and finite, got {scale}")
    scale = float(scale)
    rng = rng_for_input(cfg.seed, 0, STREAM_CERT) if rng is None else rng
    samples = cfg.n0 + cfg.n_cert
    counts0, counts = vote_counts(c, x, scale, samples, rng, kind, split=cfg.n0)
    candidate = int(counts0.argmax())
    p_lower = binom_lower_confidence(int(counts[candidate]), cfg.n_cert, cfg.alpha_fail)
    if p_lower <= 0.5:
        return CertificationOutcome(ABSTAIN, 0.0, p_lower, samples)
    p_safe = clamp_probability(p_lower)
    radius = scale * (2.0 * p_safe - 1.0 if kind == NOISE_UNIFORM
                      else std_normal_quantile(p_safe))
    return CertificationOutcome(candidate, float(max(0.0, radius)), p_lower, samples)


def certify_l2(c: ClassifierHandle, x, sigma: float, cfg: GaussianCertConfig,
               rng: np.random.Generator | None = None) -> CertificationOutcome:
    """Sound L2 certification of the Gaussian-smoothed classifier at x.

    With probability at least 1 - alpha_fail over the sampling, the returned
    class matches the smoothed classifier and its prediction is constant on
    the L2 ball of the returned radius: a one-sided Clopper-Pearson bound
    p_lower on the candidate class probability yields radius
    sigma * Phi^{-1}(p_lower), abstaining whenever p_lower <= 1/2.
    """
    return _certify(c, x, sigma, cfg, NOISE_GAUSSIAN, rng)


def certify_l1(c: ClassifierHandle, x, lam: float, cfg: GaussianCertConfig,
               rng: np.random.Generator | None = None) -> CertificationOutcome:
    """Sound L1 certification under uniform noise on [-lam, lam]^d.

    Bounds the runner-up probability by 1 - p_lower, giving radius
    lam * (2 * p_lower - 1), floored at zero with an abstention.
    """
    return _certify(c, x, lam, cfg, NOISE_UNIFORM, rng)


def plugin_radii(c: ClassifierHandle, x, scales, noise: NoiseBatch):
    """Plug-in (non-sound) radius at every scale, from one classifier call.

    With E_A, E_B the top-two mean soft outputs at x + s * draws, the radius
    is s/2 * (Phi^{-1}(E_A) - Phi^{-1}(E_B)) for gaussian noise (means
    clamped away from {0, 1} first) and s * (E_A - E_B) for uniform noise.
    Leading input axes broadcast: points (..., d), scales (..., S) and
    draws (..., n, d) give (radii, top, runner) of shape (..., S) and means
    (..., S, k). Ties in the means go to the lowest class.
    """
    x = np.asarray(x, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if scales.ndim < 1 or not np.all((scales > 0) & (scales < np.inf)):
        raise ValueError(f"scales must be an array of positive finite values, got {scales}")
    if x.ndim < 1 or not np.all(np.isfinite(x)):
        raise ValueError("point entries must be finite")
    if x.shape[-1] != c.dim or noise.draws.shape[-1] != c.dim:
        raise ValueError("noise/point dimension mismatch with classifier")
    pts = x[..., None, None, :] + scales[..., None, None] * noise.draws[..., None, :, :]
    probs = c.probs(pts.reshape(-1, c.dim)).reshape(pts.shape[:-1] + (-1,))
    means = probs.mean(axis=-2)
    top, runner = _top_two(means)
    if noise.kind == NOISE_UNIFORM:
        return scales * (_pick(means, top) - _pick(means, runner)), top, runner, means
    z = std_normal_quantile(clamp_probability(means))
    return 0.5 * scales * (_pick(z, top) - _pick(z, runner)), top, runner, means


def _pick(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[..., idx] along the last axis, one index per leading position."""
    return np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]


def _one_scale(c, x, scale, noise, kind) -> tuple[float, int]:
    if noise.kind != kind:
        raise ValueError(f"expected {kind} noise, got {noise.kind}")
    r, top, _, _ = plugin_radii(c, x, [scale], noise)
    return float(r[0]), int(top[0])


def proxy_radius(c: ClassifierHandle, x, sigma: float,
                 noise: NoiseBatch) -> tuple[float, int]:
    """Plug-in L2 radius and top class at one scale under gaussian noise."""
    return _one_scale(c, x, sigma, noise, NOISE_GAUSSIAN)


def proxy_radius_l1(c: ClassifierHandle, x, lam: float,
                    noise: NoiseBatch) -> tuple[float, int]:
    """Plug-in L1 radius and top class under uniform noise on [-lam, lam]^d."""
    return _one_scale(c, x, lam, noise, NOISE_UNIFORM)
