"""Deterministic differentiable text encoder with learnable prompt contexts.

A hashing vocabulary maps tokens to rows of a frozen seeded table; the
encoder mean-pools the sequence (optionally prefixed by learnable context
vectors), projects to the visual dimension and unit-normalizes.

Because of the mean pooling, a text's embedding depends on its M context
rows only through their sum, and `encode_text` computes it that way:

    encode_text(text, ctx) = normalize(((sum_rows ctx + tok_sum) / L) @ P)

with tok_sum the sum of the text's token embeddings and L = M + n_tokens.
`token_sums` returns tok_sum and L for many texts at once, so the training
loop tokenizes its class names once and takes its gradient in closed form
(see `slipmil.trainer`). The per-text gradient `encode_text_grad` is a test
reference in `tests/oracles.py`.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .core import MAX_D_T, NORM_EPS
from .errors import EmptySequenceError, ZeroVectorError, check_value

_TOKEN_RE = re.compile(r"[0-9a-z]+")

DEFAULT_HASH_BUCKETS = 4096
DEFAULT_D_T = 16
DEFAULT_D_V = 32
DEFAULT_ENCODER_SEED = 42
_LAST_DRAWN: dict = {}  # (seed, d_t, d_v) -> FrozenEncoderWeights, one entry
# kind and range of `create`'s seed and d_t, which the settings classes share
SEED = (int, "[0, inf)")
D_T = (int, f"[1, {MAX_D_T}]")


@dataclass(frozen=True)
class Vocabulary:
    """Stable hashing tokenizer: lowercase, split on non-alphanumeric runs."""

    seed: int = 0

    def token_id(self, token: str) -> int:
        key = (self.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8)
        return int.from_bytes(digest.digest(), "little") % DEFAULT_HASH_BUCKETS

    def tokenize(self, text: str) -> list[int]:
        return [self.token_id(t) for t in _TOKEN_RE.findall(text.lower())]


@dataclass(frozen=True, eq=False)
class FrozenEncoderWeights:
    """Seeded token table and projection; never modified after construction."""

    token_table: np.ndarray  # DEFAULT_HASH_BUCKETS x d_t
    projection: np.ndarray  # d_t x d_v
    vocab: Vocabulary

    @classmethod
    def create(cls, seed: int, d_t: int = DEFAULT_D_T,
               d_v: int = DEFAULT_D_V) -> "FrozenEncoderWeights":
        """Read-only weights of (seed, d_t, d_v). Only the last draw is kept
        (one 4096 x d_t table); equal arguments return it undrawn."""
        seed, d_t, d_v = key = (check_value("seed", seed, *SEED),
                                check_value("d_t", d_t, *D_T),
                                check_value("d_v", d_v, int, "[1, inf)"))
        if key not in _LAST_DRAWN:
            rng = np.random.default_rng(seed)
            scale = 1.0 / np.sqrt(d_t)
            table = rng.uniform(-scale, scale, (DEFAULT_HASH_BUCKETS, d_t))
            projection = rng.uniform(-scale, scale, (d_t, d_v))
            table.flags.writeable = projection.flags.writeable = False
            _LAST_DRAWN.clear()
            _LAST_DRAWN[key] = cls(table, projection, Vocabulary(seed=seed))
        return _LAST_DRAWN[key]

    @property
    def d_t(self) -> int:
        return self.token_table.shape[1]

    @property
    def d_v(self) -> int:
        return self.projection.shape[1]


@dataclass(frozen=True, eq=False)
class PromptContext:
    """Learnable context vectors; the only trainable parameters anywhere."""

    vectors: np.ndarray  # M x d_t, M may be 0

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("context vectors must be an M x d_t matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("context vectors must be finite")
        object.__setattr__(self, "vectors", arr)

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def init(cls, rng: np.random.Generator, length: int,
             d_t: int) -> "PromptContext":
        return cls(rng.uniform(-0.01, 0.01, size=(length, d_t)))


def _token_sum(weights: FrozenEncoderWeights, text: str,
               context_length: int) -> tuple[np.ndarray, int]:
    """The sum of the text's token embeddings (d_t,) and its sequence
    length L = context_length + n_tokens."""
    ids = weights.vocab.tokenize(text)
    if not ids and not context_length:
        raise EmptySequenceError(f"no tokens and no context for text {text!r}")
    return weights.token_table[ids].sum(axis=0), context_length + len(ids)


def encode_text(weights: FrozenEncoderWeights, text: str,
                context: PromptContext | None = None) -> np.ndarray:
    """Mean-pool the (context + token) sequence, project, unit-normalize,
    in the closed form of the module docstring."""
    m = 0 if context is None else context.length
    h, length = _token_sum(weights, text, m)
    if m:
        h = context.vectors.sum(axis=0) + h
    e = (h / length) @ weights.projection
    n = np.linalg.norm(e)
    if not NORM_EPS <= n < np.inf:
        raise ZeroVectorError(f"embedding norm {n:.3e} not in [1e-12, inf)")
    return e / n


def encode_texts(weights: FrozenEncoderWeights, texts,
                 context: PromptContext | None = None) -> np.ndarray:
    """`encode_text` of each text, behind the one context if any: T x d_v
    unit rows."""
    return np.stack([encode_text(weights, t, context) for t in texts])


def token_sums(weights: FrozenEncoderWeights, texts,
               context_length: int) -> tuple[np.ndarray, np.ndarray]:
    """`_token_sum` of many texts: token sums (T x d_t) and lengths (T,)."""
    sums, lengths = zip(*(_token_sum(weights, t, context_length)
                          for t in texts))
    return np.stack(sums), np.array(lengths, dtype=np.float64)
