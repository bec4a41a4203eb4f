"""Deterministic differentiable text encoder with learnable prompt contexts.

A hashing vocabulary maps tokens to rows of a frozen seeded table; the
encoder mean-pools the sequence (optionally prefixed by learnable context
vectors), projects to the visual dimension and unit-normalizes.

Because of the mean pooling, a text's embedding depends on its M context
rows only through their sum:

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

from .core import NORM_EPS
from .errors import EmptySequenceError, ZeroVectorError, check_setting

_TOKEN_RE = re.compile(r"[0-9a-z]+")

DEFAULT_HASH_BUCKETS = 4096
DEFAULT_D_T = 16
DEFAULT_D_V = 32


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


@dataclass(frozen=True)
class FrozenEncoderWeights:
    """Seeded token table and projection; never modified after construction."""

    token_table: np.ndarray  # DEFAULT_HASH_BUCKETS x d_t
    projection: np.ndarray  # d_t x d_v
    vocab: Vocabulary

    @classmethod
    def create(
        cls,
        seed: int,
        d_t: int = DEFAULT_D_T,
        d_v: int = DEFAULT_D_V,
    ) -> "FrozenEncoderWeights":
        check_setting(min(d_t, d_v) >= 1, "embedding dimensions must be >= 1, "
                      f"got d_t={d_t}, d_v={d_v}")
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(d_t)
        token_table = rng.uniform(-scale, scale,
                                  size=(DEFAULT_HASH_BUCKETS, d_t))
        projection = rng.uniform(-scale, scale, size=(d_t, d_v))
        return cls(
            token_table=token_table,
            projection=projection,
            vocab=Vocabulary(seed=seed),
        )

    @property
    def d_t(self) -> int:
        return self.token_table.shape[1]

    @property
    def d_v(self) -> int:
        return self.projection.shape[1]


@dataclass(frozen=True)
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


def _sequence(weights: FrozenEncoderWeights, context, text: str) -> np.ndarray:
    parts = []
    if context is not None and context.length > 0:
        parts.append(context.vectors)
    ids = weights.vocab.tokenize(text)
    if ids:
        parts.append(weights.token_table[ids])
    if not parts:
        raise EmptySequenceError(f"no tokens and no context for text {text!r}")
    return np.vstack(parts)


def encode_text(weights: FrozenEncoderWeights, text: str,
                context: PromptContext | None = None) -> np.ndarray:
    """Mean-pool the (context + token) sequence, project, unit-normalize."""
    seq = _sequence(weights, context, text)
    h = seq.mean(axis=0)
    e = h @ weights.projection
    n = np.linalg.norm(e)
    if n < NORM_EPS:
        raise ZeroVectorError(f"projected embedding norm {n:.3e} < 1e-12")
    return e / n


def token_sums(weights: FrozenEncoderWeights, texts,
               context_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Per text, the sum of its token embeddings (T x d_t) and its sequence
    length L = context_length + n_tokens (T,)."""
    texts = list(texts)
    ids = [weights.vocab.tokenize(t) for t in texts]
    lengths = np.array([context_length + len(i) for i in ids],
                       dtype=np.float64)
    if np.any(lengths == 0):
        text = texts[int(np.argmin(lengths))]
        raise EmptySequenceError(f"no tokens and no context for text {text!r}")
    sums = np.stack([weights.token_table[i].sum(axis=0) for i in ids])
    return sums, lengths
