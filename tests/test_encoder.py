import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slipmil.encoder import (
    DEFAULT_HASH_BUCKETS,
    FrozenEncoderWeights,
    PromptContext,
    Vocabulary,
    encode_text,
    token_sums,
)
from slipmil.errors import EmptySequenceError, ZeroVectorError

from oracles import context_sum_grad, encode_context_sums, encode_text_grad


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def fd_grad(weights, text, upstream, context, step=1e-6):
    """Central finite differences of encode_text . upstream w.r.t. context."""
    grad = np.zeros_like(context.vectors)
    for idx in np.ndindex(*context.vectors.shape):
        plus = context.vectors.copy()
        plus[idx] += step
        minus = context.vectors.copy()
        minus[idx] -= step
        fp = encode_text(weights, text, PromptContext(plus)) @ upstream
        fm = encode_text(weights, text, PromptContext(minus)) @ upstream
        grad[idx] = (fp - fm) / (2 * step)
    return grad


class TestTokenize:
    def test_empty(self):
        assert Vocabulary().tokenize("") == []

    def test_normalization_invariance(self):
        v = Vocabulary()
        assert (v.tokenize("Well differentiated")
                == v.tokenize("well   DIFFERENTIATED"))

    def test_deterministic(self):
        v = Vocabulary()
        first = v.tokenize("adenocarcinoma")
        second = v.tokenize("adenocarcinoma")
        assert len(first) == 1 and first == second

    def test_seed_changes_ids(self):
        assert (Vocabulary(seed=0).tokenize("gland")
                != Vocabulary(seed=1).tokenize("gland"))

    def test_ids_within_buckets(self):
        ids = Vocabulary().tokenize(
            "lepidic acinar solid papillary micropapillary")
        assert all(0 <= i < DEFAULT_HASH_BUCKETS for i in ids)


class TestEncodeText:
    def test_unit_norm(self, weights):
        for text in ("solid", "well differentiated adenocarcinoma", "x y z"):
            v = encode_text(weights, text)
            assert abs(np.linalg.norm(v) - 1) < 1e-9

    def test_single_token_is_projected_row(self, weights):
        ids = weights.vocab.tokenize("solid")
        expected = weights.token_table[ids[0]] @ weights.projection
        expected = expected / np.linalg.norm(expected)
        assert np.allclose(encode_text(weights, "solid"), expected,
                           atol=1e-15)

    def test_context_equal_to_token_row_is_noop(self, weights):
        ids = weights.vocab.tokenize("solid")
        row = weights.token_table[ids[0]]
        ctx = PromptContext(np.tile(row, (3, 1)))
        assert np.allclose(encode_text(weights, "solid", ctx),
                           encode_text(weights, "solid"), atol=1e-15)

    def test_empty_sequence(self, weights):
        with pytest.raises(EmptySequenceError):
            encode_text(weights, "")
        with pytest.raises(EmptySequenceError):
            encode_text(weights, "", PromptContext(np.zeros((0, 16))))

    def test_context_only(self, weights):
        rng = np.random.default_rng(5)
        ctx = PromptContext(rng.standard_normal((2, 16)))
        v = encode_text(weights, "", ctx)
        assert abs(np.linalg.norm(v) - 1) < 1e-9

    def test_cross_process_determinism(self):
        code = (
            "from slipmil.encoder import FrozenEncoderWeights, encode_text;"
            "w = FrozenEncoderWeights.create(42);"
            "print(encode_text(w, 'solid').tobytes().hex())"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        outs = {
            subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": str(src)}
                           ).stdout
            for _ in range(2)
        }
        assert len(outs) == 1

    def test_tissue_prompts_ignore_context(self, weights):
        # Tissue prompts are always encoded context-free, so a changed
        # context must not move them.
        from slipmil.pooling import TissuePromptSet
        a = TissuePromptSet.from_descriptions(weights, ["stroma", "glands"])
        b = TissuePromptSet.from_descriptions(weights, ["stroma", "glands"])
        assert np.array_equal(a.embeddings.data, b.embeddings.data)


class TestEncodeTextGrad:
    def test_zero_upstream(self, weights):
        rng = np.random.default_rng(6)
        ctx = PromptContext(rng.uniform(-0.01, 0.01, (2, 16)))
        g = encode_text_grad(weights, "solid", np.zeros(32), ctx)
        assert np.array_equal(g, np.zeros((2, 16)))

    def test_upstream_linearity(self, weights):
        rng = np.random.default_rng(7)
        ctx = PromptContext(rng.uniform(-0.01, 0.01, (2, 16)))
        u = rng.standard_normal(32)
        g1 = encode_text_grad(weights, "solid", u, ctx)
        g2 = encode_text_grad(weights, "solid", 2 * u, ctx)
        assert np.array_equal(g2, 2 * g1)

    def test_matches_finite_differences_m1(self, weights):
        rng = np.random.default_rng(8)
        ctx = PromptContext(rng.uniform(-0.5, 0.5, (1, 16)))
        u = rng.standard_normal(32)
        g = encode_text_grad(weights, "acinar pattern", u, ctx)
        assert rel_err(g, fd_grad(weights, "acinar pattern", u, ctx)) < 1e-6

    def test_matches_finite_differences_many_draws(self):
        texts = ["solid", "lepidic growth", "poorly differentiated tumor",
                 "mucinous glands with atypia"]
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            w = FrozenEncoderWeights.create(int(rng.integers(1 << 31)),
                                            d_t=8, d_v=12)
            ctx = PromptContext(rng.uniform(-0.5, 0.5,
                                            (int(rng.integers(1, 4)), 8)))
            text = texts[seed % len(texts)]
            u = rng.standard_normal(12)
            g = encode_text_grad(w, text, u, ctx)
            worst = max(worst, rel_err(g, fd_grad(w, text, u, ctx)))
        assert worst < 1e-6


class TestContextSumHelpers:
    TEXTS = ["solid", "", "poorly differentiated tumor"]

    def test_match_per_text_encoder(self, weights):
        # one context per text, the middle text without tokens
        rng = np.random.default_rng(9)
        ctxs = [PromptContext(rng.uniform(-0.5, 0.5, (3, 16)))
                for _ in self.TEXTS]
        upstream = rng.standard_normal((len(self.TEXTS), 32))
        sums, lengths = token_sums(weights, self.TEXTS, 3)
        emb, norms = encode_context_sums(
            weights, sums, lengths, np.stack([c.vectors.sum(axis=0)
                                              for c in ctxs]))
        rows = context_sum_grad(weights, emb, norms, lengths, upstream)
        for t, (text, ctx) in enumerate(zip(self.TEXTS, ctxs)):
            assert np.max(np.abs(emb[t] - encode_text(weights, text, ctx))
                          ) < 1e-14
            g = encode_text_grad(weights, text, upstream[t], ctx)
            assert np.max(np.abs(np.tile(rows[t], (3, 1)) - g)) < 1e-14

    def test_empty_sequence(self, weights):
        with pytest.raises(EmptySequenceError):
            token_sums(weights, self.TEXTS, 0)

    def test_zero_embedding(self, weights):
        # a context that cancels the tokens leaves nothing to normalize
        sums, lengths = token_sums(weights, self.TEXTS[:1], 2)
        with pytest.raises(ZeroVectorError):
            encode_context_sums(weights, sums, lengths, -sums)
