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
    encode_texts,
    token_sums,
)
from slipmil import encoder
from slipmil.core import MAX_D_T
from slipmil.errors import (EmptySequenceError, InvalidSettingError,
                            ZeroVectorError)

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


class TestFrozenWeights:
    """`create` draws the weights of one (seed, d_t, d_v) once per process,
    keeps only the last draw and hands out read-only arrays."""

    def test_equal_arguments_return_the_same_weights(self):
        first = FrozenEncoderWeights.create(7, d_t=4, d_v=6)
        assert FrozenEncoderWeights.create(7, d_t=4, d_v=6) is first
        assert FrozenEncoderWeights.create(np.int64(7), 4, 6) is first

    def test_arrays_cannot_be_written(self):
        w = FrozenEncoderWeights.create(7, d_t=4, d_v=6)
        for array in (w.token_table, w.projection):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0

    @pytest.mark.parametrize("seed, d_t, d_v", [(0, 1, 1), (42, 16, 32),
                                                (2 ** 63, 5, 3)])
    def test_bits_are_a_direct_draw(self, seed, d_t, d_v):
        w = FrozenEncoderWeights.create(seed, d_t=d_t, d_v=d_v)
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(d_t)
        table = rng.uniform(-scale, scale, (DEFAULT_HASH_BUCKETS, d_t))
        projection = rng.uniform(-scale, scale, (d_t, d_v))
        assert w.token_table.tobytes() == table.tobytes()
        assert w.projection.tobytes() == projection.tobytes()
        assert w.vocab == Vocabulary(seed=seed)

    def test_a_new_key_replaces_the_kept_weights(self):
        first = FrozenEncoderWeights.create(7, d_t=4, d_v=6)
        for seed, d_t, d_v in ((8, 4, 6), (7, 5, 6), (7, 4, 7)):
            other = FrozenEncoderWeights.create(seed, d_t=d_t, d_v=d_v)
            assert other is not first
            assert list(encoder._LAST_DRAWN.values()) == [other]
        again = FrozenEncoderWeights.create(7, d_t=4, d_v=6)
        assert again is not first
        assert again.token_table.tobytes() == first.token_table.tobytes()
        assert again.projection.tobytes() == first.projection.tobytes()

    @pytest.mark.parametrize("kwargs", [
        {"d_t": 0}, {"d_v": 0}, {"d_t": MAX_D_T + 1}, {"d_t": 2.5},
        {"d_v": "6"}, {"seed": 1.5},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_arguments_raise_on_every_call(self, kwargs):
        args = {"seed": 7, "d_t": 4, "d_v": 6, **kwargs}
        for _ in range(2):  # before and after a good draw of the others
            with pytest.raises(InvalidSettingError):
                FrozenEncoderWeights.create(**args)
            FrozenEncoderWeights.create(7, d_t=4, d_v=6)


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

    def test_overflowed_norm(self, weights):
        # a finite context whose embedding norm overflows would encode as
        # e / inf, a zero vector
        ctx = PromptContext(np.full((2, 16), 1e200))
        with (np.errstate(over="ignore"),
              pytest.raises(ZeroVectorError, match="norm inf")):
            encode_text(weights, "solid", ctx)

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

    def test_encode_texts_stacks_encode_text(self, weights):
        ctx = PromptContext(np.random.default_rng(5).uniform(-0.1, 0.1,
                                                             (2, 16)))
        texts = ["stroma", "solid tumor sheet", "papillary lesion"]
        for context in (None, ctx):
            rows = np.stack([encode_text(weights, t, context) for t in texts])
            assert np.array_equal(encode_texts(weights, texts, context), rows)


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
