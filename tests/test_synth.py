import math

import numpy as np
import pytest

from slipmil.encoder import FrozenEncoderWeights, encode_text
from slipmil.errors import InvalidSettingError, RejectionExhaustedError
from slipmil.synth import (
    MAX_SEPARATION_COSINE,
    PRESETS,
    SynthSpec,
    _draw_archetypes,
    generate,
    preset_spec,
)

from oracles import oracle_softmax, pool_average


class TestGenerate:
    def test_pure_signal_equals_archetype(self):
        spec = SynthSpec(num_classes=2, num_tissues=3, n_range=(3, 3),
                         bags_per_class=2, signal_fraction=1.0,
                         noise_sigma=0.0, seed=1)
        ds = generate(spec)
        for bag in ds.bags:
            arch = ds.archetypes[ds.class_to_tissue[bag.label]]
            for row in bag.patches.data:
                assert np.allclose(row, arch, atol=1e-12)

    def test_minimal_dataset(self):
        spec = SynthSpec(num_classes=3, num_tissues=3, n_range=(1, 1),
                         bags_per_class=1, signal_fraction=1.0,
                         noise_sigma=0.0, seed=2)
        ds = generate(spec)
        assert len(ds.bags) == 3
        assert all(b.num_patches == 1 for b in ds.bags)

    def test_bitwise_deterministic(self):
        spec = preset_spec("needle", seed=9)
        a = generate(spec)
        b = generate(spec)
        assert a.tissue_descriptions == b.tissue_descriptions
        for x, y in zip(a.bags, b.bags):
            assert np.array_equal(x.patches.data, y.patches.data)
            assert x.coords == y.coords
            assert (x.label, x.patient_id) == (y.label, y.patient_id)

    def test_unit_norm_patches(self):
        ds = generate(preset_spec("needle", seed=4))
        for bag in ds.bags:
            norms = np.linalg.norm(bag.patches.data, axis=1)
            assert np.max(np.abs(norms - 1)) < 1e-9

    def test_archetype_separation(self):
        for seed in range(3):
            ds = generate(preset_spec("needle", seed=seed))
            gram = ds.archetypes @ ds.archetypes.T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < MAX_SEPARATION_COSINE

    def test_class_names_hit_archetypes(self):
        ds = generate(preset_spec("separable-easy", seed=3))
        w = FrozenEncoderWeights.create(42)
        for c, name in enumerate(ds.class_names):
            v = encode_text(w, name)
            assert np.allclose(v, ds.archetypes[ds.class_to_tissue[c]],
                               atol=1e-12)

    def test_rejection_exhausted(self):
        # far more tissues than a tiny space can separate
        spec = SynthSpec(num_classes=2, num_tissues=60, n_range=(1, 1),
                         bags_per_class=1, signal_fraction=1.0,
                         noise_sigma=0.0, d_v=2, seed=0)
        with pytest.raises(RejectionExhaustedError):
            generate(spec)

    def test_separable_preset_zero_shot_margin(self):
        # class prompts equal archetypes, so even plain averaging
        # classifies nearly every bag without training
        ds = generate(preset_spec("separable-easy", seed=3))
        correct = 0
        for bag in ds.bags:
            avg = pool_average(bag)
            scores = ds.archetypes[list(ds.class_to_tissue)] @ avg
            correct += int(np.argmax(scores)) == bag.label
        assert correct / len(ds.bags) >= 0.9

    def test_needle_preset_signal_fraction(self):
        spec = preset_spec("needle", seed=0)
        assert spec.signal_fraction == 0.1
        assert spec.bags_per_class == 20
        assert spec.num_classes == 3


def reference_bags(spec):
    """The per-patch generator: one draw, one norm and one divide per patch,
    coordinates as Python pairs. Returns [(patches, coords, label, pid)]."""
    rng = np.random.default_rng(spec.seed)
    weights = FrozenEncoderWeights.create(spec.encoder_seed, d_t=spec.d_t,
                                          d_v=spec.d_v)
    _, archetypes = _draw_archetypes(rng, weights, spec.num_tissues)
    non_informative = list(range(spec.num_classes, spec.num_tissues))
    lo, hi = spec.n_range
    out = []
    for c in range(spec.num_classes):
        pool = non_informative or [k for k in range(spec.num_tissues)
                                   if k != c]
        for b in range(spec.bags_per_class):
            n = int(rng.integers(lo, hi + 1))
            n_signal = max(1, int(round(spec.signal_fraction * n)))
            distractor = archetypes[pool[int(rng.integers(len(pool)))]]
            patches = np.empty((n, spec.d_v))
            for i in range(n):
                base = archetypes[c] if i < n_signal else distractor
                v = base + spec.noise_sigma * rng.standard_normal(spec.d_v)
                norm = np.linalg.norm(v)
                patches[i] = base.copy() if norm < 1e-12 else v / norm
            width = math.ceil(math.sqrt(n))
            coords = tuple((i % width, i // width) for i in range(n))
            out.append((patches, coords, c, f"pt{c}_{b:03d}"))
    return out


EQUIVALENCE_SPECS = {
    "needle-0": preset_spec("needle", seed=0),
    "needle-7": preset_spec("needle", seed=7),
    "separable-easy": preset_spec("separable-easy", seed=3),
    "sigma-0": SynthSpec(num_classes=2, num_tissues=3, n_range=(2, 9),
                         bags_per_class=3, signal_fraction=0.5,
                         noise_sigma=0.0, seed=5),
    "one-patch": SynthSpec(num_classes=3, num_tissues=4, n_range=(1, 1),
                           bags_per_class=2, signal_fraction=0.3,
                           noise_sigma=0.2, seed=6),
    "thousands": SynthSpec(num_classes=3, num_tissues=5,
                           n_range=(1000, 3000), bags_per_class=1,
                           signal_fraction=0.1, noise_sigma=0.1, seed=11),
}


class TestPerBagEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_SPECS))
    def test_bitwise_equal_to_per_patch_reference(self, name):
        spec = EQUIVALENCE_SPECS[name]
        bags = generate(spec).bags
        reference = reference_bags(spec)
        assert len(bags) == len(reference)
        for bag, (patches, coords, label, pid) in zip(bags, reference):
            assert np.array_equal(bag.patches.data, patches)
            assert bag.coords == coords
            assert all(type(x) is int and type(y) is int
                       for x, y in bag.coords)
            assert (bag.label, bag.patient_id) == (label, pid)


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"separable-easy", "needle"}

    def test_unknown_preset(self):
        with pytest.raises(InvalidSettingError, match="unknown preset 'nope'"):
            preset_spec("nope", seed=0)

    def test_needle_requires_seed(self):
        with pytest.raises(InvalidSettingError,
                           match="preset 'needle' requires an explicit seed"):
            preset_spec("needle")

    def test_unknown_override(self):
        # a TypeError from SynthSpec.__init__ before
        with pytest.raises(InvalidSettingError,
                           match=r"unknown synth setting\(s\) \['bogus'\]"):
            preset_spec("needle", seed=1, bogus=2)


class TestSpecRange:
    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"encoder_seed": -3}, {"noise_sigma": math.inf},
        {"noise_sigma": math.nan}, {"noise_sigma": -1.0},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_out_of_range_spec(self, kwargs):
        with pytest.raises(InvalidSettingError):
            SynthSpec(**kwargs)

    def test_seeds_have_no_upper_bound(self):
        # benchmark workloads draw dataset seeds well past 2**31
        spec = SynthSpec(seed=10 ** 12 + 8, encoder_seed=2 ** 63)
        assert spec.seed == 10 ** 12 + 8


class TestOracleSelfConsistency:
    def test_oracle_deterministic(self):
        logits = [[0.3, -0.2, 1.1]]
        assert oracle_softmax(logits, 0.1) == oracle_softmax(logits, 0.1)

    def test_oracle_row_sums(self):
        rng = np.random.default_rng(60)
        rows = rng.uniform(-2, 2, size=(4, 5)).tolist()
        for row in oracle_softmax(rows, 0.05):
            assert abs(sum(row) - 1) < 1e-12
