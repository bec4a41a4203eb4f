"""Seeded synthetic bag datasets with planted tissue structure.

Tissue archetypes are the toy-encoder embeddings of generated description
strings, so the full text path is exercised end to end. Each class name is
the description of its informative tissue, which makes the raw class
prompt land exactly on the archetype.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import MAX_BAGS, MAX_D_V, MAX_PATCHES, EmbeddingMatrix, WsiBag
from .encoder import D_T, DEFAULT_D_T, DEFAULT_D_V, DEFAULT_ENCODER_SEED, \
    SEED, FrozenEncoderWeights, encode_text
from .errors import (InvalidSettingError, RejectionExhaustedError,
                     check_fields, check_setting)

MAX_SEPARATION_COSINE = 0.3
_REJECTION_TRIES = 200

_ADJECTIVES = (
    "dense", "loose", "sheetlike", "cribriform", "papillary", "lepidic",
    "acinar", "solid", "mucinous", "fibrotic", "necrotic", "keratinized",
    "spindled", "clear", "granular", "trabecular", "micropapillary",
    "glandular", "dyscohesive", "nested",
)
_STRUCTURES = (
    "glands", "nests", "sheets", "tubules", "cords", "lumina", "stroma",
    "septa", "vessels", "ducts", "follicles", "lobules", "fronds",
    "clusters", "whorls", "bundles",
)
_QUALIFIERS = (
    "hyperchromatic", "pleomorphic", "mitotically active", "bland",
    "vacuolated", "eosinophilic", "basophilic", "atypical", "uniform",
    "crowded", "infiltrative", "well demarcated",
)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic dataset draw."""

    num_classes: int = 3
    num_tissues: int = 3
    n_range: tuple = (8, 16)
    bags_per_class: int = 8
    signal_fraction: float = 0.9
    noise_sigma: float = 0.05
    d_v: int = DEFAULT_D_V
    d_t: int = DEFAULT_D_T
    seed: int = 0
    encoder_seed: int = DEFAULT_ENCODER_SEED

    # field -> (kind, range); n_range is (n_min, n_max)
    SETTINGS = {
        # a bag's distractor is a tissue other than its class's, so 2
        "num_classes": (int, "[1, inf)"), "num_tissues": (int, "[2, inf)"),
        "n_range": ((int, int), f"[1, {MAX_PATCHES}]"),
        "bags_per_class": (int, "[1, inf)"),
        "signal_fraction": (float, "(0, 1]"),
        "noise_sigma": (float, "[0, inf)"), "d_v": (int, f"[1, {MAX_D_V}]"),
        "d_t": D_T, "seed": SEED, "encoder_seed": SEED,
    }

    def __post_init__(self):
        check_fields(self, self.SETTINGS)
        check_setting(self.num_tissues >= self.num_classes, "num_tissues must "
                      f"be at least num_classes = {self.num_classes}, got "
                      f"{self.num_tissues}")
        check_setting(self.num_classes * self.bags_per_class <= MAX_BAGS,
                      f"num_classes x bags_per_class must be <= {MAX_BAGS}")
        check_setting(self.n_range[0] <= self.n_range[1],
                      f"n_range must have n_min <= n_max, got {self.n_range}")


# Free knobs (bag sizes, bag counts, tissue count) chosen so that
# "separable-easy" is cleanly classifiable even zero-shot, while "needle"
# hides the class signal in a 10% minority of patches.
PRESETS = {
    "separable-easy": dict(num_classes=3, num_tissues=3, n_range=(12, 20),
                           bags_per_class=8, signal_fraction=0.9,
                           noise_sigma=0.05, seed=3),
    "needle": dict(num_classes=3, num_tissues=6, n_range=(16, 32),
                   bags_per_class=20, signal_fraction=0.1,
                   noise_sigma=0.1),
}


def preset_spec(name: str, seed: int | None = None, **overrides) -> SynthSpec:
    check_setting(name in PRESETS,
                  f"unknown preset {name!r}; options: {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    if seed is not None:
        params["seed"] = seed
    check_setting("seed" in params,
                  f"preset {name!r} requires an explicit seed")
    unknown = sorted(set(params) - {f.name for f in fields(SynthSpec)})
    check_setting(not unknown, f"unknown synth setting(s) {unknown}")
    return SynthSpec(**params)


@dataclass(frozen=True, eq=False)
class SynthDataset:
    bags: tuple
    tissue_descriptions: tuple
    class_names: tuple
    archetypes: np.ndarray  # K x d_v unit rows
    class_to_tissue: tuple


_WORD_POOL = _ADJECTIVES + _STRUCTURES + _QUALIFIERS


def _description(rng: np.random.Generator, index: int) -> str:
    # Few shared scaffold words: shared tokens dominate the mean-pooled
    # encoding and defeat the separation rejection.
    words = rng.choice(len(_WORD_POOL), size=5, replace=False)
    body = " ".join(_WORD_POOL[int(w)] for w in words)
    return f"{body} t{index:02d}"


def _draw_archetypes(rng, weights, k):
    """Rejection-sample tissue descriptions whose embeddings are pairwise
    separated below MAX_SEPARATION_COSINE."""
    descriptions: list[str] = []
    vectors: list[np.ndarray] = []
    for slot in range(k):
        for attempt in range(_REJECTION_TRIES):
            cand = _description(rng, slot)
            v = encode_text(weights, cand)
            if all(abs(float(v @ u)) < MAX_SEPARATION_COSINE for u in vectors):
                descriptions.append(cand)
                vectors.append(v)
                break
        else:
            raise RejectionExhaustedError(
                f"no separated archetype for slot {slot} after "
                f"{_REJECTION_TRIES} tries (K={k}, d_v={weights.d_v})"
            )
    return descriptions, np.stack(vectors)


@np.errstate(over="raise")
def _perturb_bag(rng, informative, distractor, n_signal, n, sigma):
    """n unit rows: the first n_signal scatter around `informative`, the
    rest around `distractor`, each with isotropic N(0, sigma^2) noise.

    One (n, d_v) draw consumes the stream exactly as n draws of size d_v,
    and each row norm is a per-row BLAS dot as in np.linalg.norm, so the
    rows are bit-identical to perturbing one patch at a time.
    """
    v = rng.standard_normal((n, informative.shape[0]))
    v *= sigma
    v[:n_signal] += informative
    v[n_signal:] += distractor
    norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    small = norms < 1e-12  # practically unreachable for unit archetypes
    norms[small] = 1.0
    v /= norms[:, None]
    v[:n_signal][small[:n_signal]] = informative
    v[n_signal:][small[n_signal:]] = distractor
    return v


def generate(spec: SynthSpec) -> SynthDataset:
    """Deterministic dataset draw; bitwise reproducible given the spec."""
    rng = np.random.default_rng(spec.seed)
    weights = FrozenEncoderWeights.create(spec.encoder_seed, d_t=spec.d_t,
                                          d_v=spec.d_v)
    descriptions, archetypes = _draw_archetypes(rng, weights,
                                                spec.num_tissues)
    class_to_tissue = tuple(range(spec.num_classes))
    class_names = tuple(descriptions[t] for t in class_to_tissue)

    non_informative = [k for k in range(spec.num_tissues)
                       if k not in class_to_tissue]
    lo, hi = spec.n_range
    bags = []
    for c in range(spec.num_classes):
        informative = archetypes[class_to_tissue[c]]
        # Distractor pool: tissues no class is keyed to, falling back to the
        # other classes' tissues when K == C.
        pool = non_informative or [k for k in range(spec.num_tissues)
                                   if k != class_to_tissue[c]]
        for b in range(spec.bags_per_class):
            n = int(rng.integers(lo, hi + 1))
            n_signal = max(1, int(round(spec.signal_fraction * n)))
            # One distractor tissue per bag: keeps the off-class content
            # coherent so averaging cannot wash it out.
            distractor = archetypes[pool[int(rng.integers(len(pool)))]]
            try:
                patches = _perturb_bag(rng, informative, distractor,
                                       n_signal, n, spec.noise_sigma)
            except FloatingPointError as exc:  # else it writes zero patches
                raise InvalidSettingError(
                    f"noise_sigma={spec.noise_sigma} overflows a patch "
                    f"norm ({exc})") from exc
            width = math.ceil(math.sqrt(n))
            index = np.arange(n)
            bags.append(WsiBag(
                patches=EmbeddingMatrix(patches),
                coords=np.stack([index % width, index // width], axis=1),
                label=c,
                patient_id=f"pt{c}_{b:03d}",
            ))
    return SynthDataset(
        bags=tuple(bags),
        tissue_descriptions=tuple(descriptions),
        class_names=class_names,
        archetypes=archetypes,
        class_to_tissue=class_to_tissue,
    )
