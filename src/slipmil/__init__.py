"""Dual-similarity pooling and few-shot prompt training for bag-of-patches
classification, with synthetic data and bit-exact file formats."""

from .core import EmbeddingMatrix, WsiBag, cosine_matrix
from .encoder import (
    FrozenEncoderWeights,
    PromptContext,
    Vocabulary,
    encode_text,
)
from .evaluation import evaluate, run_ablation, run_single, select_few_shot
from .pooling import (
    ClassPromptSet,
    Pipeline,
    SlideFeature,
    TissuePromptSet,
    average_features,
    classify,
    log_tissue_wsi_similarity,
    slip_correlation,
    slip_features,
    topk_features,
    zero_shot_probabilities,
)
from .synth import PRESETS, SynthDataset, SynthSpec, generate, preset_spec
from .trainer import TrainConfig, TrainHistory, TrainedPrompts, train_prompts

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
