"""Dual-similarity pooling and few-shot prompt training for bag-of-patches
classification, with synthetic data and bit-exact file formats."""

from .core import (
    EmbeddingMatrix,
    SimilarityMatrix,
    WsiBag,
    cosine_matrix,
    l2_normalize_rows,
    softmax_rows,
)
from .encoder import (
    FrozenEncoderWeights,
    PromptContext,
    Vocabulary,
    encode_text,
    encode_text_grad,
)
from .evaluation import (
    Pipeline,
    classify,
    evaluate,
    run_ablation,
    run_single,
    select_few_shot,
)
from .pooling import (
    ClassPromptSet,
    SlideFeature,
    TissuePromptSet,
    log_tissue_wsi_similarity,
    pool_average,
    pool_topk,
    slip_correlation,
    slip_pool,
    zero_shot_scores,
)
from .synth import PRESETS, SynthDataset, SynthSpec, generate, preset_spec
from .trainer import (
    TrainConfig,
    TrainHistory,
    TrainedPrompts,
    infonce_grad,
    infonce_loss,
    train_prompts,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
