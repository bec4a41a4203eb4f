"""Classification, few-shot split construction, metrics and ablation sweeps."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import WsiBag
from .encoder import FrozenEncoderWeights
from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    InsufficientBagsError,
)
from .pooling import (
    ClassPromptSet,
    SlideFeature,
    TissuePromptSet,
    log_tissue_wsi_similarity,
    pooled_feature,
    zero_shot_scores,
)
from .trainer import TrainConfig, TrainedPrompts, train_prompts


def classify(f_wsi: SlideFeature, classes: ClassPromptSet) -> int:
    """Argmax over diagonal (column j, class prompt j) alignments; ties go
    to the lowest class index."""
    if f_wsi.num_classes != classes.size:
        raise DimensionMismatchError(
            f"{f_wsi.num_classes} feature columns vs {classes.size} classes"
        )
    scores = np.einsum("dj,jd->j", f_wsi.columns, classes.embeddings.data)
    return int(np.argmax(scores))


def select_few_shot(dataset, shots: int):
    """Per class, pick the `shots` bags with the most patches (ties by
    dataset order). Returns (training subset, evaluation pool)."""
    dataset = list(dataset)
    shots = int(shots)
    if shots < 1:
        raise InsufficientBagsError(f"shots={shots} must be >= 1")
    by_class: dict[int, list[int]] = {}
    for i, bag in enumerate(dataset):
        by_class.setdefault(bag.label, []).append(i)
    selected: set[int] = set()
    for label, indices in sorted(by_class.items()):
        if len(indices) < shots:
            raise InsufficientBagsError(
                f"class {label} has {len(indices)} bags, need {shots}"
            )
        ranked = sorted(indices, key=lambda i: (-dataset[i].num_patches, i))
        selected.update(ranked[:shots])
    train = [dataset[i] for i in range(len(dataset)) if i in selected]
    pool = [dataset[i] for i in range(len(dataset)) if i not in selected]
    return train, pool


@dataclass(frozen=True)
class Pipeline:
    """Everything needed to score a bag: encoder, prompt sets, pooling.

    Pooling uses the context-free class prompts, scoring the prompted ones;
    both, and log S_wsi for slip pooling, are computed at construction. Only
    slip pooling reads tissues; the other variants take tissues=None."""

    weights: FrozenEncoderWeights
    tissues: TissuePromptSet | None
    class_names: tuple
    tau: float = 0.01
    pooling: str = "slip"  # slip | topk | avg | zero
    topk_k: int = 16
    prompts: TrainedPrompts | None = None

    def __post_init__(self):
        names = tuple(self.class_names)
        frozen = ClassPromptSet.from_names(self.weights, names)
        scoring = frozen
        if self.prompts is not None:
            scoring = ClassPromptSet.from_names(self.weights, names,
                                                self.prompts.contexts[0])
        lw = None
        if self.pooling == "slip":
            if self.tissues is None:
                raise ValueError("slip pooling needs a tissue prompt set")
            lw = log_tissue_wsi_similarity(frozen, self.tissues, self.tau)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "_frozen", frozen)
        object.__setattr__(self, "_scoring", scoring)
        object.__setattr__(self, "_lw", lw)

    def scoring_classes(self) -> ClassPromptSet:
        """Class prompts used on the text side of classification."""
        return self._scoring

    def pooling_classes(self) -> ClassPromptSet:
        return self._frozen

    def slide_feature(self, bag: WsiBag) -> SlideFeature:
        if self.pooling == "zero":
            raise ValueError("zero-shot pipeline has no slide feature")
        return pooled_feature(bag, self.tissues, self._frozen, self.pooling,
                              self.tau, self.topk_k, lw=self._lw)

    def predict(self, bag: WsiBag) -> int:
        if self.pooling == "zero":
            # Zero-shot: raw class names, per-patch softmax averaged.
            scores = zero_shot_scores(bag, self._frozen, self.tau)
            return int(np.argmax(scores))
        return classify(self.slide_feature(bag), self.scoring_classes())


def evaluate(bags, pipeline: Pipeline) -> dict:
    """Patient-wise, class-averaged accuracy plus bag accuracy and the
    bag-level confusion matrix.

    A patient's prediction is the majority vote of its bags' predictions;
    vote ties resolve to the lowest class index.
    """
    bags = list(bags)
    num_classes = len(pipeline.class_names)
    predictions = [pipeline.predict(bag) for bag in bags]

    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    by_patient: dict[str, list[int]] = {}
    patient_labels: dict[str, list[int]] = {}
    for bag, pred in zip(bags, predictions):
        confusion[bag.label, pred] += 1
        by_patient.setdefault(bag.patient_id, []).append(pred)
        patient_labels.setdefault(bag.patient_id, []).append(bag.label)

    class_correct = np.zeros(num_classes)
    class_total = np.zeros(num_classes)
    for pid in sorted(by_patient):
        votes = np.bincount(by_patient[pid], minlength=num_classes)
        pred = int(np.argmax(votes))
        labels = np.bincount(patient_labels[pid], minlength=num_classes)
        label = int(np.argmax(labels))
        class_total[label] += 1
        if pred == label:
            class_correct[label] += 1

    seen = class_total > 0
    per_class = np.zeros(num_classes)
    per_class[seen] = class_correct[seen] / class_total[seen]
    class_avg = float(per_class[seen].mean()) if seen.any() else 0.0
    bag_correct = sum(p == b.label for p, b in zip(predictions, bags))
    return {
        "class_averaged_accuracy": class_avg,
        "per_class_accuracy": [float(x) for x in per_class],
        "bag_accuracy": float(bag_correct / len(bags)) if bags else 0.0,
        "confusion_matrix": confusion.tolist(),
        "num_patients": len(by_patient),
        "num_bags": len(bags),
    }


def run_single(dataset, class_names, tissue_descriptions,
               cfg: TrainConfig):
    """Train on the few-shot split and evaluate on the held-out pool.

    Returns (prompts, history, metrics, eval_pool_size).
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("dataset is empty")
    if cfg.shots == "all":
        train_bags, eval_bags = dataset, dataset
    else:
        train_bags, eval_bags = select_few_shot(dataset, int(cfg.shots))
    weights = cfg.encoder_weights(dataset[0].patches.cols)
    prompts, history = train_prompts(train_bags, tissue_descriptions,
                                     class_names, cfg, weights=weights)
    tissues = TissuePromptSet.from_descriptions(weights, tissue_descriptions)
    pipeline = Pipeline(weights=weights, tissues=tissues,
                        class_names=tuple(class_names), tau=cfg.tau,
                        pooling=cfg.pooling, topk_k=cfg.topk_k,
                        prompts=prompts)
    metrics = evaluate(eval_bags, pipeline)
    return prompts, history, metrics, len(eval_bags)


def run_ablation(dataset, class_names, poolings, shots_list, tissue_sets,
                 seeds, base_cfg: TrainConfig):
    """Full grid sweep; one metrics row per (pooling, shots, tissues, seed).

    `tissue_sets` is a list of (name, descriptions). Pooling "zero" skips
    training and reads no tissues: it scores the whole dataset once, and
    every zero row carries those metrics.
    """
    dataset = list(dataset)
    if set(poolings) != {"zero"}:  # check every split before any row trains
        for shots in shots_list:
            select_few_shot(dataset, replace(base_cfg, shots=int(shots)).shots)
    zero_metrics = None
    rows = []
    for pooling in poolings:
        for shots in shots_list:
            for tissue_name, descriptions in tissue_sets:
                for seed in seeds:
                    row = {
                        "pooling": pooling,
                        "shots": int(shots),
                        "tissue_set": tissue_name,
                        "num_tissue_types": len(descriptions),
                        "seed": int(seed),
                    }
                    if pooling == "zero":
                        if zero_metrics is None:
                            zero_metrics = evaluate(dataset, Pipeline(
                                weights=base_cfg.encoder_weights(
                                    dataset[0].patches.cols),
                                tissues=None,
                                class_names=tuple(class_names),
                                tau=base_cfg.tau, pooling="zero",
                            ))
                        metrics = zero_metrics
                        row["final_loss"] = 0.0
                    else:
                        cfg = replace(base_cfg, pooling=pooling,
                                      shots=int(shots), seed=int(seed))
                        _, history, metrics, _ = run_single(
                            dataset, class_names, descriptions, cfg
                        )
                        row["final_loss"] = float(history.records[-1][2])
                    row["class_averaged_accuracy"] = (
                        metrics["class_averaged_accuracy"]
                    )
                    row["bag_accuracy"] = metrics["bag_accuracy"]
                    rows.append(row)
    return rows
