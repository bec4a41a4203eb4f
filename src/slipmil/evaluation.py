"""Few-shot split construction, metrics and ablation sweeps."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import EmptyDatasetError, InsufficientBagsError
from .pooling import Pipeline
from .trainer import TrainConfig, check_shots, train_prompts


def select_few_shot(dataset, shots: int | str):
    """Per class, pick the `shots` bags with the most patches (ties by
    dataset order). Returns (training subset, evaluation pool); with shots
    "all", both are the whole dataset."""
    check_shots(shots)
    dataset = list(dataset)
    if shots == "all":
        return dataset, dataset
    shots = int(shots)
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


def evaluate(bags, pipeline: Pipeline) -> dict:
    """Patient-wise, class-averaged accuracy plus bag accuracy and the
    bag-level confusion matrix.

    A patient's prediction is the majority vote of its bags' predictions;
    vote ties resolve to the lowest class index.
    """
    bags = list(bags)
    c = len(pipeline.class_names)
    preds = np.asarray(pipeline.predict_bags(bags), dtype=np.int64)
    labels = np.array([bag.label for bag in bags], dtype=np.int64)
    confusion = np.bincount(labels * c + preds, minlength=c * c)

    ids: dict[str, int] = {}
    patient = np.array([ids.setdefault(bag.patient_id, len(ids))
                        for bag in bags], dtype=np.int64)
    patient_pred, patient_label = (
        np.bincount(patient * c + x, minlength=len(ids) * c)
        .reshape(len(ids), c).argmax(axis=1) for x in (preds, labels))
    class_total = np.bincount(patient_label, minlength=c)
    class_correct = np.bincount(patient_label[patient_pred == patient_label],
                                minlength=c)

    seen = class_total > 0
    per_class = np.zeros(c)
    per_class[seen] = class_correct[seen] / class_total[seen]
    class_avg = float(per_class[seen].mean()) if seen.any() else 0.0
    return {
        "class_averaged_accuracy": class_avg,
        "per_class_accuracy": [float(x) for x in per_class],
        "bag_accuracy": int((preds == labels).sum()) / max(len(bags), 1),
        "confusion_matrix": confusion.reshape(c, c).tolist(),
        "num_patients": len(ids),
        "num_bags": len(bags),
    }


def run_single(dataset, class_names, tissue_descriptions,
               cfg: TrainConfig):
    """Train on the few-shot split and evaluate on the held-out pool; both
    use one Pipeline's text side, so tissue descriptions are encoded once.

    Returns (prompts, history, metrics); metrics["num_bags"] is the
    held-out pool's size.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("dataset is empty")
    train_bags, eval_bags = select_few_shot(dataset, cfg.shots)
    pipeline = cfg.pipeline(dataset[0].patches.cols, tissue_descriptions,
                            class_names)
    prompts, history = train_prompts(train_bags, tissue_descriptions,
                                     class_names, cfg, pipeline=pipeline)
    metrics = evaluate(eval_bags, pipeline.with_prompts(prompts))
    return prompts, history, metrics


def run_ablation(dataset, class_names, poolings, shots_list, tissue_sets,
                 seeds, base_cfg: TrainConfig):
    """Full grid sweep; one metrics row per (pooling, shots, tissues, seed).

    `tissue_sets` is a list of (name, descriptions). Pooling "zero" skips
    training and reads no tissues: it scores the whole dataset once, and
    every zero row carries those metrics. Every row's settings, and each
    trained row's split, are checked before any row trains.
    """
    dataset = list(dataset)
    cfgs = {(pooling, shots, seed): replace(base_cfg, pooling=pooling,
                                            shots=int(shots), seed=int(seed))
            for pooling in poolings for shots in shots_list for seed in seeds}
    for shots in dict.fromkeys(cfg.shots for cfg in cfgs.values()
                               if cfg.pooling != "zero"):
        select_few_shot(dataset, shots)
    if "zero" in poolings:
        zero = replace(base_cfg, pooling="zero")
        zero_metrics = evaluate(dataset, zero.pipeline(
            dataset[0].patches.cols, (), class_names))
    rows = []
    for pooling in poolings:
        for shots in shots_list:
            for tissue_name, descriptions in tissue_sets:
                for seed in seeds:
                    cfg = cfgs[pooling, shots, seed]
                    row = {
                        "pooling": pooling,
                        "shots": cfg.shots,
                        "tissue_set": tissue_name,
                        "num_tissue_types": len(descriptions),
                        "seed": cfg.seed,
                    }
                    if pooling == "zero":
                        metrics = zero_metrics
                        row["final_loss"] = 0.0
                    else:
                        _, history, metrics = run_single(
                            dataset, class_names, descriptions, cfg
                        )
                        row["final_loss"] = float(history.records[-1][2])
                    row["class_averaged_accuracy"] = (
                        metrics["class_averaged_accuracy"]
                    )
                    row["bag_accuracy"] = metrics["bag_accuracy"]
                    rows.append(row)
    return rows
