"""Per-layer spans recorded from outside the package.

`Tracer.install()` wraps the public functions and methods of each runtime
module of slipmil and rebinds every name that a loaded slipmil module holds
for them, so calls made through `from .x import f` are recorded too. Each
call becomes one span (name, start, end, parent, op id) kept in flat arrays
in memory; `write()` saves them at the end of a run and `layer_metrics()`
derives the per-layer numbers from them.

A layer is a runtime module. `oracles` is test-only and `errors` does no
work, so neither is traced. A name that no longer exists is skipped and its
counts read zero.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

F8 = 8  # bytes per float64

# (module, attribute) pairs; "Class.method" wraps a method in place on the
# class. Container constructors are traced through the dataclass __init__.
TARGETS = (
    ("cli", "main"),
    ("io_formats", "read_dataset"),
    ("io_formats", "read_prompt_lines"),
    ("io_formats", "read_report"),
    ("io_formats", "write_dataset"),
    ("io_formats", "write_report"),
    ("io_formats", "export_heatmap"),
    ("synth", "generate"),
    ("synth", "preset_spec"),
    ("encoder", "encode_text"),
    ("encoder", "encode_text_grad"),
    ("encoder", "Vocabulary.tokenize"),
    ("encoder", "FrozenEncoderWeights.create"),
    ("encoder", "PromptContext.__init__"),
    ("trainer", "train_prompts"),
    ("trainer", "infonce_loss"),
    ("trainer", "infonce_grad"),
    ("trainer", "pooled_feature"),
    ("pooling", "tissue_wsi_similarity"),
    ("pooling", "patch_tissue_similarity"),
    ("pooling", "patch_slide_correlation"),
    ("pooling", "slip_pool"),
    ("pooling", "pool_average"),
    ("pooling", "pool_topk"),
    ("pooling", "zero_shot_scores"),
    ("pooling", "TissuePromptSet.from_descriptions"),
    ("pooling", "ClassPromptSet.from_names"),
    ("pooling", "SlideFeature.__init__"),
    ("core", "softmax_rows"),
    ("core", "cosine_matrix"),
    ("core", "l2_normalize_rows"),
    ("core", "normalize_vector"),
    ("core", "EmbeddingMatrix.__init__"),
    ("core", "SimilarityMatrix.__init__"),
    ("core", "WsiBag.__init__"),
    ("evaluation", "evaluate"),
    ("evaluation", "classify"),
    ("evaluation", "select_few_shot"),
    ("evaluation", "run_single"),
    ("evaluation", "run_ablation"),
    ("evaluation", "Pipeline.predict"),
    ("evaluation", "Pipeline.slide_feature"),
    ("evaluation", "Pipeline.scoring_classes"),
    ("evaluation", "Pipeline.pooling_classes"),
)

LAYERS = ("cli", "io_formats", "synth", "encoder", "trainer", "pooling",
          "core", "evaluation")

READS = ("io_formats.read_dataset", "io_formats.read_prompt_lines",
         "io_formats.read_report")
WRITES = ("io_formats.write_dataset", "io_formats.write_report",
          "io_formats.export_heatmap")
CONTAINERS = ("core.EmbeddingMatrix.__init__",
              "core.SimilarityMatrix.__init__", "core.WsiBag.__init__")
# Functions that pool one bag; the outermost of them bound pooling time.
BAG_POOLING = ("pooling.patch_tissue_similarity",
               "pooling.patch_slide_correlation", "pooling.slip_pool",
               "pooling.pool_average", "pooling.pool_topk",
               "pooling.zero_shot_scores")
# Evaluation spans that sit around whole runs rather than one bag.
RUN_LEVEL_EVAL = ("evaluation.run_single", "evaluation.run_ablation",
                  "evaluation.select_few_shot")


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _shape(x) -> tuple:
    """Shape of an array or of a slipmil container holding one."""
    for attr in ("data", "columns", "embeddings", "patches"):
        if hasattr(x, attr) and not isinstance(x, np.ndarray):
            return _shape(getattr(x, attr))
    return np.shape(x)


# Work done by one call, from argument shapes: (flops, bytes). Bytes are the
# minimum traffic, each input read once and the output written once; they
# ignore cache misses and are labelled as computed in the output.
def _cost_patch_tissue(args, result):
    (n, d), (k, _) = _shape(args[0]), _shape(args[1])
    return 2 * n * k * d + 5 * n * k, F8 * (n * d + k * d + n * k)


def _cost_tissue_wsi(args, result):
    (c, d), (k, _) = _shape(args[0]), _shape(args[1])
    return 2 * c * k * d + 5 * c * k, F8 * (c * d + k * d + c * k)


def _cost_correlation(args, result):
    (n, k), (c, _) = _shape(args[0]), _shape(args[1])
    return 2 * n * k * c + 2 * n * c, F8 * (n * k + c * k + n * c)


def _cost_slip_pool(args, result):
    # the nested patch_slide_correlation call is counted by its own span
    (n, d), (d2, c) = _shape(args[0]), _shape(result)
    return 2 * n * c + 2 * d * n * c + 3 * d * c, F8 * (n * d + n * c + d * c)


def _cost_average(args, result):
    n, d = _shape(args[0])
    return n * d + 3 * d, F8 * (n * d + d)


def _cost_topk(args, result):
    (n, d), (c, _) = _shape(args[0]), _shape(args[1])
    k = int(args[2])
    return 2 * n * d * c + c * (k * d + 3 * d), F8 * (n * d + c * d + n * c)


def _cost_zero_shot(args, result):
    (n, d), (c, _) = _shape(args[0]), _shape(args[1])
    return 2 * n * d * c + 6 * n * c, F8 * (n * d + c * d + n * c)


COSTS = {
    "pooling.patch_tissue_similarity": _cost_patch_tissue,
    "pooling.tissue_wsi_similarity": _cost_tissue_wsi,
    "pooling.patch_slide_correlation": _cost_correlation,
    "pooling.slip_pool": _cost_slip_pool,
    "pooling.pool_average": _cost_average,
    "pooling.pool_topk": _cost_topk,
    "pooling.zero_shot_scores": _cost_zero_shot,
}


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.enabled = False  # record only while set
        self.op_id = -1
        self.counts = dict(read_bytes=0, write_bytes=0, synth_patches=0,
                           archetypes_accepted=0, nonzero_grads=0,
                           patches_pooled=0, flops=0, bytes=0,
                           softmax_rows=0, hook_errors=0)
        self.texts: set[str] = set()
        self.learning_rate = 0.0
        self.missing: list[str] = []
        self._saved: list[tuple] = []  # (owner, name, original value)

    # -- recording ---------------------------------------------------------
    def _wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        key = span_name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        hook = getattr(self, "_after_" + key, None)
        cost = COSTS.get(span_name)
        clock = time.perf_counter_ns
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op,
            self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                self._hook(before, args)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                self._hook(hook, args, result)
            if cost is not None:
                self._hook(self._add_cost, cost, args, result)
            return result

        return traced

    def _hook(self, fn, *args) -> None:
        """Run a counter; one that no longer fits the code it watches is
        counted in hook_errors instead of failing the op."""
        try:
            fn(*args)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.counts["hook_errors"] += 1

    def _add_cost(self, cost, args, result) -> None:
        flops, nbytes = cost(args, result)
        self.counts["flops"] += flops
        self.counts["bytes"] += nbytes

    def install(self) -> None:
        """Wrap every target and rebind the names modules hold for it."""
        if self._saved:
            for owner, key, _, traced in self._saved:
                setattr(owner, key, traced)
            return
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "slipmil"
                                        or k.startswith("slipmil."))]
        for module_name, attr in TARGETS:
            span_name = f"{module_name}.{attr}"
            module = sys.modules.get(f"slipmil.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = (owner.__dict__.get(method) if isinstance(owner, type)
                   else getattr(owner, method, None))
            if raw is None:
                self.missing.append(span_name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    traced = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    traced = self._wrap(span_name, raw)
                self._saved.append((owner, method, raw, traced))
            else:
                traced = self._wrap(span_name, raw)
                self._saved += [(m, key, raw, traced) for m in loaded
                                for key, value in vars(m).items()
                                if value is raw]
        for owner, key, _, traced in self._saved:
            setattr(owner, key, traced)

    def uninstall(self) -> None:
        """Put every original back; install() wraps them again."""
        for owner, key, raw, _ in self._saved:
            setattr(owner, key, raw)

    # -- counters measured at span boundaries ------------------------------
    def _after_io_formats_read_dataset(self, args, result):
        self.counts["read_bytes"] += _file_size(args[0])

    _after_io_formats_read_prompt_lines = _after_io_formats_read_dataset
    _after_io_formats_read_report = _after_io_formats_read_dataset

    def _after_io_formats_write_dataset(self, args, result):
        self.counts["write_bytes"] += _file_size(args[0])

    _after_io_formats_write_report = _after_io_formats_write_dataset

    def _after_io_formats_export_heatmap(self, args, result):
        self.counts["write_bytes"] += _file_size(args[3]) + _file_size(args[4])

    def _after_synth_generate(self, args, result):
        self.counts["synth_patches"] += sum(b.num_patches for b in result.bags)
        self.counts["archetypes_accepted"] += len(result.tissue_descriptions)

    def _after_encoder_Vocabulary_tokenize(self, args, result):
        self.texts.add(args[1])

    def _before_trainer_train_prompts(self, args):
        self.learning_rate = args[3].learning_rate

    def _after_trainer_infonce_grad(self, args, result):
        # A step does useful work when its SGD update changes the context
        # in float64; a gradient of 1e-30 is not zero but moves nothing.
        grads = result if isinstance(result, list) else [result]
        contexts = args[4].contexts
        if any(np.any(ctx.vectors - self.learning_rate * g != ctx.vectors)
               for ctx, g in zip(contexts, grads)):
            self.counts["nonzero_grads"] += 1

    def _after_pooling_slip_pool(self, args, result):
        self.counts["patches_pooled"] += _shape(args[0])[0]

    _after_pooling_pool_average = _after_pooling_slip_pool
    _after_pooling_pool_topk = _after_pooling_slip_pool
    _after_pooling_zero_shot_scores = _after_pooling_slip_pool

    def _after_core_softmax_rows(self, args, result):
        self.counts["softmax_rows"] += _shape(result)[0]

    # -- output ------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Save every span, with the name table, as one .npz file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())

    def _spans(self):
        """Per span: name, duration and self time in seconds, parent's
        name ("" for none) and op id.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap (single thread).
        """
        a = self.arrays()
        table = np.array(self.names + [""], dtype=object)
        names = table[a["name"]]
        dur = (a["end"] - a["start"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        parents = np.where(has_parent, names[np.maximum(a["parent"], 0)]
                           if len(dur) else names, "")
        return names, dur, dur - child, parents, a["op"]

    def layer_split(self, self_s=None) -> dict:
        """Self time per layer."""
        if self_s is None:
            self_s = self._spans()[2]
        table = np.array([n.split(".", 1)[0] for n in self.names] + [""],
                         dtype=object)
        layer = table[np.frombuffer(self.name, dtype=np.int32)]
        return {name: float(self_s[layer == name].sum()) for name in LAYERS}

    def layer_metrics(self, op_wall_s: float, overhead_frac: float) -> dict:
        """Every per-layer metric over the spans recorded so far."""
        names, dur, self_s, parents, op = self._spans()
        split = self.layer_split(self_s)
        c = self.counts

        def mask(*wanted):
            return np.isin(names, wanted)

        def calls(*wanted):
            return int(mask(*wanted).sum())

        def ratio(num, den):
            return float(num) / den if den else 0.0

        read_s = float(self_s[mask(*READS)].sum())
        write_s = float(self_s[mask(*WRITES)].sum())
        outer_pool = mask(*BAG_POOLING) & ~np.isin(parents, BAG_POOLING)
        candidates = int((mask("encoder.encode_text")
                          & (parents == "synth.generate")).sum())
        steps = calls("trainer.infonce_grad")
        tokenize = calls("encoder.Vocabulary.tokenize")
        bags_scored = calls("evaluation.Pipeline.predict")
        per_bag = np.array([n.startswith("evaluation.")
                            and n not in RUN_LEVEL_EVAL for n in names],
                           dtype=bool)
        top = (parents == "") & (op >= 0)
        return {
            "cli.calls": calls("cli.main"),
            "cli.self_s": split["cli"],
            "io_formats.read_s": read_s,
            "io_formats.read_bytes": c["read_bytes"],
            "io_formats.read_mb_per_s": ratio(c["read_bytes"] / 1e6, read_s),
            "io_formats.write_s": write_s,
            "io_formats.write_bytes": c["write_bytes"],
            "io_formats.write_mb_per_s": ratio(c["write_bytes"] / 1e6,
                                               write_s),
            "synth.generate_s": split["synth"],
            "synth.patches": c["synth_patches"],
            "synth.archetype_accept_ratio": ratio(c["archetypes_accepted"],
                                                  candidates),
            "encoder.self_s": split["encoder"],
            "encoder.encode_calls": calls("encoder.encode_text",
                                          "encoder.encode_text_grad"),
            "encoder.tokenize_calls": tokenize,
            "encoder.distinct_text_ratio": ratio(len(self.texts), tokenize),
            "trainer.self_s": split["trainer"],
            "trainer.sgd_steps": steps,
            "trainer.steps_per_s": ratio(
                steps, float(dur[mask("trainer.train_prompts")].sum())),
            "trainer.nonzero_grad_frac": ratio(c["nonzero_grads"], steps),
            "pooling.self_s": split["pooling"],
            "pooling.patches_pooled": c["patches_pooled"],
            "pooling.patches_per_s": ratio(c["patches_pooled"],
                                           float(dur[outer_pool].sum())),
            "pooling.correlation_calls_per_pool": ratio(
                calls("pooling.patch_slide_correlation"),
                calls("pooling.slip_pool")),
            "pooling.computed_flops": c["flops"],
            "pooling.computed_bytes": c["bytes"],
            "core.self_s": split["core"],
            "core.softmax_calls": calls("core.softmax_rows"),
            "core.softmax_rows": c["softmax_rows"],
            "core.container_builds": calls(*CONTAINERS),
            "core.container_build_s": float(dur[mask(*CONTAINERS)].sum()),
            "evaluation.self_s": split["evaluation"],
            "evaluation.bags_scored": bags_scored,
            "evaluation.per_bag_overhead_us": ratio(
                float(self_s[per_bag].sum()) * 1e6, bags_scored),
            "trace.coverage": ratio(float(dur[top].sum()), op_wall_s),
            "trace.overhead_frac": overhead_frac,
        }
