"""The three workloads: inputs made from a seed, set-up, ops and checks.

Every workload is a closed loop with one client: an op starts when the
previous one has finished. Ops are grouped in passes; a run always finishes
the pass it is in, so on fewshot-grid and large-bag-scoring every run times
whole copies of the same op set.

Ops go through the public API and the in-process CLI. They look names up on
the slipmil modules at call time, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import slipmil
from slipmil import cli, evaluation, io_formats
from slipmil.errors import RejectionExhaustedError

import checks

TAU = 0.01


@dataclass
class Record:
    """One timed op and the outcome of its checks."""

    op: object
    pass_index: int
    latency: float = 0.0
    ref: float = 0.0  # time of the reference kernel run right after the op
    work: int = 0  # patches scored, or generated + written + read back
    error: str | None = None
    mismatch: bool = False  # the op completed but its output is wrong

    def fail(self, message: str, mismatch: bool) -> None:
        self.error = message
        self.mismatch = mismatch


def run_cli(argv) -> tuple[int, str, str]:
    """`slipmil.cli.main` with its output captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def needle(seed: int):
    """The needle preset for the first usable seed of seed, seed + 1e6,
    ...: (dataset seed, dataset, seeds skipped). The preset's rejection
    sampler gives up on about 1% of seeds (19 and 53 among the first 100);
    a skipped seed is reported with the result."""
    skipped = []
    for candidate in range(seed, seed + 10 ** 8, 10 ** 6):
        try:
            spec = slipmil.preset_spec("needle", seed=candidate)
            return candidate, slipmil.generate(spec), skipped
        except RejectionExhaustedError:
            skipped.append(candidate)
    raise RejectionExhaustedError(f"no usable needle seed from {seed}")


class Workload:
    name = ""
    min_passes = 1  # every run times at least this many passes
    trace_passes = 1  # passes run both untraced and traced by --trace 1

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work, self.seed, self.tiny = work, seed, tiny
        self.problems: list[str] = []  # failed checks outside timed ops
        self.checks_run = 0

    def prepare(self) -> None:
        """Make the inputs; not timed."""

    def setup(self) -> None:
        """Work done once before the ops; timed as setup_s."""

    def pass_ops(self, p: int) -> list:
        raise NotImplementedError

    def begin_pass(self, p: int) -> None:
        """Untimed preparation of one pass."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out, rec: Record) -> None:
        """Check one op's output right after it; not timed."""

    def final_check(self, records: list[Record]) -> None:
        """Checks that need every op; not timed."""

    def detail(self, records: list[Record]) -> dict:
        return {}


# -- fewshot-grid ------------------------------------------------------------
POOLINGS = ("slip", "topk", "avg")
SHOTS = (1, 2, 4, 8)
MINORITY_TAU = 0.001
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("fewshot_reference.json")
# The second needle dataset of workload seed s is drawn from s + this; the
# first from s itself.
SECOND_DATASET_OFFSET = 10 ** 9


def train_seeds(seed: int, tiny: bool) -> tuple:
    """One training seed per needle dataset: the first trains on dataset 0,
    the second on dataset 1."""
    return (2 * seed + 1, 2 * seed + 2)[:1 if tiny else 2]


def fewshot_ops(seed: int, tiny: bool) -> list[tuple]:
    """(pooling, shots, training seed, tau) for one pass, in seeded order."""
    seeds = train_seeds(seed, tiny)
    shots = SHOTS[:2] if tiny else SHOTS
    ops = [(p, s, t, TAU) for p in POOLINGS for s in shots for t in seeds]
    ops += [(p, 1, t, MINORITY_TAU) for p in POOLINGS for t in seeds]
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[int(i)] for i in order]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {(e["pooling"], e["shots"], e["seed"], e["tau"]): e
            for e in doc["ops"]}


class FewshotGrid(Workload):
    """The paper's main experiment: each op is one CLI `train` on needle,
    which trains prompts on the few-shot split and evaluates the held-out
    pool. The grid crosses pooling, shots and two needle datasets, each
    with its own training seed, plus a tau = 0.001 slice. Two datasets
    rather than one halve how much one draw of class names and bag sizes
    sets the cost of a run. Encoder and trainer do most of the work."""

    name = "fewshot-grid"
    min_passes = 4
    trace_passes = 2

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.epochs = 2 if tiny else 50
        self.ops = fewshot_ops(seed, tiny)
        self.data = {t: work / f"needle-{i}.bin"
                     for i, t in enumerate(train_seeds(seed, tiny))}
        self.first: dict = {}
        self.reference = load_reference()

    def choose_datasets(self) -> None:
        """The needle dataset seeds, the patches in each, and any seeds the
        preset's sampler gave up on."""
        self.data_seeds, self.patches, self.skipped = {}, {}, []
        for i, t in enumerate(self.data):
            data_seed, dataset, skipped = needle(
                self.seed + i * SECOND_DATASET_OFFSET)
            self.data_seeds[t] = data_seed
            self.patches[t] = sum(bag.num_patches for bag in dataset.bags)
            self.skipped += skipped

    def _train(self, data: Path, op, epochs: int, out: Path):
        pooling, shots, train_seed, tau = op
        return run_cli(["train", "--data", data,
                        "--tissues", f"{data}.tissues.txt",
                        "--classes", f"{data}.classes.txt",
                        "--shots", shots, "--seed", train_seed,
                        "--pooling", pooling, "--tau", tau,
                        "--epochs", epochs, "--out", out])

    def _synth(self, data: Path, seed: int) -> None:
        rc, _, err = run_cli(["synth", "--preset", "needle", "--seed", seed,
                              "--out", data])
        if rc != 0:
            raise RuntimeError(f"synth exited {rc}: {_last_line(err)}")

    def prepare(self):
        # The recorded shots=1 slice of the reference seed runs on every
        # workload seed, so the recorded values are checked on each run.
        self.choose_datasets()
        data = self.work / "reference.bin"
        self._synth(data, REFERENCE_SEED)
        for key in fewshot_ops(REFERENCE_SEED, tiny=False):
            if key[1] != 1 or key[2] != 2 * REFERENCE_SEED + 1:
                continue
            report = self.work / "reference.json"
            rc, _, _ = self._train(data, key, 50, report)
            doc = _read_report(report) if rc == 0 else None
            problem = checks.reference_mismatch(doc, self.reference[key])
            self.checks_run += 1
            if problem:
                self.problems.append(f"reference {key}: {problem}")

    def setup(self):
        for t, data in self.data.items():
            self._synth(data, self.data_seeds[t])

    def pass_ops(self, p):
        return self.ops

    def run(self, op):
        return self._train(self.data[op[2]], op, self.epochs,
                           self.work / "report.json")

    def check(self, op, out, rec):
        rc, _, err = out
        rec.work = self.patches[op[2]]
        recorded = self.seed == REFERENCE_SEED and not self.tiny
        if rc != 0:
            rec.fail(f"exit {rc}: {_last_line(err)}", mismatch=recorded
                     and self.reference[op]["rc"] == 0)
            return
        self.checks_run += 1
        doc = _read_report(self.work / "report.json")
        problem = checks.report_problem(doc, op[1], self.epochs)
        first = self.first.setdefault(op, doc)
        if problem is None and doc != first:
            problem = "report differs from the same op in the first pass"
        if problem is None and recorded:
            problem = checks.reference_mismatch(doc, self.reference[op])
        if problem:
            rec.fail(problem, mismatch=True)

    def detail(self, records):
        by_slice: dict = {}
        for r in records:
            pooling, shots, _, tau = r.op
            entry = by_slice.setdefault(f"{pooling}/shots={shots}/tau={tau}",
                                        {"ok_ms": [], "failed": 0})
            if r.error is None:
                entry["ok_ms"].append(r.latency * 1e3)
            else:
                entry["failed"] += 1
        return {"dataset_seeds": sorted(self.data_seeds.values()),
                "skipped_dataset_seeds": self.skipped, "slices": {
            k: {"p50_ms": round(float(np.median(v["ok_ms"])), 2)
                if v["ok_ms"] else None, "failed": v["failed"]}
            for k, v in sorted(by_slice.items())}}


def _read_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("created_at", None)
    return doc


# -- large-bag-scoring ---------------------------------------------------------
def bag_sizes(tiny: bool) -> list[int]:
    """Geometric from 1k to 50k patches: float64 bags of 0.25 to 12.8 MB.
    An odd count puts the median latency in the middle of one bag's
    repeats rather than between two bag sizes."""
    if tiny:
        return [200, 600, 2000]
    return [int(round(1000 * 50 ** (i / 16))) for i in range(17)]


def _needle_bag(seed: int, archetypes: np.ndarray, n: int, label: int,
                num_classes: int, pid: str):
    """A needle-like bag: 10% of patches near the class's tissue, the rest
    near one distractor tissue, Gaussian noise 0.1, unit rows."""
    def make():
        rng = np.random.default_rng(seed)
        distractor = int(rng.integers(num_classes, archetypes.shape[0]))
        n_signal = max(1, round(0.1 * n))
        base = np.repeat(archetypes[[label, distractor]],
                         [n_signal, n - n_signal], axis=0)
        v = base + 0.1 * rng.standard_normal(base.shape)
        return v / np.linalg.norm(v, axis=1, keepdims=True), label, pid
    return make


class LargeBagScoring(Workload):
    """Each op is `evaluate` on one large bag with a slip Pipeline built
    once from prompts trained while the inputs are made. Bags of 1k to 50k
    patches straddle the L2 cache. Pooling, core and evaluation do most of
    the work; encoder and trainer almost none."""

    name = "large-bag-scoring"
    min_passes = 7
    trace_passes = 20

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.data = work / "large.bin"
        self.report = work / "prompts.json"
        self.preds: dict[int, list] = {}

    def prepare(self):
        self.data_seed, small, self.skipped = needle(self.seed)
        train, _ = slipmil.select_few_shot(small.bags, 2)
        cfg = slipmil.TrainConfig(shots=2, seed=self.seed, pooling="slip",
                                  tau=TAU, epochs=2 if self.tiny else 50)
        prompts, history = slipmil.train_prompts(
            train, small.tissue_descriptions, small.class_names, cfg)
        io_formats.write_report(
            self.report, {"encoder_seed": cfg.encoder_seed, "tau": TAU},
            history.records, {}, small.class_names, small.tissue_descriptions,
            context={"shared": prompts.shared,
                     "vectors": [c.vectors.tolist() for c in prompts.contexts]})
        for suffix, lines in (("tissues", small.tissue_descriptions),
                              ("classes", small.class_names)):
            with open(f"{self.data}.{suffix}.txt", "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
        rng = np.random.default_rng(self.seed)
        sizes = bag_sizes(self.tiny)
        num_classes = len(small.class_names)
        labels = rng.permutation(np.arange(len(sizes)) % num_classes)
        seeds = rng.integers(0, 2 ** 63, size=len(sizes))
        makers = [_needle_bag(int(s), small.archetypes, n, int(c),
                              num_classes, f"slide{i:03d}")
                  for i, (s, n, c) in enumerate(zip(seeds, sizes, labels))]
        checks.write_dataset(self.data, makers, small.archetypes.shape[1],
                             num_classes)
        self.order = [int(i) for i in rng.permutation(len(sizes))]

    def setup(self):
        self.bags = None  # one copy in memory across the repeated set-ups
        self.bags, _ = io_formats.read_dataset(self.data)
        descriptions = io_formats.read_prompt_lines(f"{self.data}.tissues.txt")
        class_names = io_formats.read_prompt_lines(f"{self.data}.classes.txt")
        doc = io_formats.read_report(self.report)
        weights = slipmil.FrozenEncoderWeights.create(
            int(doc["config"]["encoder_seed"]))
        context = doc["context"]
        prompts = slipmil.TrainedPrompts(
            [slipmil.PromptContext(np.asarray(v)) for v in context["vectors"]],
            shared=context["shared"])
        self.pipeline_args = dict(
            weights=weights,
            tissues=slipmil.TissuePromptSet.from_descriptions(weights,
                                                              descriptions),
            class_names=tuple(class_names), tau=TAU, pooling="slip",
            prompts=prompts)

    def pass_ops(self, p):
        return self.order

    def begin_pass(self, p):
        # A fresh pipeline per pass: no op rescores a bag in one pipeline.
        self.pipeline = evaluation.Pipeline(**self.pipeline_args)

    def run(self, op):
        return evaluation.evaluate([self.bags[op]], self.pipeline)

    def check(self, op, out, rec):
        rec.work = self.bags[op].num_patches
        confusion = np.asarray(out["confusion_matrix"])
        if out["num_bags"] != 1 or confusion.sum() != 1:
            rec.fail("evaluate did not score exactly one bag", mismatch=True)
            return
        pred = int(np.argmax(confusion[self.bags[op].label]))
        self.preds.setdefault(op, []).append((rec, pred))

    def final_check(self, records):
        """Re-derive every bag's pooled columns and label in plain numpy."""
        parsed = checks.parse_dataset(self.data)
        problem = checks.same_bags(self.bags, parsed)
        pipeline = evaluation.Pipeline(**self.pipeline_args)
        tissue = pipeline.tissues.embeddings.data
        frozen = pipeline.pooling_classes().embeddings.data
        scoring = pipeline.scoring_classes().embeddings.data
        for i, scored in self.preds.items():
            self.checks_run += 1
            reference = checks.slip_columns(parsed[i][0], tissue, frozen, TAU)
            label = checks.classify(reference, scoring)
            bag_problem = problem or checks.pooled_mismatch(
                pipeline.slide_feature(self.bags[i]).columns, reference)
            for rec, pred in scored:
                if bag_problem or pred != label:
                    rec.fail(bag_problem or f"label {pred} != reference "
                             f"{label}", mismatch=True)

    def detail(self, records):
        ok = [r for r in records if r.error is None]
        per_100k = [r.latency / r.work * 1e5 * 1e3 for r in ok]
        return {"bag_sizes": bag_sizes(self.tiny),
                "dataset_seed": self.data_seed,
                "skipped_dataset_seeds": self.skipped,
                "ms_per_100k_patches_p50": round(float(np.median(per_100k)),
                                                 2) if ok else None}


# -- synth-roundtrip -----------------------------------------------------------
# Needle has six tissues, for which the archetype rejection sampler gives up
# on about 1% of seeds; with five it succeeded on 400 of 400, and every op
# here must succeed.
TISSUES = 5
SEED_STRIDE = 1_000_000  # op seeds of one workload seed never overlap


class SynthRoundtrip(Workload):
    """Each op is a CLI `synth` of a needle-like dataset with thousands of
    patches per bag, then `read_dataset` of the file, with a distinct seed
    per op. Synth and io_formats do most of the work."""

    name = "synth-roundtrip"
    ops_per_pass = 8
    min_passes = 13
    trace_passes = 5

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.n_range = (50, 100) if tiny else (1000, 3000)
        if tiny:
            self.ops_per_pass = 2
        self.path = work / "synth.bin"

    def _flags(self, op_seed: int, out: Path) -> list:
        lo, hi = self.n_range
        return ["synth", "--num-classes", 3, "--num-tissues", TISSUES,
                "--n-min", lo, "--n-max", hi, "--bags-per-class", 2,
                "--signal-fraction", 0.1, "--noise-sigma", 0.1,
                "--seed", op_seed, "--out", out]

    def pass_ops(self, p):
        first = self.seed * SEED_STRIDE + p * self.ops_per_pass
        return list(range(first, first + self.ops_per_pass))

    def run(self, op):
        rc, _, err = run_cli(self._flags(op, self.path))
        if rc != 0:
            return rc, err, None
        bags, _ = io_formats.read_dataset(self.path)
        return rc, err, bags

    def check(self, op, out, rec):
        rc, err, bags = out
        if rc != 0:
            rec.fail(f"exit {rc}: {_last_line(err)}", mismatch=False)
            return
        self.checks_run += 1
        rec.work = sum(b.num_patches for b in bags)
        lo, hi = self.n_range
        problem = checks.same_bags(bags, checks.parse_dataset(self.path))
        if problem is None and (
                sorted(b.label for b in bags) != [0, 0, 1, 1, 2, 2]
                or any(not lo <= b.num_patches <= hi for b in bags)):
            problem = "bag labels or sizes outside the requested spec"
        first_of_pass = (op % SEED_STRIDE) % self.ops_per_pass == 0
        if problem is None and first_of_pass:
            problem = self._regenerate(op, bags)
        if problem:
            rec.fail(problem, mismatch=True)

    def _regenerate(self, op: int, bags) -> str | None:
        """The first op of each pass is synthesized twice more: in process,
        to compare with the read-back, and through the CLI, to compare
        files byte for byte."""
        spec = slipmil.SynthSpec(num_classes=3, num_tissues=TISSUES,
                                 n_range=self.n_range, bags_per_class=2,
                                 signal_fraction=0.1, noise_sigma=0.1,
                                 seed=op)
        generated = slipmil.generate(spec).bags
        for i, (got, want) in enumerate(zip(bags, generated)):
            rounded = want.patches.data.astype(np.float32).astype(np.float64)
            if not (np.array_equal(got.patches.data, rounded)
                    and tuple(got.coords) == tuple(want.coords)
                    and (got.label, got.patient_id)
                    == (want.label, want.patient_id)):
                return f"bag {i} read back differs from the generated bag"
        if len(bags) != len(generated):
            return "read back a different number of bags than generated"
        again = self.work / "synth-again.bin"
        rc, _, err = run_cli(self._flags(op, again))
        if rc != 0:
            return f"second synth exited {rc}: {_last_line(err)}"
        for suffix in ("", ".tissues.txt", ".classes.txt"):
            if (Path(f"{self.path}{suffix}").read_bytes()
                    != Path(f"{again}{suffix}").read_bytes()):
                return f"two syntheses of seed {op} differ in *{suffix}"
        return None

    def detail(self, records):
        ok = [r for r in records if r.error is None]
        return {"n_range": list(self.n_range),
                "ms_per_240k_patches": round(
                    sum(r.latency for r in ok) / sum(r.work for r in ok)
                    * 240_000 * 1e3, 1) if ok else None}


WORKLOADS = {w.name: w for w in (FewshotGrid, LargeBagScoring, SynthRoundtrip)}
