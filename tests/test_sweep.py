"""Property sweep over the command line: every REPORT_SETTINGS and SynthSpec
setting is drawn across its accepted range and past its edges, and each
draw runs `slipmil.cli.main` in process on a tiny dataset, with every
warning an error. A run exits 0 with finite results or 2 with a typed
error; it never exits 1 with an internal error.

Settings that drive allocation (patches per bag, bags, d_v, d_t,
context_length, epochs) are drawn small; their caps are reached only with
values that validation rejects before anything is allocated.

A second sweep builds TrainConfig and SynthSpec directly, with every field
drawn at once from plausible, wrong and odd values.
"""
import contextlib
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slipmil.cli import REPORT_SETTINGS, SPEC_FLAGS, _flag, main
from slipmil.core import (MAX_BAGS, MAX_CONTEXT_LENGTH, MAX_D_T, MAX_D_V,
                          MAX_PATCHES)
from slipmil.errors import InvalidSettingError
from slipmil.io_formats import read_dataset
from slipmil.pooling import POOLING_VARIANTS, POOLINGS
from slipmil.synth import SynthSpec
from slipmil.trainer import TrainConfig

SWEEP = settings(max_examples=300, derandomize=True, database=None,
                 deadline=None)
FLOAT_MAX = float(np.finfo(float).max)


def log_uniform(lo: float, hi: float):
    """Positive floats whose decimal exponent is uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def sweep(accepted: dict, edges: dict, required=()):
    """Settings drawn each from its `accepted` range, or left out (a flag
    not given) unless `required`; then none of them, or one chosen
    uniformly, set to one of its `edges`."""
    drawn = st.fixed_dictionaries(
        {k: accepted[k] for k in required},
        optional={k: v for k, v in accepted.items() if k not in required})

    def with_edge(key):
        return drawn if key is None else st.tuples(
            drawn, st.sampled_from(edges[key])).map(
                lambda d: {**d[0], key: d[1]})
    return st.sampled_from([None, *edges]).flatmap(with_edge)


SEED = st.integers(0, 2 ** 64)
SEED_EDGES = [0, 2 ** 200, -1]
D_T_EDGES = [1, 0, -1, MAX_D_T + 1, 10 ** 9]
TAU_EDGES = [2.2251e-308, 2.2e-308, 5.6e-309, 1e-309, 5e-324, 0.0, -0.0,
             -1.0, FLOAT_MAX, math.inf, math.nan]
TRAIN = {
    "tau": log_uniform(-307, 3),
    "lr": log_uniform(-12, 3),
    "epochs": st.integers(1, 3),
    "d_t": st.integers(1, 8),
    "context_length": st.integers(0, 6),
    "encoder_seed": SEED,
    "topk_k": st.integers(1, 12),
    "shots": st.integers(1, 3) | st.just("all"),
    "seed": SEED,
    "pooling": st.sampled_from(POOLING_VARIANTS),
}
TRAIN_EDGES = {
    "tau": TAU_EDGES,
    "lr": [0.0, 1e200, FLOAT_MAX, math.inf, math.nan, -1e-300],
    "epochs": [0, -1],
    "d_t": D_T_EDGES,
    "context_length": [-1, MAX_CONTEXT_LENGTH + 1, 10 ** 9],
    "encoder_seed": SEED_EDGES,
    "topk_k": [0, -1, 2 ** 63, 10 ** 30],
    "shots": [0, -1, 4, 10 ** 30],
    "seed": SEED_EDGES,
    "pooling": ["zero", "bogus"],
}
SYNTH = {
    "num_classes": st.integers(1, 3),
    "num_tissues": st.integers(2, 5),
    "n_min": st.integers(1, 3),
    "n_max": st.integers(3, 6),
    "bags_per_class": st.integers(1, 3),
    "signal_fraction": st.floats(0, 1),
    "noise_sigma": log_uniform(-300, 300),
    "d_v": st.integers(1, 8),
    "d_t": st.integers(1, 8),
    "encoder_seed": SEED,
}
SYNTH_EDGES = {
    "num_classes": [0, -1, MAX_BAGS + 1],
    "num_tissues": [1, 0, -1],
    "n_min": [0, -1, 7, MAX_PATCHES + 1],
    "n_max": [1, 0, -1, MAX_PATCHES + 1],
    "bags_per_class": [0, -1, MAX_BAGS + 1],
    "signal_fraction": [1.0, 5e-324, -0.1, 1.5, math.inf, math.nan],
    "noise_sigma": [0.0, -1.0, 1e150, 1e160, FLOAT_MAX, math.inf, math.nan],
    "d_v": [0, -1, MAX_D_V + 1],
    "d_t": D_T_EDGES,
    "encoder_seed": SEED_EDGES,
}
# pairs whose defaults (8 <= n <= 16, three classes and tissues) the draws
# above could cross when only one of the two is given
SYNTH_RANGES = ("n_min", "n_max", "num_classes", "num_tissues")
SCORE = ("tau", "d_t", "encoder_seed")
assert set(TRAIN) == set(TRAIN_EDGES) == set(REPORT_SETTINGS)
assert set(SYNTH) == set(SYNTH_EDGES) == {*SPEC_FLAGS, "encoder_seed"}


def flags(draw: dict) -> list:
    return [f"{_flag(key)}={value}" for key, value in draw.items()]


def run(*argv):
    """main(argv) with every warning an error: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = main([str(arg) for arg in argv])
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def finite(value) -> bool:
    """Every number in a JSON value is finite."""
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, list):
        return all(map(finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two classes of three bags of 2-5 patches, d_v = 4."""
    work = tmp_path_factory.mktemp("sweep")
    data = work / "tiny.bin"
    run("synth", "--seed", 0, "--num-classes", 2, "--num-tissues", 3,
        "--bags-per-class", 3, "--n-min", 2, "--n-max", 5, "--dv", 4,
        "--out", data)
    return {"dir": work, "data": data, "tissues": f"{data}.tissues.txt",
            "classes": f"{data}.classes.txt"}


@SWEEP
@given(sweep(SYNTH, SYNTH_EDGES, required=SYNTH_RANGES),
       st.sampled_from(SEED_EDGES) | SEED)
@example({"num_classes": 1, "num_tissues": 1}, 2)
@example({"noise_sigma": 1e300}, 2)
@example({"num_classes": 2, "num_tissues": 2, "n_min": MAX_PATCHES + 1,
          "n_max": MAX_PATCHES + 1, "bags_per_class": 1, "d_v": 4}, 2)
def test_synth(tiny, spec, seed):
    out = tiny["dir"] / "synth.bin"
    out.unlink(missing_ok=True)
    code, stdout, _ = run("synth", "--seed", seed, *flags(spec), "--out", out)
    assert out.exists() == (code == 0)
    if code == 0:
        summary = json.loads(stdout)
        bags, num_classes = read_dataset(out)
        assert num_classes == summary["num_classes"]
        assert len(bags) == summary["bags"]
        for bag in bags:  # float32 on disk
            norms = np.linalg.norm(bag.patches.data, axis=1)
            assert np.all(np.abs(norms - 1) < 1e-6)


@SWEEP
@given(sweep(TRAIN, TRAIN_EDGES, required=("pooling",)))
@example({"context_length": 10 ** 9})
@example({"pooling": "topk", "topk_k": 2 ** 63})
def test_train_then_eval(tiny, setting):
    report = tiny["dir"] / "train.json"
    report.unlink(missing_ok=True)
    # a seed drawn overrides the 0 before it: the last flag given wins
    code, stdout, _ = run("train", "--seed=0", "--data", tiny["data"],
                          "--tissues", tiny["tissues"], "--classes",
                          tiny["classes"], *flags(setting), "--out", report)
    assert report.exists() == (code == 0)
    if code == 0:
        metrics = json.loads(stdout)["metrics"]
        doc = json.loads(report.read_text())
        assert finite(metrics) and finite(doc["history"])
        assert finite(doc["context"])
        _, stdout, _ = run("eval", "--data", tiny["data"], "--report", report)
        assert json.loads(stdout)["metrics"] == metrics


@SWEEP
@given(sweep({key: TRAIN[key] for key in SCORE},
             {key: TRAIN_EDGES[key] for key in SCORE}))
@example({"d_t": 10 ** 9})
def test_zero_shot_and_heatmap(tiny, setting):
    code, stdout, _ = run("eval", "--data", tiny["data"], "--zero-shot",
                          "--classes", tiny["classes"], *flags(setting))
    if code == 0:
        assert finite(json.loads(stdout)["metrics"])
    prefix = tiny["dir"] / "heatmap"
    code, _, _ = run("heatmap", "--data", tiny["data"], "--bag", 0,
                     "--class-index", 1, "--tissues", tiny["tissues"],
                     "--classes", tiny["classes"], *flags(setting),
                     "--out-prefix", prefix)
    if code == 0:
        rows = (prefix.parent / "heatmap.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(row.split(",")[2])) for row in rows)


# Every field of a settings class drawn at once from wrong and edge values:
# a draw builds an object whose fields are plain numbers inside its table's
# ranges, or raises InvalidSettingError; any other outcome fails.
NUMBERS = (st.integers(-3, 40) | st.integers()
           | st.integers(2 ** 64, 2 ** 9999) | st.floats()
           | st.sampled_from([-0.0, 5e-324, 2.2e-308, math.nan, math.inf,
                              -math.inf])
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | st.integers(0, 255).map(np.uint8) | st.floats().map(np.float64)
           | st.floats(width=32).map(np.float32))
ODD = (st.text(max_size=3) | st.none() | st.booleans()
       | st.booleans().map(np.bool_) | st.sampled_from(["all", *POOLINGS])
       | st.tuples(NUMBERS) | st.tuples(NUMBERS, NUMBERS)
       | st.tuples(NUMBERS, NUMBERS, NUMBERS)
       | st.lists(st.integers(1, 40), min_size=2, max_size=2))
SETTINGS_SWEEP = settings(max_examples=250, derandomize=True, database=None,
                          deadline=None)


def plausible(kind, *words):
    """Values of `kind` near the usual ranges, numpy scalars included."""
    if isinstance(kind, tuple):
        return st.tuples(*map(plausible, kind))
    small = (st.integers(0, 64) if kind is int else st.floats(0, 2))
    return (small | small.map(np.int64 if kind is int else np.float32)
            | st.sampled_from(words or [0]))


def settings_draw(cls):
    """Every field of `cls`, each left out, plausible or wrong and odd."""
    def field(name):
        good = (plausible(*cls.SETTINGS[name]) if name in cls.SETTINGS
                else st.sampled_from(POOLINGS))
        return st.integers(0, 3).flatmap(
            lambda i: good if i else NUMBERS | ODD)
    return st.fixed_dictionaries({}, optional={
        f.name: field(f.name) for f in dataclasses.fields(cls)})


def within(value, interval: str) -> bool:
    """`value` lies in `interval`, written "[lo, hi]" with "(" or ")" at an
    open end."""
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    return ((lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi))


def built_or_refused(cls, kwargs):
    """cls(**kwargs), or None when it raises InvalidSettingError; each
    field in cls.SETTINGS is then a plain value of its kind in its range,
    equal to the value given, which was no bool."""
    try:
        obj = cls(**kwargs)
    except InvalidSettingError:
        return None
    for name, (kind, interval, *words) in cls.SETTINGS.items():
        value = getattr(obj, name)
        if type(value) is str and value in words:
            continue
        items = value if isinstance(kind, tuple) else (value,)
        kinds = kind if isinstance(kind, tuple) else (kind,)
        assert type(items) is tuple and len(items) == len(kinds), name
        for item, item_kind in zip(items, kinds):
            assert type(item) is item_kind, (name, value)
            assert within(item, interval), (name, value)
        given = kwargs.get(name, value)
        given = tuple(given) if isinstance(kind, tuple) else (given,)
        assert given == items and bool not in map(type, given), (name, value)
    return obj


@SETTINGS_SWEEP
@given(settings_draw(TrainConfig))
# the wrong types test_out_of_range_config holds, each alone
@example({"epochs": 2.5})
@example({"seed": 1.5})
@example({"topk_k": 2.5})
@example({"tau": "0.01"})
@example({"tau": None})
@example({"learning_rate": "2e-4"})
@example({"epochs": "3"})
# a bool is not 1, and a numpy integer is stored as an int
@example({"seed": True})
@example({"shots": True})
@example({"tau": True})
@example({"epochs": np.int64(3)})
@example({"shots": np.uint8(2)})
def test_train_config_fields(kwargs):
    cfg = built_or_refused(TrainConfig, kwargs)
    if cfg is not None:
        assert cfg.pooling in POOLINGS
        assert 4 * (1 + 1e-9) / cfg.tau < math.inf


@SETTINGS_SWEEP
@given(settings_draw(SynthSpec))
# the wrong types test_out_of_range_spec holds, each alone
@example({"n_range": (2.5, 4)})
@example({"n_range": (2, 4.0)})
@example({"num_classes": 2.5})
@example({"encoder_seed": "42"})
@example({"signal_fraction": "0.5"})
@example({"noise_sigma": None})
# n_range that is no pair, and bools
@example({"n_range": 5})
@example({"n_range": None})
@example({"n_range": (4,)})
@example({"n_range": (1, 2, 3)})
@example({"d_v": True})
@example({"n_range": [np.int64(2), 3]})
def test_synth_spec_fields(kwargs):
    spec = built_or_refused(SynthSpec, kwargs)
    if spec is not None:
        assert spec.num_tissues >= spec.num_classes
        assert spec.num_classes * spec.bags_per_class <= MAX_BAGS
        assert spec.n_range[0] <= spec.n_range[1]
