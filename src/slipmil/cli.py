"""Command-line front-end: synth / train / eval / ablate / heatmap.

Exit codes: 0 success, 1 internal error, 2 user or input error. Seeds are
always explicit; every subcommand is deterministic under fixed flags.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .encoder import PromptContext
from .errors import InvalidSettingError, SchemaError, SlipError, check_setting
from .evaluation import evaluate, run_ablation, run_single, select_few_shot
from .io_formats import (
    export_heatmap,
    read_dataset,
    read_prompt_lines,
    read_report,
    read_text,
    write_dataset,
    write_report,
)
from .pooling import POOLING_VARIANTS
from .synth import PRESETS, SynthSpec, generate, preset_spec
from .trainer import TrainConfig, TrainedPrompts


def _load_config_file(path) -> dict:
    """Flat key = value lines mirroring the command-line flags."""
    values = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        check_setting("=" in line, f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _reject_unknown_keys(path, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    check_setting(not unknown, f"{path}: unknown key(s) "
                  f"{', '.join(map(repr, unknown))}; expected one of "
                  f"{', '.join(sorted(allowed))}")


def _config_flags(sub, path) -> list:
    """The --config file at `path` as command-line text for subcommand
    parser `sub`: key = value is --key=value, a switch set true the bare
    flag and one set false nothing. Its keys are the flags (- spelled _)
    but --help and --config; a value must be one of its flag's choices, a
    switch's being true and false. argparse parses the rest as it parses
    the command line."""
    values = _load_config_file(path)
    actions = {flag[2:].replace("-", "_"): (flag, action)
               for flag, action in sub._option_string_actions.items()
               if flag.startswith("--") and flag not in ("--help", "--config")}
    _reject_unknown_keys(path, values, actions)
    flags = []
    for key, raw in values.items():
        flag, action = actions[key]
        switch = action.nargs == 0
        choices = ("true", "false") if switch else action.choices
        if choices is not None and raw not in choices:
            raise InvalidSettingError(f"{path}: {key} = {raw!r} must be one "
                                      f"of {', '.join(choices)}")
        if not switch:
            flags.append(f"{flag}={raw}")
        elif raw == "true":
            flags.append(flag)
    return flags


def _require_seed(args) -> int:
    check_setting("seed" in vars(args),
                  "--seed is required (seeds are never implicit)")
    return args.seed


def _check_dataset(bags, num_classes, class_names, source,
                   d_v=None) -> None:
    """Reject a dataset whose class count, or d_v when given, differs from
    `source`'s."""
    check_setting(len(class_names) == num_classes,
                  f"{source}: {len(class_names)} class names, but the "
                  f"dataset declares {num_classes} classes")
    check_setting(d_v in (None, bags[0].patches.cols), f"{source}: d_v={d_v}, "
                  f"but the dataset has d_v={bags[0].patches.cols}")


def int_or_all(raw: str):
    """A shots value: a whole number, or 'all'."""
    return "all" if raw == "all" else int(raw)


def _write_prompt_file(path, lines, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for line in lines:
            fh.write(line + "\n")


# optional grid key -> (TrainConfig field, type); a key left out of the grid
# takes the TrainConfig default
GRID_SETTINGS = {"tau": ("tau", float), "lr": ("learning_rate", float),
                 "epochs": ("epochs", int), "d_t": ("d_t", int),
                 "context_length": ("context_length", int),
                 "encoder_seed": ("encoder_seed", int),
                 "topk_k": ("topk_k", int)}
# the settings block of a report: train writes every key, eval reads it back
REPORT_SETTINGS = {**GRID_SETTINGS, "shots": ("shots", int_or_all),
                   "seed": ("seed", int), "pooling": ("pooling", str)}
# synth flags that set a SynthSpec field; n_min and n_max make its n_range
SPEC_FLAGS = ("num_classes", "num_tissues", "n_min", "n_max",
              "bags_per_class", "signal_fraction", "noise_sigma", "d_v", "d_t")
# eval flags that only --zero-shot reads; --report takes them from the report
ZERO_SHOT_FLAGS = ("classes", "tau", "d_t", "encoder_seed")
# the help of each setting flag, by its dest: a report key or a SynthSpec flag
SETTING_HELP = {
    "encoder_seed": "seed of the frozen text encoder",
    "d_t": "text embedding dimension",
    "d_v": "visual embedding dimension",
    "num_classes": "classes, one keyed tissue each",
    "num_tissues": "tissue types, at least num_classes",
    "n_min": "fewest patches in a bag",
    "n_max": "most patches in a bag",
    "bags_per_class": "bags of each class",
    "signal_fraction": "share of a bag's patches near its class's tissue",
    "noise_sigma": "standard deviation of the patch noise",
    "shots": "bags per class for training, or 'all'",
    "pooling": "pooling variant",
    "tau": "softmax temperature",
    "lr": "SGD learning rate",
    "epochs": "training epochs",
    "context_length": "learnable context vectors",
    "topk_k": "k for topk pooling, clamped to N",
}
# settings whose flag is not --key
SHORT_FLAGS = {"d_t": "dt", "d_v": "dv"}


def _flag(key) -> str:
    return "--" + SHORT_FLAGS.get(key, key).replace("_", "-")


def _given(args, keys) -> dict:
    """The flags among `keys` that were given, on the command line or in
    --config; a setting flag not given is absent from `args`."""
    values = vars(args)
    return {key: values[key] for key in keys if key in values}


def _add_settings(sub, spec, *keys) -> None:
    """Flags for the settings `keys` of `spec` (TrainConfig or SynthSpec),
    each stored under its key and only when given: `spec` supplies the
    default, which the help names. The type is the report's, or else the
    default's."""
    defaults = dict(zip(("n_min", "n_max"), SynthSpec.n_range))
    for key in keys:
        field, cast = REPORT_SETTINGS.get(key, (key, None))
        default = defaults[key] if key in defaults else getattr(spec, field)
        sub.add_argument(
            _flag(key), dest=key, type=cast or type(default),
            default=argparse.SUPPRESS,
            choices=POOLING_VARIANTS if key == "pooling" else None,
            metavar=SHORT_FLAGS[key].upper() if key in SHORT_FLAGS else None,
            help=f"{SETTING_HELP[key]} (default {default})")


def _setting(source, key, raw: str, cast, error=InvalidSettingError):
    """One setting parsed from its text; a value that does not parse is an
    `error` naming the source and key."""
    try:
        return cast(raw)
    except ValueError as exc:
        raise error(
            f"{source}: {key} = {raw!r} is not a valid {cast.__name__}"
        ) from exc


def _train_config(source, values, settings, error=InvalidSettingError):
    """A TrainConfig from the `settings` (key -> (field, type)) in `values`,
    each parsed from its text as a flag is, so an int of 2.5 fails; a key left
    out takes its default. A bad value is an `error` naming `source`, once."""
    fields = {field: _setting(source, key, str(values[key]), cast, error)
              for key, (field, cast) in settings.items() if key in values}
    try:
        return TrainConfig(**fields)
    except InvalidSettingError as exc:
        raise error(f"{source}: {exc}") from exc


def _flag_config(args, **fixed) -> TrainConfig:
    """The TrainConfig of the setting flags given; `fixed` overrides."""
    return TrainConfig(**{REPORT_SETTINGS[key][0]: value for key, value
                          in _given(args, REPORT_SETTINGS).items()} | fixed)


def cmd_synth(args) -> None:
    seed = _require_seed(args)
    given = _given(args, SPEC_FLAGS)
    encoder = _given(args, ("encoder_seed",))
    if args.preset:
        check_setting(not given, f"--preset {args.preset} fixes the dataset "
                      f"spec; drop {', '.join(map(_flag, given))}")
        spec = preset_spec(args.preset, seed=seed, **encoder)
    else:
        lo, hi = SynthSpec.n_range
        spec = SynthSpec(
            n_range=(given.pop("n_min", lo), given.pop("n_max", hi)),
            seed=seed, **encoder, **given,
        )
    data = generate(spec)
    write_dataset(args.out, data.bags)
    tissues_out = args.tissues_out or args.out + ".tissues.txt"
    classes_out = args.classes_out or args.out + ".classes.txt"
    _write_prompt_file(tissues_out, data.tissue_descriptions,
                       "tissue descriptions, one per line")
    _write_prompt_file(classes_out, data.class_names,
                       "class names, one per line")
    summary = {key: getattr(spec, key) for key in (
        "num_classes", "num_tissues", "d_v", "signal_fraction", "noise_sigma",
        "seed", "encoder_seed")}
    summary.update(bags=len(data.bags), n_range=list(spec.n_range),
                   out=args.out, tissues_out=tissues_out,
                   classes_out=classes_out)
    print(json.dumps(summary, indent=2, sort_keys=True))


def cmd_train(args) -> None:
    _require_seed(args)
    cfg = _flag_config(args)
    bags, num_classes = read_dataset(args.data)
    tissue_descriptions = read_prompt_lines(args.tissues)
    class_names = read_prompt_lines(args.classes)
    _check_dataset(bags, num_classes, class_names, "--classes")
    prompts, history, metrics = run_single(
        bags, class_names, tissue_descriptions, cfg
    )
    config = {key: getattr(cfg, field)
              for key, (field, _) in REPORT_SETTINGS.items()}
    config.update(d_v=bags[0].patches.cols, eval_pool_size=metrics["num_bags"],
                  data=os.path.basename(args.data))
    context = {"shared": prompts.shared,
               "vectors": [c.vectors.tolist() for c in prompts.contexts]}
    write_report(args.out, config, history.records, metrics,
                 class_names, tissue_descriptions, context=context)
    print(json.dumps({"report": args.out, "metrics": metrics},
                     indent=2, sort_keys=True))


def _read_run(path, bags, num_classes):
    """The run a train report stores, checked against the dataset `bags` of
    `num_classes` classes: (TrainConfig, class names, tissue descriptions,
    TrainedPrompts). Every malformed field is a SchemaError."""
    doc, source = read_report(path), f"report {path}"
    block = doc["config"]
    if not isinstance(block, dict):
        raise SchemaError(f"{source}: config must be a JSON object")
    for key in (*REPORT_SETTINGS, "d_v"):
        if key not in block:
            raise SchemaError(f"{source}: config has no {key!r}")
    cfg = _train_config(source, block, REPORT_SETTINGS, SchemaError)
    if cfg.pooling not in POOLING_VARIANTS:
        raise SchemaError(f"{source}: pooling {cfg.pooling!r} trains no "
                          f"context; expected {', '.join(POOLING_VARIANTS)}")
    for key in ("class_names", "tissue_descriptions"):
        if not (isinstance(doc[key], list) and doc[key] and all(
                isinstance(s, str) and s.strip() for s in doc[key])):
            raise SchemaError(f"{source}: {key} must be a non-empty list of "
                              f"non-empty strings")
    d_v = _setting(source, "d_v", str(block["d_v"]), int, SchemaError)
    _check_dataset(bags, num_classes, doc["class_names"], source, d_v=d_v)
    context = doc.get("context")
    if not (isinstance(context, dict) and context.get("shared") is True
            and isinstance(context.get("vectors"), list)
            and len(context["vectors"]) == 1):
        raise SchemaError(f"{source}: expected one shared context")
    try:
        vectors = np.asarray(context["vectors"][0])
    except ValueError as exc:
        raise SchemaError(f"{source}: context is ragged") from exc
    if vectors.shape == (0,):  # train writes a 0 x d_t context as []
        vectors = vectors.reshape(0, cfg.d_t)
    if (vectors.shape != (cfg.context_length, cfg.d_t)
            or vectors.dtype.kind not in "iuf"
            or not np.isfinite(vectors).all()):
        raise SchemaError(f"{source}: context must be a finite context_length "
                          f"x d_t = {cfg.context_length} x {cfg.d_t} matrix")
    return (cfg, doc["class_names"], doc["tissue_descriptions"],
            TrainedPrompts([PromptContext(vectors)]))


def cmd_eval(args) -> None:
    check_setting(args.zero_shot != bool(args.report),
                  "provide exactly one of --report and --zero-shot")
    given = _given(args, ZERO_SHOT_FLAGS)
    check_setting(not (args.report and given), f"--report takes its settings "
                  f"from the report; drop {', '.join(map(_flag, given))}")
    bags, num_classes = read_dataset(args.data)
    if args.zero_shot:
        check_setting("classes" in given, "--zero-shot requires --classes")
        cfg, tissue_descriptions, prompts = (
            _flag_config(args, pooling="zero"), (), None)
        class_names = read_prompt_lines(args.classes)
        _check_dataset(bags, num_classes, class_names, "--classes")
    else:
        cfg, class_names, tissue_descriptions, prompts = _read_run(
            args.report, bags, num_classes)
    pipeline = cfg.pipeline(bags[0].patches.cols, tissue_descriptions,
                            class_names, prompts)
    _, eval_bags = select_few_shot(bags, cfg.shots)
    metrics = evaluate(eval_bags, pipeline)
    print(json.dumps({"mode": "zero-shot" if args.zero_shot else "trained",
                      "metrics": metrics}, indent=2, sort_keys=True))


def _format_table(rows) -> str:
    if not rows:
        return "(no rows)\n"
    headers = ["pooling", "shots", "tissue_set", "num_tissue_types", "seed",
               "class_averaged_accuracy", "bag_accuracy", "final_loss"]
    cells = [[f"{row[h]:.4f}" if isinstance(row[h], float) else str(row[h])
              for h in headers] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


GRID_REQUIRED = ("data", "classes", "poolings", "shots", "tissues", "seeds")


def _grid_list(path, grid, key, cast=str) -> list:
    return [_setting(path, key, v.strip(), cast)
            for v in grid[key].split(",") if v.strip()]


def cmd_ablate(args) -> None:
    grid = _load_config_file(args.grid)
    for key in GRID_REQUIRED:
        check_setting(key in grid, f"grid file missing required key {key!r}")
    _reject_unknown_keys(args.grid, grid, GRID_REQUIRED + tuple(GRID_SETTINGS))
    poolings = _grid_list(args.grid, grid, "poolings")
    shots_list = _grid_list(args.grid, grid, "shots", int)
    seeds = _grid_list(args.grid, grid, "seeds", int)
    base_cfg = _train_config(args.grid, grid, GRID_SETTINGS)
    bags, num_classes = read_dataset(grid["data"])
    class_names = read_prompt_lines(grid["classes"])
    _check_dataset(bags, num_classes, class_names, f"grid {args.grid}")
    tissue_sets = [(os.path.basename(path), read_prompt_lines(path))
                   for path in _grid_list(args.grid, grid, "tissues")]
    rows = run_ablation(bags, class_names, poolings, shots_list,
                        tissue_sets, seeds, base_cfg)
    table = _format_table(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(args.out + ".txt", "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table, end="")


def cmd_heatmap(args) -> None:
    bags, num_classes = read_dataset(args.data)
    check_setting(0 <= args.bag < len(bags),
                  f"--bag {args.bag} outside [0, {len(bags)})")
    bag = bags[args.bag]
    cfg = _flag_config(args)
    corr = cfg.pipeline(bag.patches.cols, read_prompt_lines(args.tissues),
                        read_prompt_lines(args.classes)).correlation(bag)
    csv_path = args.out_prefix + ".csv"
    pgm_path = args.out_prefix + ".pgm"
    top, bottom = export_heatmap(bag, corr.T, args.class_index,
                                 csv_path, pgm_path)
    print(json.dumps({
        "csv": csv_path, "pgm": pgm_path,
        "top5": top, "bottom5": bottom,
    }, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipmil",
        description="Dual-similarity pooling and few-shot prompt training "
                    "for bag-of-patches classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key = value file of defaults")
        return p

    def seed(p):
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="required; never implicit")

    p = command("synth", cmd_synth, "generate a synthetic dataset")
    _add_settings(p, SynthSpec, "encoder_seed", "d_t", "d_v")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named preset; the spec flags below (and --dv, "
                        "--dt) cannot be combined with it")
    _add_settings(p, SynthSpec, *SPEC_FLAGS[:-2])
    seed(p)
    p.add_argument("--out", required=True)
    p.add_argument("--tissues-out")
    p.add_argument("--classes-out")

    p = command("train", cmd_train, "few-shot prompt training + evaluation")
    _add_settings(p, TrainConfig, "encoder_seed", "d_t")
    p.add_argument("--data", required=True)
    p.add_argument("--tissues", required=True)
    p.add_argument("--classes", required=True)
    _add_settings(p, TrainConfig, "shots", "pooling", "tau", "lr", "epochs",
                  "context_length", "topk_k")
    seed(p)
    p.add_argument("--out", required=True, help="report JSON path")

    p = command("eval", cmd_eval, "evaluate from a report or zero-shot")
    _add_settings(p, TrainConfig, "encoder_seed", "d_t")
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="report with trained context; the "
                                    "report fixes every other setting")
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--classes", default=argparse.SUPPRESS,
                   help="class names file (zero-shot mode)")
    _add_settings(p, TrainConfig, "tau")

    p = command("ablate", cmd_ablate, "run a pooling/shots/tissues grid")
    p.add_argument("--grid", required=True,
                   help="key = value grid file (data, classes, poolings, "
                        "shots, tissues, seeds, ...)")
    p.add_argument("--out", help="JSON rows path; .txt table alongside")

    p = command("heatmap", cmd_heatmap, "export per-patch scores for one bag")
    _add_settings(p, TrainConfig, "encoder_seed", "d_t")
    p.add_argument("--data", required=True)
    p.add_argument("--bag", type=int, required=True)
    p.add_argument("--class-index", type=int, required=True)
    p.add_argument("--tissues", required=True)
    p.add_argument("--classes", required=True)
    _add_settings(p, TrainConfig, "tau")
    p.add_argument("--out-prefix", required=True)

    parser._command_parsers = dict(sub.choices)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process; nothing writes to
    it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # parsed again, the file's flags before the given
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(
                parser._command_parsers[args.command], args.config),
                *argv[at:]])
        args.func(args)
        return 0
    except (SlipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
