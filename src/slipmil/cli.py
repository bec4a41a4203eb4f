"""Command-line front-end: synth / train / eval / ablate / heatmap.

Exit codes: 0 success, 1 internal error, 2 user or input error. Seeds are
always explicit; every subcommand is deterministic under fixed flags.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .encoder import FrozenEncoderWeights, PromptContext
from .errors import InvalidSettingError, SchemaError, SlipError
from .evaluation import evaluate, run_ablation, run_single, select_few_shot
from .io_formats import (
    export_heatmap,
    read_dataset,
    read_prompt_lines,
    read_report,
    write_dataset,
    write_report,
)
from .pooling import POOLING_VARIANTS, Pipeline
from .synth import PRESETS, SynthSpec, generate, preset_spec
from .trainer import TrainConfig, TrainedPrompts


class CliInputError(SlipError):
    """Bad flag combination or missing required value."""


def _load_config_file(path) -> dict:
    """Flat key = value lines mirroring the command-line flags."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliInputError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _reject_unknown_keys(path, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise CliInputError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected one of {', '.join(sorted(allowed))}"
        )


def _apply_config_defaults(parser, args_list):
    """Install --config values as defaults of the chosen subcommand, whose
    flags (with - spelled _) are the only keys accepted. argparse parses a
    string default with the flag's own type, as if it were given on the
    command line, but checks only given values against the flag's choices;
    here a switch's choices are true and false."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(args_list)
    sub = parser._command_parsers.get(args_list[0]) if args_list else None
    if known.config and sub is not None:
        values = _load_config_file(known.config)
        actions = {a.dest: a for a in sub._actions}
        _reject_unknown_keys(known.config, values,
                             set(actions) - {"help", "config"})
        for key, raw in values.items():
            switch = actions[key].nargs == 0
            choices = ("true", "false") if switch else actions[key].choices
            if choices is not None and raw not in choices:
                raise CliInputError(f"{known.config}: {key} = {raw!r} must "
                                    f"be one of {', '.join(choices)}")
            if switch:
                values[key] = raw == "true"
        sub.set_defaults(**values)


def _require_seed(value):
    if value is None:
        raise CliInputError("--seed is required (seeds are never implicit)")
    return int(value)


def _check_dataset(bags, num_classes, class_names, source,
                   d_v=None) -> None:
    """Reject a dataset whose class count, or d_v when given, differs from
    `source`'s."""
    if len(class_names) != num_classes:
        raise CliInputError(
            f"{source}: {len(class_names)} class names, but the dataset "
            f"declares {num_classes} classes"
        )
    if d_v is not None and bags[0].patches.cols != d_v:
        raise CliInputError(
            f"{source}: d_v={d_v}, but the dataset has "
            f"d_v={bags[0].patches.cols}"
        )


def int_or_all(raw: str):
    """A shots value: a whole number, or 'all'."""
    return "all" if raw == "all" else int(raw)


def _write_prompt_file(path, lines, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for line in lines:
            fh.write(line + "\n")


# synth flags that set a SynthSpec field; an absent one takes its default
SPEC_FLAGS = ("num_classes", "num_tissues", "n_min", "n_max",
              "bags_per_class", "signal_fraction", "noise_sigma", "dv", "dt")
# eval flags that only --zero-shot reads; --report takes them from the report
ZERO_SHOT_FLAGS = ("classes", "tau", "dt", "encoder_seed")


def _leave_unset(parser, dests) -> None:
    """Flags in `dests` left off the command line stay unset, so a command
    can tell an explicit flag from a default; help keeps naming the default.
    """
    for action in parser._actions:
        if action.dest in dests:
            if action.help:
                action.help = action.help % {"default": action.default}
            action.default = argparse.SUPPRESS


def _given(args, dests) -> dict:
    return {k: getattr(args, k) for k in dests if hasattr(args, k)}


def _flag_list(dests) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in dests)


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


def _setting(source, key, raw: str, cast, error=CliInputError):
    """One setting parsed from its text; a value that does not parse is an
    `error` naming the source and key."""
    try:
        return cast(raw)
    except ValueError as exc:
        raise error(
            f"{source}: {key} = {raw!r} is not a valid {cast.__name__}"
        ) from exc


def _train_config(source, values, settings, error=CliInputError):
    """A TrainConfig from the `settings` (key -> (field, type)) in `values`,
    each parsed from its text as a flag is, so an int of 2.5 fails; a key left
    out takes its default. A bad value is an `error` naming `source`."""
    try:
        return TrainConfig(**{
            field: _setting(source, key, str(values[key]), cast, error)
            for key, (field, cast) in settings.items() if key in values})
    except InvalidSettingError as exc:
        raise error(f"{source}: {exc}") from exc


def cmd_synth(args) -> None:
    seed = _require_seed(args.seed)
    given = _given(args, SPEC_FLAGS)
    if args.preset:
        if given:
            raise CliInputError(f"--preset {args.preset} fixes the dataset "
                                f"spec; drop {_flag_list(given)}")
        spec = preset_spec(args.preset, seed=seed,
                           encoder_seed=args.encoder_seed)
    else:
        lo, hi = SynthSpec.n_range
        spec = SynthSpec(
            n_range=(given.pop("n_min", lo), given.pop("n_max", hi)),
            d_v=given.pop("dv", SynthSpec.d_v),
            d_t=given.pop("dt", SynthSpec.d_t),
            seed=seed, encoder_seed=args.encoder_seed, **given,
        )
    data = generate(spec)
    write_dataset(args.out, data.bags)
    tissues_out = args.tissues_out or args.out + ".tissues.txt"
    classes_out = args.classes_out or args.out + ".classes.txt"
    _write_prompt_file(tissues_out, data.tissue_descriptions,
                       "tissue descriptions, one per line")
    _write_prompt_file(classes_out, data.class_names,
                       "class names, one per line")
    summary = {
        "num_classes": spec.num_classes,
        "num_tissues": spec.num_tissues,
        "bags": len(data.bags),
        "d_v": spec.d_v,
        "signal_fraction": spec.signal_fraction,
        "noise_sigma": spec.noise_sigma,
        "n_range": list(spec.n_range),
        "seed": spec.seed,
        "encoder_seed": spec.encoder_seed,
        "out": args.out,
        "tissues_out": tissues_out,
        "classes_out": classes_out,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))


def _train_config_from_args(args, seed) -> TrainConfig:
    return TrainConfig(
        tau=args.tau, learning_rate=args.lr, epochs=args.epochs,
        shots=args.shots, seed=seed, pooling=args.pooling,
        context_length=args.context_length, d_t=args.dt,
        encoder_seed=args.encoder_seed, topk_k=args.topk_k,
    )


def cmd_train(args) -> None:
    cfg = _train_config_from_args(args, _require_seed(args.seed))
    bags, num_classes = read_dataset(args.data)
    tissue_descriptions = read_prompt_lines(args.tissues)
    class_names = read_prompt_lines(args.classes)
    _check_dataset(bags, num_classes, class_names, "--classes")
    prompts, history, metrics, pool_size = run_single(
        bags, class_names, tissue_descriptions, cfg
    )
    config = {key: getattr(cfg, field)
              for key, (field, _) in REPORT_SETTINGS.items()}
    config.update(d_v=bags[0].patches.cols, eval_pool_size=pool_size,
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
    if args.zero_shot == bool(args.report):
        raise CliInputError("provide exactly one of --report and --zero-shot")
    given = _given(args, ZERO_SHOT_FLAGS)
    if args.report and given:
        raise CliInputError(f"--report takes its settings from the report; "
                            f"drop {_flag_list(given)}")
    bags, num_classes = read_dataset(args.data)
    if args.zero_shot:
        if "classes" not in given:
            raise CliInputError("--zero-shot requires --classes")
        class_names = read_prompt_lines(given["classes"])
        _check_dataset(bags, num_classes, class_names, "--classes")
        weights = FrozenEncoderWeights.create(
            given.get("encoder_seed", TrainConfig.encoder_seed),
            d_t=given.get("dt", TrainConfig.d_t), d_v=bags[0].patches.cols)
        pipeline = Pipeline(weights=weights, tissues=None,
                            class_names=tuple(class_names),
                            tau=given.get("tau", TrainConfig.tau),
                            pooling="zero")
        metrics = evaluate(bags, pipeline)
        print(json.dumps({"mode": "zero-shot", "metrics": metrics},
                         indent=2, sort_keys=True))
        return
    cfg, class_names, tissue_descriptions, prompts = _read_run(
        args.report, bags, num_classes)
    pipeline = cfg.pipeline(cfg.encoder_weights(bags[0].patches.cols),
                            tissue_descriptions, class_names, prompts)
    _, eval_bags = select_few_shot(bags, cfg.shots)
    metrics = evaluate(eval_bags, pipeline)
    print(json.dumps({"mode": "trained", "metrics": metrics},
                     indent=2, sort_keys=True))


def _format_table(rows) -> str:
    if not rows:
        return "(no rows)\n"
    headers = ["pooling", "shots", "tissue_set", "num_tissue_types", "seed",
               "class_averaged_accuracy", "bag_accuracy", "final_loss"]
    cells = [[_cell(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


GRID_REQUIRED = ("data", "classes", "poolings", "shots", "tissues", "seeds")


def _grid_list(path, grid, key, cast=str) -> list:
    return [_setting(path, key, v.strip(), cast)
            for v in grid[key].split(",") if v.strip()]


def cmd_ablate(args) -> None:
    grid = _load_config_file(args.grid)
    for key in GRID_REQUIRED:
        if key not in grid:
            raise CliInputError(f"grid file missing required key {key!r}")
    _reject_unknown_keys(args.grid, grid, GRID_REQUIRED + tuple(GRID_SETTINGS))
    poolings = _grid_list(args.grid, grid, "poolings")
    bad = sorted(set(poolings) - set(POOLING_VARIANTS + ("zero",)))
    if bad:
        raise CliInputError(f"{args.grid}: unknown pooling(s) {bad}; "
                            f"expected {', '.join(POOLING_VARIANTS)} or zero")
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
    if not 0 <= args.bag < len(bags):
        raise CliInputError(f"--bag {args.bag} outside [0, {len(bags)})")
    bag = bags[args.bag]
    cfg = TrainConfig(tau=args.tau, d_t=args.dt,
                      encoder_seed=args.encoder_seed)
    corr = cfg.pipeline(cfg.encoder_weights(bag.patches.cols),
                        read_prompt_lines(args.tissues),
                        read_prompt_lines(args.classes)).correlation(bag)
    csv_path = args.out_prefix + ".csv"
    pgm_path = args.out_prefix + ".pgm"
    top, bottom = export_heatmap(bag, corr.T, args.class_index,
                                 csv_path, pgm_path)
    print(json.dumps({
        "csv": csv_path, "pgm": pgm_path,
        "top5": top, "bottom5": bottom,
    }, indent=2, sort_keys=True))


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value file of defaults")


def _add_encoder_flags(sub):
    sub.add_argument("--encoder-seed", type=int,
                     default=TrainConfig.encoder_seed,
                     help="seed of the frozen text encoder "
                          "(default %(default)s)")
    sub.add_argument("--dt", type=int, default=TrainConfig.d_t,
                     help="text embedding dimension (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipmil",
        description="Dual-similarity pooling and few-shot prompt training "
                    "for bag-of-patches classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    _add_encoder_flags(p)
    p.add_argument("--dv", type=int, default=SynthSpec.d_v,
                   help="visual embedding dimension (default %(default)s)")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named preset; the spec flags below (and --dv, "
                        "--dt) cannot be combined with it")
    p.add_argument("--num-classes", type=int)
    p.add_argument("--num-tissues", type=int)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--bags-per-class", type=int)
    p.add_argument("--signal-fraction", type=float)
    p.add_argument("--noise-sigma", type=float)
    _leave_unset(p, SPEC_FLAGS)
    p.add_argument("--seed", type=int, help="required; never implicit")
    p.add_argument("--out", required=True)
    p.add_argument("--tissues-out")
    p.add_argument("--classes-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="few-shot prompt training + evaluation")
    _add_common(p)
    _add_encoder_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--tissues", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--shots", type=int_or_all, default=TrainConfig.shots,
                   help="bags per class for training, or 'all' "
                        "(default %(default)s)")
    p.add_argument("--pooling", choices=POOLING_VARIANTS,
                   default=TrainConfig.pooling,
                   help="pooling variant (default %(default)s)")
    p.add_argument("--tau", type=float, default=TrainConfig.tau,
                   help="softmax temperature (default %(default)s)")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="SGD learning rate (default %(default)s)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="training epochs (default %(default)s)")
    p.add_argument("--context-length", type=int,
                   default=TrainConfig.context_length,
                   help="learnable context vectors (default %(default)s)")
    p.add_argument("--topk-k", type=int, default=TrainConfig.topk_k,
                   help="k for topk pooling, clamped to N "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, help="required; never implicit")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate from a report or zero-shot")
    _add_common(p)
    _add_encoder_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="report with trained context; the "
                                    "report fixes every other setting")
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--classes", help="class names file (zero-shot mode)")
    p.add_argument("--tau", type=float, default=TrainConfig.tau,
                   help="softmax temperature (default %(default)s)")
    _leave_unset(p, ZERO_SHOT_FLAGS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run a pooling/shots/tissues grid")
    _add_common(p)
    p.add_argument("--grid", required=True,
                   help="key = value grid file (data, classes, poolings, "
                        "shots, tissues, seeds, ...)")
    p.add_argument("--out", help="JSON rows path; .txt table alongside")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("heatmap", help="export per-patch scores for one bag")
    _add_common(p)
    _add_encoder_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--bag", type=int, required=True)
    p.add_argument("--class-index", type=int, required=True)
    p.add_argument("--tissues", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--tau", type=float, default=TrainConfig.tau,
                   help="softmax temperature (default %(default)s)")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_heatmap)

    parser._command_parsers = {
        name: sp for name, sp in sub.choices.items()
    }
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
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
