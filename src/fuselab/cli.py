"""Command-line entry point.

Subcommands: train, eval, normalize, gradcheck, synth. Exit codes are a
stable contract for CI: 0 success, 2 usage/config/data error (a
request too large for memory included), 3 numerical divergence
(gradcheck failures exit 1).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import load_experiment_config
from .datakit import (
    SyntheticSpec,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
)
from .exceptions import DivergenceError, FuselabError
from .experiment import describe_model, run_experiment
from .metrics import ResultRow, format_csv, format_report, format_table
from .training import evaluate_model, load_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuselab",
        description="Multimodal fusion learning toolkit: train and evaluate "
                    "fusion classifiers, normalize social text, verify "
                    "gradients, and generate synthetic datasets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, type=Path,
                         help="experiment config (INI)")
    p_train.add_argument("--out", required=True, type=Path,
                         help="output directory for model, loss CSV, metrics")

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p_eval.add_argument("--model", required=True, type=Path)
    p_eval.add_argument("--data", required=True, type=Path, help="JSON Lines dataset")
    p_eval.add_argument("--binarize", action="store_true",
                        help="merge multi-class labels to Hate/NoHate before scoring")
    p_eval.add_argument("--out", type=Path, default=None,
                        help="also write the metrics table here (.csv twin alongside)")

    p_norm = sub.add_parser("normalize", help="normalize text, one string per line")
    p_norm.add_argument("--in", dest="inp", required=True, type=Path)
    p_norm.add_argument("--out", type=Path, default=None,
                        help="output file (default: stdout)")

    p_grad = sub.add_parser("gradcheck", help="run the gradient verification suite")
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.add_argument("--step", type=float, default=1e-5,
                        help="finite-difference step")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--task", required=True,
                         choices=("xor-crossmodal", "unimodal-separable"))
    p_synth.add_argument("--n", required=True, type=int)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--grid", type=int, default=12)
    return parser


def cmd_train(args) -> int:
    config = load_experiment_config(args.config)
    result = run_experiment(config, out_dir=args.out)
    sizes = result.split_sizes
    hist = ", ".join(f"{k}={v}" for k, v in (result.label_histogram or {}).items())
    print(f"split train/val/test = {sizes[0]}/{sizes[1]}/{sizes[2]}; "
          f"label histogram: {hist}")
    print(f"trained on seed {config.seed}; test metrics:")
    print(result.table_text)
    print("artifacts:")
    for path in result.artifacts:
        print(f"  {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = load_jsonl(args.data)
    if args.binarize:
        dataset = dataset.merged_binary()
    if set(dataset.label_space.names) != set(model.label_space.names):
        raise FuselabError(
            f"label spaces differ: model {list(model.label_space.names)} vs "
            f"dataset {list(dataset.label_space.names)}"
            + ("" if args.binarize else " (did you mean --binarize?)"))
    report = evaluate_model(model, dataset)
    modes, fusion_type = describe_model(model.config)
    row = ResultRow(args.model.stem, modes, fusion_type, report)
    text = format_table([row]) + "\n\n" + format_report(report) + "\n"
    print(text, end="")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
        args.out.with_suffix(".csv").write_text(format_csv([row]), encoding="utf-8")
    return EXIT_OK


def cmd_normalize(args) -> int:
    from .textprep import normalize

    with open(args.inp, encoding="utf-8") as fh:
        lines = [normalize(line.rstrip("\n")).render() for line in fh]
    payload = "\n".join(lines) + ("\n" if lines else "")
    if args.out is None:
        sys.stdout.write(payload)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload, encoding="utf-8")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradsuite import run_gradient_suite

    reports = run_gradient_suite(tol=args.tol, h=args.step)
    for report in reports:
        print(report)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed "
          f"at tol {args.tol:g}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def cmd_synth(args) -> int:
    spec = SyntheticSpec(task=args.task, n=args.n, seed=args.seed,
                         noise=args.noise, grid_size=args.grid)
    dataset = generate_synthetic(spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(dataset, args.out)
    hist = dataset.label_histogram()
    print(f"wrote {len(dataset)} publications to {args.out}")
    print("label histogram: " + ", ".join(f"{k}={v}" for k, v in hist.items()))
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "normalize": cmd_normalize,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except FuselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
