"""Command-line entry point.

Subcommands: gen-data, pretrain, train, eval, gradcheck.
Exit codes: 0 success, 2 configuration/usage error, 3 check failure.
"""

from __future__ import annotations

import argparse
import sys

from .bundle import BundleError
from .config import ConfigError, dump_config, load_config
from .numerics import ShapeError


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmvqa",
        description="Gated multi-encoder VQA with cross-modal self-attention fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("gen-data", "generate the synthetic dataset"),
        ("pretrain", "multi-task pre-training of the three encoders"),
        ("train", "end-to-end VQA training"),
        ("eval", "evaluate a checkpoint"),
        ("gradcheck", "finite-difference check of every model parameter"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to a key = value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--init", default=None, help="checkpoint to initialize from")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        config_text = dump_config(config)

        if args.command == "gen-data":
            from .data import generate_synthetic, save_dataset

            out = args.out or config.data_dir
            vqa, pretrain, vocab = generate_synthetic(
                config.seed,
                {"vqa": config.n_vqa, "pretrain": config.n_pretrain},
                config.data_config(),
            )
            save_dataset(vqa, pretrain, vocab, config.data_config(), out)
            counts = {split: len(v) for split, v in vqa.items()}
            print(f"dataset written to {out} (vqa splits: {counts})")
            return 0

        if args.command == "pretrain":
            from .train import run_pretrain

            out = args.out or "runs/pretrain"
            results = run_pretrain(config, out, config_text=config_text)
            for encoder, metrics in results.items():
                line = f"{encoder}: task_acc={metrics['task_acc']:.4f}"
                if "compat_acc" in metrics:
                    line += f" compat_acc={metrics['compat_acc']:.4f}"
                print(line)
            print(f"checkpoints and metrics in {out}")
            return 0

        if args.command == "train":
            from .train import run_vqa_train

            out = args.out or "runs/train"
            _, metrics = run_vqa_train(config, out, init_path=args.init,
                                       config_text=config_text)
            print(
                f"open_acc={metrics['open_acc']:.4f} "
                f"closed_acc={metrics['closed_acc']:.4f} "
                f"all_acc={metrics['all_acc']:.4f}"
            )
            print(f"checkpoint and metrics in {out}")
            return 0

        if args.command == "eval":
            from .data import load_dataset
            from .model import VqaModel, apply_checkpoint, load_checkpoint
            from .train import run_eval

            if not args.init:
                raise ConfigError("eval requires --init CHECKPOINT")
            vqa, _, vocab, data_config = load_dataset(config.data_dir)
            config.check_dataset(data_config)
            model = VqaModel(config, vocab.size)
            params = model.params()
            arrays, _, _ = load_checkpoint(args.init)
            missing = sorted({name.rsplit("/", 1)[0] for name in params if name not in arrays})
            if missing:
                raise ConfigError(f"checkpoint {args.init} lacks parameter groups: "
                                  + ", ".join(missing))
            apply_checkpoint(params, arrays)
            metrics = run_eval(model, vqa[config.eval_split])
            for key in ("open_acc", "closed_acc", "all_acc", "type_acc"):
                print(f"{key}={metrics[key]:.6f}")
            return 0

        if args.command == "gradcheck":
            from .train import run_gradcheck

            report = run_gradcheck(config)
            print(report.summary())
            return 0 if report.passed else 3

        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, BundleError, ShapeError, ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
