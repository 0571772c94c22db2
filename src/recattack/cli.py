"""Command-line front end.

Subcommands map onto pipeline stages (gen-corpus, train-victim, synthesize,
distill, attack, evaluate), the pipeline, which runs the `stages` key (all
six by default), and the two study drivers (ablation, alpha-sweep). Options
are dotted config keys via repeated --set KEY=VALUE; a --config file
overrides flag values. Every command but pipeline fixes its own stages, so
setting `stages` for it is a config error. Exit codes: 0 ok, 1 usage/config
error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import build_config, parse_value, read_config_file
from .errors import ConfigError, StageError
from .harness import run_ablation, run_alpha_sweep, run_pipeline

log = logging.getLogger(__name__)

# the stage each stage command runs; pipeline runs the `stages` key
COMMAND_STAGES = {
    "gen-corpus": "corpus",
    "train-victim": "victim",
    "synthesize": "synthesize",
    "distill": "distill",
    "attack": "attack",
    "evaluate": "evaluate",
    "pipeline": None,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file (overrides flags)")
    sub.add_argument("--out", help="output directory (flag form of out_dir)")
    sub.add_argument("--seed", type=int, help="global seed")
    sub.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set any dotted config key, repeatable",
    )
    sub.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recattack", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_STAGES:
        _add_common(subs.add_parser(name))
    ab = subs.add_parser("ablation")
    _add_common(ab)
    ab.add_argument(
        "--arms",
        default="combined+dual,kl_only+grad_only",
        help="comma list of loss+signal arms",
    )
    sweep = subs.add_parser("alpha-sweep")
    _add_common(sweep)
    sweep.add_argument("--alphas", default="0.7,0.8,0.9,0.97", help="comma list of decays")
    return parser


def _flat_config(args) -> dict[str, str]:
    """Every dotted key the command line and the config file set."""
    flat: dict[str, str] = {}
    if args.out:
        flat["out_dir"] = args.out
    if args.seed is not None:
        flat["seed"] = str(args.seed)
    for item in args.sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        flat[key.strip()] = value.strip()
    if args.config:  # file values win
        flat.update(read_config_file(args.config))
    if args.command != "pipeline":
        if "stages" in flat:
            raise ConfigError(f"'stages' is fixed by the {args.command} command; "
                              "set it for pipeline only")
        if args.command in COMMAND_STAGES:
            flat["stages"] = COMMAND_STAGES[args.command]
    return flat


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = build_config(_flat_config(args))
        if args.command in COMMAND_STAGES:
            report = run_pipeline(cfg)
            if "evaluate" in cfg.stages:
                print(report.as_text())
        elif args.command == "ablation":
            rows = run_ablation(cfg, [a.strip() for a in args.arms.split(",") if a.strip()])
            for row in rows:
                print(row)
        else:
            alphas = args.alphas.split(",")
            rows = run_alpha_sweep(
                cfg, [parse_value("distill.alpha", a)[1] for a in alphas if a.strip()]
            )
            for row in rows:
                print(row)
    except ConfigError as exc:
        print(f"recattack: config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"recattack: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
