"""Command line interface.

  cfpower generate  --config desk --samples 2000 --objective sumse \
                    --precoder rzf --out train.cfds
  cfpower train     --dataset train.cfds --kind cdnn --out models/
  cfpower evaluate  --config desk --samples 200 --precoder rzf \
                    --strategies wmmse-sumse,cdnn,heuristic,equal \
                    --models models/ --out report/
  cfpower bench     --config large --strategies wmmse,ddnn,cdnn,noop \
                    --out bench.csv
  cfpower inspect   train.cfds

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 optimizer
degeneracy, 4 numerical failure (indefinite subproblem matrix, SINR below
the noise floor). --config takes a file path or a preset name (large, desk).
"""

import argparse
import importlib.resources
import json
import logging
import sys

from . import pipeline
from .config import NetworkConfig, load_config
from .errors import (CfPowerError, ConfigError, DataFormatError,
                     NumericalError, SolverDegeneracyError)
from .mlp import MODEL_KINDS, TrainConfig
from .precoding import PRECODERS
from .wmmse import OBJECTIVES

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4

PRESETS = ("large", "desk")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise _UsageError(message)


def preset_path(name: str):
    return importlib.resources.files("cfpower").joinpath(
        "presets", f"{name.replace('-', '_')}.cfg")


def resolve_config(name_or_path: str) -> NetworkConfig:
    if name_or_path in PRESETS:
        with importlib.resources.as_file(preset_path(name_or_path)) as path:
            return load_config(path)
    return load_config(name_or_path)


def _strategy_list(text: str):
    """The names of a comma list, empty entries dropped."""
    return [s for s in text.split(",") if s]


def _add_common(p):
    p.add_argument("--config", required=True,
                   help="config file path or preset name (large, desk)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: the config's seed)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cfpower",
                     description="cell-free downlink power allocation")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="solve drops into a training set")
    _add_common(g)
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--objective", choices=OBJECTIVES, default="sumse")
    g.add_argument("--precoder", choices=PRECODERS, default="rzf")
    g.add_argument("--realizations", type=int,
                   default=pipeline.DEFAULT_N_REAL)
    g.add_argument("--max-degenerate-frac", type=float,
                   default=pipeline.DEFAULT_MAX_DEGENERATE_FRAC)
    g.add_argument("--out", required=True)

    defaults = TrainConfig()
    t = sub.add_parser("train", help="fit models from a dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--kind", choices=MODEL_KINDS, required=True)
    t.add_argument("--cluster-size", type=int,
                   default=pipeline.DEFAULT_CLUSTER_SIZE)
    t.add_argument("--epochs", type=int, default=defaults.epochs)
    t.add_argument("--batch-size", type=int, default=defaults.batch_size)
    t.add_argument("--lr", type=float, default=defaults.lr)
    t.add_argument("--drop-epoch", type=int, default=defaults.drop_epoch)
    t.add_argument("--val-fraction", type=float,
                   default=defaults.validation_fraction)
    t.add_argument("--seed", type=int, default=defaults.seed)
    t.add_argument("--out", required=True)

    e = sub.add_parser("evaluate", help="score strategies on held-out drops")
    _add_common(e)
    e.add_argument("--samples", type=int, default=200,
                   help="number of evaluation drops")
    e.add_argument("--precoder", choices=PRECODERS, default="rzf")
    e.add_argument("--strategies", type=_strategy_list,
                   default="wmmse-sumse,heuristic,equal",
                   help="comma list from: " + ",".join(pipeline.STRATEGIES))
    e.add_argument("--realizations", type=int,
                   default=pipeline.DEFAULT_N_REAL)
    e.add_argument("--models", default=None,
                   help="directory of trained models (learned strategies)")
    e.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="time each allocation strategy")
    _add_common(b)
    b.add_argument("--strategies", type=_strategy_list,
                   default=",".join(["wmmse", *MODEL_KINDS, "heuristic",
                                     "equal", "noop"]))
    b.add_argument("--repeats", type=int, default=pipeline.DEFAULT_REPEATS)
    b.add_argument("--realizations", type=int,
                   default=pipeline.DEFAULT_N_REAL)
    b.add_argument("--cluster-size", type=int,
                   default=pipeline.DEFAULT_CLUSTER_SIZE)
    b.add_argument("--models", default=None)
    b.add_argument("--out", default=None)

    i = sub.add_parser("inspect", help="describe a container file")
    i.add_argument("path")
    return parser


def _run(args) -> int:
    if args.command == "generate":
        cfg = resolve_config(args.config)
        pipeline.cmd_generate(cfg, args.samples, args.objective,
                              args.precoder, args.out, seed=args.seed,
                              n_real=args.realizations,
                              max_degenerate_frac=args.max_degenerate_frac)
        print(f"wrote {args.samples} samples to {args.out}")
        return EXIT_OK
    if args.command == "train":
        train_cfg = TrainConfig(epochs=args.epochs,
                                batch_size=args.batch_size, lr=args.lr,
                                drop_epoch=args.drop_epoch,
                                validation_fraction=args.val_fraction,
                                seed=args.seed)
        paths = pipeline.cmd_train(args.dataset, args.kind, args.out,
                                   train_cfg, cluster_size=args.cluster_size)
        print(f"wrote {len(paths)} models to {args.out}")
        return EXIT_OK
    if args.command == "evaluate":
        cfg = resolve_config(args.config)
        report = pipeline.cmd_evaluate(cfg, args.strategies, args.samples,
                                       args.precoder, out_dir=args.out,
                                       seed=args.seed,
                                       n_real=args.realizations,
                                       models_dir=args.models)
        for strat in args.strategies:
            line = (f"{strat}: mean total SE "
                    f"{report.mean_total_se(strat):.3f} bit/s/Hz")
            solver = report.solver.get(strat)
            if solver is not None:
                line += (f", {solver['converged']}/{args.samples} converged,"
                         f" outer steps p50 {solver['n_outer_p50']:g} p90 "
                         f"{solver['n_outer_p90']:g}, ADMM iterations per "
                         "subproblem p50 "
                         f"{solver['admm_iters_per_subproblem_p50']:.1f}, "
                         f"{solver['subproblem_exhausted']} subproblems "
                         "exhausted")
            print(line)
        return EXIT_OK
    if args.command == "bench":
        cfg = resolve_config(args.config)
        results = pipeline.cmd_bench(cfg, args.strategies,
                                     n_repeats=args.repeats, out_path=args.out,
                                     seed=args.seed, n_real=args.realizations,
                                     models_dir=args.models,
                                     cluster_size=args.cluster_size)
        for strat, row in results.items():
            cells = "  ".join(f"{k}={v:.4g}s" for k, v in row.items())
            print(f"{strat}: {cells}")
        return EXIT_OK
    if args.command == "inspect":
        print(json.dumps(pipeline.cmd_inspect(args.path), indent=2))
        return EXIT_OK
    raise _UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _run(args)
    except (_UsageError, ValueError) as exc:
        # bad strategy / kind / cluster-size values surface as ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverDegeneracyError as exc:
        print(f"solver degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CfPowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
