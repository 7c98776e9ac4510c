"""Command line entry point.

    masscons run <config> [--out DIR]
    masscons sweep <config> --param {c,n,trunc_tol} --values v1,v2,... [--out DIR]
    masscons dump-gram <config> [--out DIR]

Each row's line prints kappa, div, rel_error and the solve's rank and
residual, so a bad solve shows on the console. Exit codes: 0 all rows
succeeded, 2 configuration error, 3 at least one row failed (failed rows are
recorded in the table with their error message), dump-gram could not build a
system, or the quadrature does not fit in memory.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config, parse_values
from .errors import ConfigurationError, MassconsError
from .runner import SWEEP_PARAMS, dump_gram_for_config, run_experiment, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masscons",
        description="Divergence-free field adjustment experiments (adjoint line search, "
        "inverse multiquadric collocation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment table for a configuration")
    run_p.add_argument("config", help="path to a key = value configuration file")
    run_p.add_argument("--out", default=None, help="override the output directory")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter, all else fixed")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--out", default=None)

    dump_p = sub.add_parser("dump-gram", help="dump the collocation matrix, rhs and spectrum")
    dump_p.add_argument("config")
    dump_p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            rows = run_experiment(cfg, out_override=args.out)
        elif args.command == "sweep":
            values = parse_values(args.param, args.values)
            rows = sweep(cfg, args.param, values, out_override=args.out)
        else:
            for path in dump_gram_for_config(cfg, out_override=args.out):
                print(path)
            return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MassconsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    failed = [row for row in rows if row.error]
    for row in rows:
        status = f"FAILED ({row.error})" if row.error else (
            f"kappa={row.kappa:.6e} div={row.div_mean:.6e} rel_error={row.rel_error:.6e} "
            f"rank={row.rank} residual={row.residual:.6e}"
        )
        print(f"N={row.n_nodes} c={row.shape:g}: {status}")
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
