"""Command-line entry point: effective, rate, properties, metric."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .errors import HJHomError, ResolutionError
from .harness import run_effective, run_metric, run_property_suite, run_rate_sweep

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_PROPERTY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjhom",
        description="Periodic Hamilton-Jacobi homogenization laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("effective", "build and export the effective Lagrangian/Hamiltonian"),
        ("rate", "eps sweep of sup|u_eps - u_bar| with rate fit"),
        ("properties", "structural property checks of the metric"),
        ("metric", "build and export a metric table"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="key=value config file")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--threads", type=int, default=1,
                         help="worker threads for the rate eps sweep; other commands take 1")
        sub.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1 or (args.threads > 1 and args.command != "rate"):
        print(f"config error: --threads {args.threads}: {args.command} takes "
              f"{'at least 1' if args.command == 'rate' else 'only 1'}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(args.config)
        if args.command == "effective":
            run_effective(cfg, args.out, verbose=args.verbose)
        elif args.command == "rate":
            run_rate_sweep(cfg, args.out, threads=args.threads,
                           verbose=args.verbose)
        elif args.command == "metric":
            run_metric(cfg, args.out, verbose=args.verbose)
        elif args.command == "properties":
            checks = run_property_suite(cfg, args.out, verbose=args.verbose)
            failed = [c.name for c in checks if not c.passed]
            if failed:
                print(f"property checks failed: {', '.join(failed)}",
                      file=sys.stderr)
                return EXIT_PROPERTY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except HJHomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
