"""Command line entry point.

Exit status 0 means every check in the run passed, 1 means some check
failed, 2 means the invocation or configuration was unusable.
"""

from __future__ import annotations

import argparse
import sys

from .harness import COMMANDS, ConfigError, emit, load_config
from .model import MissingEntryError
from .ordered_search import BudgetExceededError


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttquery",
        description="Exact simulation and coding experiments for advised "
        "nonadaptive query machines on ordered search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "print exact output distributions and per-block errors",
        "roundtrip": "encode and decode every instance, census the code",
        "bounds": "tabulate query floors and certifying constants",
        "lemmas": "rerun the per-instance invariant audits",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", metavar="PATH", help="key = value file")
        sp.add_argument("--out", metavar="DIR", help="write CSV and JSON here instead of stdout")
        sp.add_argument("--subject", metavar="NAME_OR_PATH", help="override the subject")
        sp.add_argument("--budget", type=int, metavar="COUNT", help="instance sweep cap")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            subject=args.subject,
            budget=args.budget,
            out=args.out,
        )
        report = COMMANDS[args.command](cfg)
        emit(report, cfg.out)
    except (ConfigError, BudgetExceededError, MissingEntryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
