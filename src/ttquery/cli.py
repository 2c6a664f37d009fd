"""Command line entry point.

Exit status 0 means every check in the run passed, 1 means some check
failed, 2 means the invocation or configuration was unusable.

The grammar is `ttquery COMMAND [--config PATH] [--out DIR]
[--subject NAME_OR_PATH] [--budget COUNT]`, parsed by hand: argparse
would load gettext and locale, about 4 ms of CPU per process. Tokens are
read as argparse reads them. An option is given as `--opt value` or
`--opt=value`, by its name or a unique prefix of it, and the last of
repeated options wins. A value may start with `-` only when it reads as
a negative number or holds a space; `--` has no special meaning.
`-h`/`--help` prints the help and exits 0. A usage error prints the usage
line and one `ttquery: error:` line to stderr and exits 2.
"""

from __future__ import annotations

import sys

from .harness import COMMANDS, ConfigError, emit, load_config
from .model import MissingEntryError
from .ordered_search import BudgetExceededError

COMMAND_HELP = {
    "simulate": "print exact output distributions and per-block errors",
    "roundtrip": "encode and decode every instance, census the code",
    "bounds": "tabulate query floors and certifying constants",
    "lemmas": "rerun the per-instance invariant audits",
}
# name: (metavar, help); these names and "help" have distinct first
# letters, so no prefix is ambiguous
OPTIONS = {
    "config": ("PATH", "key = value file"),
    "out": ("DIR", "write CSV and JSON here instead of stdout"),
    "subject": ("NAME_OR_PATH", "override the subject"),
    "budget": ("COUNT", "instance sweep cap"),
}
USAGE = (
    "usage: ttquery COMMAND [--config PATH] [--out DIR] "
    "[--subject NAME_OR_PATH] [--budget COUNT]"
)


def _help() -> str:
    lines = [
        USAGE,
        "",
        "Exact simulation and coding experiments for advised nonadaptive "
        "query machines on ordered search.",
        "",
        "commands:",
        *(f"  {name:<10} {COMMAND_HELP[name]}" for name in COMMANDS),
        "",
        "options:",
        *(f"  {f'--{name} {metavar}':<24} {text}" for name, (metavar, text) in OPTIONS.items()),
        f"  {'-h, --help':<24} print this help and exit",
    ]
    return "\n".join(lines) + "\n"


def _usage_error(message: str):
    print(USAGE, file=sys.stderr)
    print(f"ttquery: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_number(token: str) -> bool:
    """argparse's negative-number test: -N, -N.N or -.N in decimal digits."""
    whole, dot, frac = token[1:].partition(".")
    return (frac.isdecimal() and (not whole or whole.isdecimal())) if dot else whole.isdecimal()


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """(name, value) of an option token, value None without `=` and name
    None for an unknown option; None for a value or a positional."""
    if token == "-h":
        return "help", None
    key, eq, value = token.partition("=")
    if key.startswith("--") and len(key) > 2:
        for name in names:
            if ("--" + name).startswith(key):
                return name, value if eq else None
    if len(token) < 2 or token[0] != "-" or _is_number(token) or " " in token:
        return None
    return None, None


def parse_args(argv) -> tuple[str, dict]:
    """The command and the options given, by name; exits through SystemExit."""
    names = ("help",)  # before the command only the help option is known
    command, options, extras = None, {}, []
    tokens = iter(argv)
    for token in tokens:
        opt = _option(token, names)
        if opt is None:
            if command is not None:
                extras.append(token)
            elif token in COMMANDS:
                command, names = token, (*OPTIONS, "help")
            else:
                _usage_error(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            continue
        name, value = opt
        if name is None:
            extras.append(token)
        elif name == "help":
            if value is not None:
                _usage_error(f"--help takes no value, got {value!r}")
            print(_help(), end="")
            raise SystemExit(0)
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _option(value, names) is not None:
                    _usage_error(f"--{name} expects one value")
            if name == "budget":
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"--budget must be an integer, got {value!r}")
            options[name] = value
    if command is None:
        _usage_error("a command is required")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return command, options


def main(argv=None) -> int:
    command, options = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = load_config(options.pop("config", None), **options)
        report = COMMANDS[command](cfg)
        emit(report, cfg.out)
    except (ConfigError, BudgetExceededError, MissingEntryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
