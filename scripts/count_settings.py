"""Count the values a user or a caller can set.

    python3 scripts/count_settings.py

Prints three counts and their sum, then the number of lines of
`src/evoadapt/*.py`, the size figure ROADMAP tracks. The counts are:
- config keys: the fields of `ExperimentConfig` that are not sections, plus
  the fields of each section dataclass (`observation`, `ppo`, `training`);
- CLI flags: the option strings of each subcommand of `cli.build_parser()`,
  `--help` left out, so a flag two subcommands share counts twice;
- defaulted parameters: the parameters with a default value (`ast`) of
  every function, method and lambda in `src/evoadapt/*.py`.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def config_keys() -> int:
    from evoadapt.config import ExperimentConfig

    count = 0
    for field in dataclasses.fields(ExperimentConfig):
        if field.default_factory is not dataclasses.MISSING:
            section = field.default_factory()
            if dataclasses.is_dataclass(section):
                count += len(dataclasses.fields(section))
                continue
        count += 1
    return count


def cli_flags() -> int:
    from evoadapt.cli import build_parser

    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return sum(len(action.option_strings)
               for parser in subparsers.choices.values() for action in parser._actions
               if not isinstance(action, argparse._HelpAction))


def sources() -> list[str]:
    return sorted(glob.glob(os.path.join(SRC, "evoadapt", "*.py")))


def defaulted_parameters() -> int:
    count = 0
    for path in sources():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(default is not None for default in node.args.kw_defaults)
    return count


def main() -> int:
    sys.path.insert(0, SRC)
    counts = {"config keys": config_keys(), "CLI flags": cli_flags(),
              "defaulted parameters": defaulted_parameters()}
    for name, value in counts.items():
        print(f"{name:<21} {value:>3}")
    print(f"{'total':<21} {sum(counts.values()):>3}")
    lines = 0
    for path in sources():
        with open(path) as fh:
            lines += fh.read().count("\n")
    print(f"{'source lines':<21} {lines:>3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
