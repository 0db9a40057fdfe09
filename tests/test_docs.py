"""The README documents the public surface: every exported name and every subcommand."""

import argparse
import re
from pathlib import Path

import dqopt
from dqopt.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_every_public_name_has_a_line_in_the_api_list():
    quoted = set()
    for span in re.findall(r"`([^`]+)`", _section("Public API")):
        quoted.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span))
    assert [name for name in dqopt.__all__ if name not in quoted] == []


def test_the_cli_block_runs_exactly_the_subcommands():
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.S).group(1)
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("dqopt ")}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(sub.choices)
