"""Every README example that imports rbfcors runs as written, and the
README names every optional config key, every command-line flag and every
exit code."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import re
from pathlib import Path

import pytest

import rbfcors.cli
from rbfcors import OptimizationConfig, ProposalSettings
from rbfcors.cli import EXIT_OK, _EXIT_CODES, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
_IMPORTS_RBFCORS = re.compile(r"^(from|import) rbfcors\b", re.MULTILINE)


def readme_examples() -> list:
    """One pytest.param(line, code) per python block that imports rbfcors;
    line is the README line of the block's first line of code.

    The id is the example's position among them and a digest of its code,
    so prose edits elsewhere in the README leave every id as it was.
    """
    text = README.read_text(encoding="utf-8")
    examples = []
    for match in _BLOCK.finditer(text):
        code = match.group(1)
        if _IMPORTS_RBFCORS.search(code):
            line = text.count("\n", 0, match.start(1)) + 1
            digest = hashlib.sha256(code.encode()).hexdigest()[:8]
            examples.append(pytest.param(line, code, id=f"example{len(examples)}-{digest}"))
    return examples


def test_readme_has_examples():
    assert readme_examples()


@pytest.mark.parametrize("line, code", readme_examples())
def test_readme_example_runs(line, code):
    # Padding the code to its README line makes tracebacks point into the README.
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_lists_exactly_the_optional_config_keys():
    text = README.read_text(encoding="utf-8")
    listing = re.search(
        r"Optional\s+keys\s+mirror\s+`OptimizationConfig`:(.*?)Unknown\s+keys", text, re.DOTALL
    )
    named = set(re.findall(r"`(\w+)`", listing.group(1)))
    optional = {
        f.name
        for f in dataclasses.fields(OptimizationConfig)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    }
    assert named == optional | {f.name for f in dataclasses.fields(ProposalSettings)}


def test_readme_headings_list_exactly_each_subcommands_flags():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    text = README.read_text(encoding="utf-8")
    headings = dict(re.findall(r"^### `rbfcors (\w+) (.*)`$", text, re.MULTILINE))
    assert set(headings) == set(subparsers.choices)
    for name, subparser in subparsers.choices.items():
        options = {flag for action in subparser._actions for flag in action.option_strings}
        assert set(re.findall(r"--\w[\w-]*", headings[name])) == options - {"-h", "--help"}, name


def exit_codes_listed(text: str) -> set[int]:
    """The integers of the sentence that starts with "Exit codes:"."""
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.DOTALL).group(1)
    return {int(number) for number in re.findall(r"\b\d+\b", sentence)}


@pytest.mark.parametrize(
    "text",
    [README.read_text(encoding="utf-8"), rbfcors.cli.__doc__],
    ids=["readme", "cli-docstring"],
)
def test_exit_codes_sentence_lists_exactly_the_exit_codes(text):
    assert exit_codes_listed(text) == {EXIT_OK} | set(_EXIT_CODES.values())
