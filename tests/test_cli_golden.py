"""Replays the golden CLI transcript (see cli_golden.py): every command
keeps its exit code and its stdout byte for byte."""

import json
import shlex

import pytest

import cli_golden

GOLDEN = json.loads(cli_golden.DATA.read_text())


def test_transcript_lists_the_same_commands():
    keys = [shlex.join(args) for args in cli_golden.commands()]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(GOLDEN["outcomes"])


@pytest.mark.parametrize("key", sorted(GOLDEN["outcomes"]))
def test_command_output_is_unchanged(key):
    code, stdout = cli_golden.run(tuple(shlex.split(key)))
    if key in GOLDEN["texts"]:
        assert stdout == GOLDEN["texts"][key]
    assert [code, cli_golden.digest(stdout)] == GOLDEN["outcomes"][key]
