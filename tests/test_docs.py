"""The README's documented entry points run as written."""

import argparse
import json
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest

from tpbench import TransformSpec, WindowSpec, attackers, cli, harness
from tpbench.traffic import PRESETS, builtin_profiles

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, f"{README.name} (## Library)", "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 0.0 <= accuracy <= 1.0


def _cli_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return block


(_COMMANDS,) = [action.choices for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_readme_cli_flags_exist(command):
    """Every `--flag` of a `tpbench <command>` line in the `## CLI` block is
    an option of that command's parser, and each command has such a line."""
    options = {flag for action in _COMMANDS[command]._actions for flag in action.option_strings}
    flags = [word.split("=", 1)[0] for line in _cli_block().splitlines()
             if (words := shlex.split(line))[:2] == ["tpbench", command]
             for word in words[2:] if word.startswith("--")]
    assert flags, f"README: no `tpbench {command}` line with a flag"
    for flag in flags:
        assert flag in options, f"README: `tpbench {command}` has no {flag}"


def test_readme_names_only_existing_commands():
    """The commands the README names anywhere, as `tpbench <command>` or
    `<command> --flag`, are the parser's subcommands: a removed one fails."""
    text = README.read_text(encoding="utf-8")
    named = re.findall(r"(?:^|`)tpbench\s+([a-z]\w*)", text, re.M)
    named += re.findall(r"`([a-z]\w*)\s+--\w", text)
    assert set(named) == set(_COMMANDS), f"README names {sorted(set(named))}"


def _config_table() -> dict[str, tuple[str, str]]:
    """The `## Sweep configs` field table: each row's field cell -> its
    meaning and default cells."""
    section = README.read_text(encoding="utf-8").split("\n## Sweep configs\n", 1)[1]
    rows = re.findall(r"^\| (.+?) \| (.+?) \| (.+?) \|$", section.split("\n## ", 1)[0], re.M)
    return {field: cells for field, *cells in rows if field not in ("field", "---")}


def test_readme_config_table_names_every_root_key():
    named = [key for field in _config_table() for key in re.findall(r"`(\w+)`", field)]
    assert sorted(named) == sorted(harness._ROOT_KEYS)


def test_readme_scenario_row_lists_the_presets():
    meaning, _ = _config_table()["`scenario`"]
    assert re.findall(r"`(\w+)`", meaning) == list(PRESETS)


def test_readme_config_table_states_the_experiment_config_defaults():
    """A default cell holds one JSON value per key of its row, or none; a
    config that gives every stated default, plus profiles and classifiers,
    reads as an ExperimentConfig built in code with those two alone."""
    stated = {}
    for field, (_, default) in _config_table().items():
        values = re.findall(r"`([^`]+)`", default)
        if values:
            keys = re.findall(r"`(\w+)`", field)
            assert len(values) == len(keys), f"README: {field} states {len(values)} defaults"
            stated.update(zip(keys, map(json.loads, values)))
    assert set(stated) == harness._ROOT_KEYS - {"profiles", "pcap_dir", "pcap_labels",
                                                 "classifiers"}
    profiles = builtin_profiles("mic_onoff")
    read = harness.config_from_dict({**stated, "profiles": [asdict(p) for p in profiles],
                                     "classifiers": [{"kind": "knn"}]})
    assert read == harness.ExperimentConfig(profiles=profiles,
                                            classifiers=[harness.ClassifierSpec("knn")])


def test_readme_names_every_hyperparameter_rule():
    """The README's hyperparameter-rules sentence names each key of
    `attackers.HYPERPARAMETER_RULES`, and no other."""
    (sentence,) = re.findall(r"So does a bad hyperparameter value:(.*?)\.\s",
                             README.read_text(encoding="utf-8"), re.S)
    named = set(re.findall(r"`(\w+)`", sentence))
    assert named == set(attackers.HYPERPARAMETER_RULES)


def test_readme_states_the_sweep_csv_header():
    """The header the README spells out is the keys of a cell's record."""
    (header,) = re.findall(r"`(scenario,[\w,]+)`", README.read_text(encoding="utf-8"))
    row = harness.SweepRow("s", harness.ClassifierSpec("knn"), WindowSpec.burst(2),
                           TransformSpec(), None, 0, 0, 0, 0)
    assert header.split(",") == list(row.as_record())
