"""Every code sample in the README runs as printed."""

import json
import re
from pathlib import Path

import pytest

import wegner2p
import wegner2p.cli as cli
from wegner2p import potential

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run_in_order_in_one_namespace():
    # quick start, custom DM function, replay recipe, then analytic_bound;
    # tests/test_experiments.py checks what the replay recipe prints
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 4
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    # the quick start's ceiling can fail: a ceiling of 1 or more holds for any law
    assert namespace["report"].analytic_bound < 1
    assert namespace["report"].verdict == "holds"


def _sample_configs():
    """(subcommand, file name, config text) for each jsonc sample config,
    with the subcommand the README's command block runs on that file."""
    commands = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    runs = re.findall(r"wegner2p (\S+) +--config (\S+)", commands)
    subcommand = {name: sub for sub, name in runs}
    (block,) = re.findall(r"```jsonc\n(.*?)```", README, re.S)
    samples = re.findall(r"^// (\S+\.json):[^\n]*\n(.*?)(?=^//|\Z)", block, re.S | re.M)
    return [(subcommand[name], name, text) for name, text in samples]


def test_six_sample_configs_found():
    assert len(_sample_configs()) == 6


@pytest.mark.parametrize(
    "subcommand, name, text", [pytest.param(*s, id=s[1]) for s in _sample_configs()]
)
def test_sample_config_runs(subcommand, name, text, tmp_path):
    config = tmp_path / name
    config.write_text(text)
    out = tmp_path / "report.json"
    assert cli.main([subcommand, "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report)[:3] == ["kind", "schema_version", "tool_version"]
    assert (report["schema_version"], report["tool_version"]) == (
        cli.SCHEMA_VERSION,
        wegner2p.__version__,
    )


def _table_keys(caption):
    """{name: keys} from the README table under `caption`: each row's
    first column and the backquoted names in its second."""
    table = README.split(caption, 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {name.strip().strip("`"): set(re.findall(r"`(\w+)`", keys)) for name, keys in rows}


def test_readme_tables_list_exactly_the_laws_and_forms_the_parsers_accept():
    # documenting a removed law, form or key again, or leaving out one the
    # parsers take, fails here
    laws = _table_keys("Disorder laws, the `dist` key of a config:")
    assert laws == {kind: keys - {"kind"} for kind, keys in potential._KIND_KEYS.items()}
    forms = _table_keys("Function forms, the `function` key of a `stollmann-check` config:")
    assert forms == {form: cli._FUNCTION_KEYS - {"form"} for form in cli._FUNCTION_FORMS}
