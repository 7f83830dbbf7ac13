"""The README's examples stay current: its Python blocks run as written, in
order, in one namespace; its JSON configs run through the CLI; and its
command-line table lists exactly the parser's options."""

import json
import re
from pathlib import Path

from tempsync import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_json_configs_run_through_the_cli(tmp_path):
    outcomes = {}
    for k, block in enumerate(_blocks("json")):
        command = "certify" if "network" in json.loads(block) else "pullback-check"
        cfg, out = tmp_path / f"{k}.json", tmp_path / f"out{k}"
        cfg.write_text(block)
        code = cli.dispatch([command, "--config", str(cfg), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        outcomes[command] = (code, report.get("converged"),
                             report.get("certificate", {}).get("verdict"))
    assert outcomes == {"certify": (2, None, "fails(gamma,(1,9),t=0)"),
                        "pullback-check": (0, True, None)}


def test_readme_command_line_table_lists_the_parser_flags():
    section = README.read_text().split("## Command line", 1)[1]
    rows = [r.split("|")[1:4] for r in section.splitlines() if r.startswith("| `")]
    table = {}
    for commands, flags, keys in rows:
        for command in re.findall(r"`([\w-]+)`", commands):
            table[command] = (re.findall(r"`(--[\w-]+)`", flags), re.findall(r"`([\w.]+)`", keys))
    assert table == {
        command: ([*flags, *(["--workers"] if command == "scenario" else [])],
                  list(flags.values()))
        for command, flags in cli._FLAGS.items()
    }
