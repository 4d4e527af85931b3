"""The README's library quick start runs, its commented results hold, and its run keys are the CLI's."""

import re
from pathlib import Path

from semilevy import Decision, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_and_its_comments_hold(capsys):
    text = README.read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    capsys.readouterr()
    # each line `<expression>  # <result> ...`, keyed by the first word of its comment
    shown = {}
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if code.strip() and comment:
            shown[comment.split()[0]] = eval(code, namespace)
    assert shown.keys() == {"Decision.RECURRENT", "decision=Recurrent", "'log'"}
    assert shown["Decision.RECURRENT"] is Decision.RECURRENT
    assert shown["decision=Recurrent"].startswith("decision=Recurrent criterion=ChungFuchs ")
    assert shown["'log'"] == "log"


def test_readme_and_cli_docstring_list_the_run_keys_of_the_table():
    # one line per (command, criterion) row: `<row>: key=<default or needed or none> ...`
    expected = {}
    for (command, criterion), row in cli.COMMAND_KEYS.items():
        shown = {key: "needed" if default is cli.NEEDED else "none" if default is None else cli.RUN_KEYS[key][1](default)
                 for key, (default, _) in row.items()}
        expected[f"{command} {criterion}" if criterion else command] = " ".join(f"{k}={v}" for k, v in shown.items())
    pattern = r"^ *(simulate|classify [a-z-]+|skeleton|lln): ((?:[a-z_0-9]+=\S+ ?)+)$"
    for text in (README.read_text(), cli.__doc__):
        assert dict(re.findall(pattern, text, re.MULTILINE)) == expected
