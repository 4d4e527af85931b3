"""The README's library quick start runs, and its commented results hold."""

from pathlib import Path

from semilevy import Decision

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
