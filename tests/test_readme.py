"""The README's slipmil commands run, in order, through `cli.main`; every
module, function and test it cites exists; it stays short."""
import ast
import importlib
import re
from pathlib import Path

from slipmil.cli import main

from readme_commands import readme_script, steps

README = Path(__file__).resolve().parent.parent / "README.md"
# flags that name a file the command writes, and the suffixes it adds
OUTPUTS = {"--out": ("",), "--out-prefix": (".csv", ".pgm")}
# `slipmil.<module>[.<name>...]` and `tests/<file>.py::<Name>[::<name>]`
CITED_NAME = re.compile(r"`slipmil\.(\w+)((?:\.\w+)*)")
CITED_TEST = re.compile(r"`tests/(\w+\.py)::(\w+(?:::\w+)*)`")
SECTIONS = ["The paper, step by step", "Install and quickstart",
            "Command line", "Limits"]
MAX_LINES = 200


def paper_table(text: str) -> list:
    """The cells of each step row of the README's paper-to-code table."""
    section = text.split(f"## {SECTIONS[0]}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.split("\n")
            if line.startswith("|")]
    return rows[2:]  # less the header and its rule


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = []
    for step in steps(readme_script(README.read_text(encoding="utf-8"))):
        if step[0] == "write":
            (tmp_path / step[1]).write_text(step[2], encoding="utf-8")
            continue
        argv = step[1]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        for flag, suffixes in OUTPUTS.items():
            if flag in argv:
                named = argv[argv.index(flag) + 1]
                for suffix in suffixes:
                    assert (tmp_path / (named + suffix)).is_file(), argv
        commands.append(argv[0])
    # every subcommand, so CI's console-script step can run these alone
    assert set(commands) == {"synth", "train", "eval", "ablate", "heatmap"}


def test_steps_of_a_script():
    script = ("slipmil a --x 1 \\\n    --out o   # a comment\n"
              "cat > g.cfg <<'EOF'\nk = v\n# kept\nEOF\nslipmil b\n")
    assert steps(script) == [("run", ["a", "--x", "1", "--out", "o"]),
                             ("write", "g.cfg", "k = v\n# kept\n"),
                             ("run", ["b"])]


def test_table_cites_each_step_with_a_function_and_a_test():
    rows = paper_table(README.read_text(encoding="utf-8"))
    assert len(rows) >= 4  # the abstract's four steps at least
    for step, functions, tests in rows:
        assert any(name for _, name in CITED_NAME.findall(functions)), step
        assert CITED_TEST.search(tests), step


def test_cited_names_import():
    cited = CITED_NAME.findall(README.read_text(encoding="utf-8"))
    assert cited
    for module, name in cited:
        obj = importlib.import_module(f"slipmil.{module}")
        for part in name.split(".")[1:]:
            assert hasattr(obj, part), f"slipmil.{module}{name}"
            obj = getattr(obj, part)


def test_cited_tests_exist():
    cited = CITED_TEST.findall(README.read_text(encoding="utf-8"))
    assert cited
    here = Path(__file__).resolve().parent
    for file, path in cited:
        body = ast.parse((here / file).read_text(encoding="utf-8")).body
        for name in path.split("::"):
            found = [node for node in body if isinstance(
                node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
            assert found and name.startswith(("Test", "test_")), (
                f"tests/{file}::{path}")
            body = found[0].body


def test_readme_is_short_and_in_order():
    lines = README.read_text(encoding="utf-8").splitlines()
    assert len(lines) <= MAX_LINES
    assert [line[3:] for line in lines if line.startswith("## ")] == SECTIONS
