"""The README's slipmil commands run, in order, through `cli.main`."""
from pathlib import Path

from slipmil.cli import main

from readme_commands import readme_script, steps

README = Path(__file__).resolve().parent.parent / "README.md"
# flags that name a file the command writes, and the suffixes it adds
OUTPUTS = {"--out": ("",), "--out-prefix": (".csv", ".pgm")}


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
