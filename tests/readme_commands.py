"""The README's shell commands that run slipmil, in order: tier-1 runs them
through `cli.main` (test_readme.py), CI through the installed console
script. Run as a script, it prints them as one shell script:

    python tests/readme_commands.py README.md > readme.sh

Only the ```sh blocks with a line that starts with `slipmil ` are taken;
the install and pytest blocks are left out.
"""
import re
import shlex
import sys

BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.M | re.S)
HEREDOC = re.compile(r"cat > (\S+) <<'(\w+)'")


def readme_script(text: str) -> str:
    """The `sh` blocks of the README `text` that run slipmil, in order."""
    return "".join(block for block in BLOCK.findall(text)
                   if re.search(r"^slipmil ", block, re.M))


def steps(script: str) -> list:
    """`script` as ("write", path, text) for each `cat > path <<'EOF'`
    heredoc and ("run", argv) for each slipmil command, with `\\`
    continuations joined and `#` comments dropped. Any other line fails."""
    out, lines = [], iter(script.replace("\\\n", " ").split("\n"))
    for line in lines:
        heredoc = HEREDOC.fullmatch(line.strip())
        if heredoc:
            path, end = heredoc.groups()
            body = []
            for line in lines:
                if line == end:
                    break
                body.append(line + "\n")
            out.append(("write", path, "".join(body)))
        elif line.strip():
            argv = shlex.split(line, comments=True)
            assert argv[0] == "slipmil", f"not a slipmil command: {line!r}"
            out.append(("run", argv[1:]))
    return out


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.stdout.write(readme_script(fh.read()))
