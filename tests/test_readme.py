"""The README's examples run and give the results they quote."""

import json
import re
from pathlib import Path

from airyqc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading):
    # the first fenced block after the heading, as a list of lines
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1).splitlines()


def _command(lines, prefix):
    # (argv, the comment after '#') of the command line starting with prefix
    line = next(line for line in lines if line.startswith(prefix))
    command, comment = line.split("#", 1)
    return command.split()[1:], comment.strip()


def test_library_quick_start():
    # each commented expression evaluates to the repr its comment gives; an
    # assignment's comment is only a description
    namespace, checked = {}, []
    for line in _block("Library quick start"):
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        if comment:
            assert repr(value) == comment.strip(), line
            checked.append(comment.strip())
    assert checked == ["Fraction(29, 5760)", "True", "True"]


def test_command_line_results(capsys):
    lines = _block("Command line")
    argv, comment = _command(lines, "airyqc correlator 2 4")
    assert main(argv) == 0
    assert comment == "-> 1/1152"
    assert capsys.readouterr().out == "1/1152\n"

    argv, comment = _command(lines, "airyqc table omega 2 1 --format json")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [json.loads(comment)]
