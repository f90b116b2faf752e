"""README's library example and CLI examples run as written, so that a
public name, a flag or an output line the docs show cannot change
unnoticed."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys

import pytest

from sepprob.cli import main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def library_example():
    """The fenced python block under README's "Library example" heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_readme_library_example_runs(tmp_path):
    # the child imports sepprob from where this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", library_example()],
                          capture_output=True, text=True, timeout=120,
                          env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def cli_examples():
    """{command: shown output lines} for every `$ sepprob ...` line in
    README's fenced sh blocks; the shown lines run to the next command or
    the end of the block, blank lines left out."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    examples = {}
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ sepprob "):
                shown = examples[line[len("$ sepprob "):]] = []
            elif line and shown is not None:
                shown.append(line)
    return examples


CLI_EXAMPLES = cli_examples()


def shows(output, shown):
    """True when the shown lines occur in output in order: a `...` line
    allows a gap, and the lines between two gaps are consecutive."""
    chunks = [[]]
    for line in shown:
        if line == "...":
            chunks.append([])
        else:
            chunks[-1].append(line)
    at = 0
    for chunk in chunks:
        while output[at:at + len(chunk)] != chunk:
            if at + len(chunk) >= len(output):
                return False
            at += 1
        at += len(chunk)
    return True


@pytest.mark.parametrize("command", sorted(CLI_EXAMPLES))
def test_readme_cli_example_prints_what_it_shows(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(shlex.split(command))
    assert (rc, err.getvalue()) == (0, "")
    assert shows(out.getvalue().splitlines(), CLI_EXAMPLES[command]), \
        out.getvalue()
