"""README's library example runs as written, so that a public name the
docs use cannot be removed unnoticed."""

import os
import re
import subprocess
import sys

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
