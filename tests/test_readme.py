"""The README's quick start and validate example run as written and print
what they show."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_prints_its_documented_output():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```\s*Output:\s*```\n(.*?)```", section, re.S)
    assert match, "quick start needs a python block followed by an Output: block"
    code, expected = match.groups()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected


def test_validate_example_prints_its_documented_output(capsys):
    from wedgeperm.cli import EXIT_OK, main

    readme = (ROOT / "README.md").read_text()
    section = readme.split("### `validate`", 1)[1].split("\n## ", 1)[0]
    command, expected = re.search(r"```sh\n\$ wedgeperm (.*?)\n(.*?)```", section, re.S).groups()
    assert main(command.split()) == EXIT_OK
    assert capsys.readouterr().out == expected
