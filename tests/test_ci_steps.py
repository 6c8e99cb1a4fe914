"""The CI workflow's checking steps, run by the tier-1 command.

Every step of ``.github/workflows/tier1.yml`` after the tier-1 pytest step
pins something the unit tests do not: output digests, step logs, time
bounds and refusals.  Each ``run:`` block runs here as in CI: with bash,
from the repository root, with ``RUNNER_TEMP`` and ``GITHUB_STEP_SUMMARY``
pointing into a temporary directory.  The workflow stays the one place
where a pin is written.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
AFTER = "Tier-1 tests"
TOOLS = ("bash", "sha256sum", "timeout")


def steps(text):
    """(name, run block) for each step of the workflow with a ``run:`` key,
    in order.  Reads the subset of YAML the workflow uses: ``- name:``
    items whose ``run:`` is one line or a ``|`` literal block."""
    found = []
    name = None
    lines = text.splitlines()
    k = 0
    while k < len(lines):
        line = lines[k]
        k += 1
        item = re.match(r"\s*- name: (.*)", line)
        if item:
            name = item.group(1).strip()
            continue
        key = re.match(r"(\s*)(?:- )?run: ?(.*)", line)
        if not key:
            continue
        if key.group(2).strip() != "|":
            found.append((name, key.group(2).strip()))
            continue
        # A literal block: the lines indented past the key, less the first
        # one's indentation; blank lines stay.
        block, indent = [], None
        while k < len(lines):
            body = lines[k]
            if body.strip():
                depth = len(body) - len(body.lstrip(" "))
                if depth <= len(key.group(1)):
                    break
                indent = depth if indent is None else indent
                block.append(body[indent:])
            else:
                block.append("")
            k += 1
        found.append((name, "\n".join(block).rstrip("\n") + "\n"))
    return found


EVERY = steps(WORKFLOW.read_text())
CHECKING = EVERY[[name for name, _ in EVERY].index(AFTER) + 1 :]


def test_the_reader_finds_the_steps():
    assert EVERY[1][0] == AFTER and EVERY[1][1].startswith("PYTHONPATH=src")
    assert len(CHECKING) >= 20
    assert all(block.strip() for _, block in CHECKING)


@pytest.mark.parametrize("name, block", CHECKING, ids=[name for name, _ in CHECKING])
def test_ci_step(name, block, tmp_path):
    missing = [tool for tool in TOOLS if shutil.which(tool) is None]
    if missing:
        pytest.skip(f"the step needs {', '.join(missing)}")
    script = tmp_path / "step.sh"
    script.write_text(block)
    env = dict(os.environ)
    # The steps call python and python3: the interpreter running the tests.
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    env["RUNNER_TEMP"] = str(tmp_path)
    env["GITHUB_STEP_SUMMARY"] = str(tmp_path / "summary.md")
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, (
        f"step {name!r} exited {done.returncode}\n"
        f"--- stdout\n{done.stdout[-4000:]}\n--- stderr\n{done.stderr[-4000:]}"
    )
