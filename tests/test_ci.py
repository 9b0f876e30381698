"""The CI workflow's shell, and its shell-sensitive pins run as CI runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"
# What GitHub runs a step's script with under `shell: bash`.
CI_SHELL = ("bash", "--noprofile", "--norc", "-eo", "pipefail")


def _steps() -> dict[str, list[str]]:
    """Each step's name and the lines of its `run: |` script, unindented."""
    steps: dict[str, list[str]] = {}
    name = None
    for line in WORKFLOW.read_text().splitlines():
        if line.startswith("      - name: "):
            name = line.removeprefix("      - name: ")
            steps[name] = []
        elif name is not None and line.startswith("          "):
            steps[name].append(line[10:])
    return steps


@pytest.fixture
def shim(tmp_path):
    """An environment whose `relprime` on PATH runs this checkout's sources."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "relprime"
    script.write_text(f"#!{sys.executable}\nfrom relprime.cli import entry_point\nentry_point()\n")
    script.chmod(0o755)
    return dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
                PYTHONPATH=str(REPO / "src"), RUNNER_TEMP=str(tmp_path))


def _run(shell, lines, env):
    return subprocess.run([*shell, "-c", "\n".join(lines)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_every_step_runs_under_bash_with_pipefail():
    # The runner's default shell is bash -e, without pipefail; one job-level
    # setting gives every step the shell that CI_SHELL spells out.
    text = WORKFLOW.read_text()
    assert "\n  tests:\n    runs-on: ubuntu-latest\n" in text
    assert "\n    defaults:\n      run:\n        shell: bash\n" in text
    assert text.count("shell:") == 1  # and no step picks another


def test_closed_pipe_pin_reads_141(shim):
    step = _steps()["Installed script with the int-string limit lifted, and with a closed pipe"]
    pin = step[step.index("status=0"):]
    result = _run(CI_SHELL, [*pin, 'echo "$status"'], shim)
    assert (result.returncode, result.stdout, result.stderr) == (0, "141\n", "")
    assert (Path(shim["RUNNER_TEMP"]) / "pipe.err").read_bytes() == b""
    # Without pipefail the pipe's status is that of head, and the pin fails.
    assert _run(("bash", "--noprofile", "--norc", "-e"), pin, shim).returncode == 1


def test_refusal_pins_hold(shim):
    # Each refused request does no count, so all of them together take about
    # a second; the steps' other pins count for seconds each.
    lines = [line for script in _steps().values() for line in script
             if "refused" in line and not line.startswith("#")]
    assert sum(line.startswith("refused() ") for line in lines) == 1
    assert "refused compute f --n 4 --k 2" in lines
    assert "refused affine dist --n 5 --set 1" in lines
    assert "refused compute f --n x --n 5" in lines
    assert "refused affine dist --n 3 --inequivalent --inequivalent" in lines
    assert "refused" in lines and "refused bench --n 5 --k 2" in lines
    result = _run(CI_SHELL, lines, shim)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_help_pins_hold(shim):
    (line,) = [line for script in _steps().values() for line in script
               if "--help" in line and not line.startswith("#")]
    result = _run(CI_SHELL, [line], shim)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    help_out = Path(shim["RUNNER_TEMP"]) / "help.out"
    assert help_out.read_text().startswith("usage: relprime verify ")
