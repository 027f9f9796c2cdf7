"""Every example script must run clean end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples should narrate what they do"


def test_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "city_patrol",
        "bank_distraction",
        "threshold_alerts",
    } <= names
