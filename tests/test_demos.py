"""Every demo runs cleanly against the package as it stands."""

from pathlib import Path

import pytest

from helpers import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_without_warnings(demo):
    result = run_python(["-W", "error", str(demo)])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
