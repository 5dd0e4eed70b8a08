"""The CI workflow holds no Python heredoc: its report steps run tests/reports.py."""
import re
from pathlib import Path

import reports

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_no_heredoc():
    assert re.search(r"<<-?\s*['\"]?\w", WORKFLOW.read_text()) is None


def test_steps_run_every_report_once():
    names = re.findall(r"python tests/reports\.py (\S+)", WORKFLOW.read_text())
    assert sorted(names) == sorted(reports.REPORTS)
