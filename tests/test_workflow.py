"""The CI workflow holds no Python heredoc: its report steps run tests/reports.py,
and its property sweep names only tests that exist."""
import importlib
import re
from pathlib import Path

import reports

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_no_heredoc():
    assert re.search(r"<<-?\s*['\"]?\w", WORKFLOW.read_text()) is None


def test_steps_run_every_report_once():
    names = re.findall(r"python tests/reports\.py (\S+)", WORKFLOW.read_text())
    assert sorted(names) == sorted(reports.REPORTS)


def test_property_sweep_names_only_existing_tests():
    # a renamed property test failed only in CI, where pytest found no such node
    step = re.search(r"- name: Property sweep.*?(?=\n\s*- name:)", WORKFLOW.read_text(), re.S).group()
    node_ids = re.findall(r"tests/(\w+)\.py((?:::\w+)+)", step)
    assert node_ids
    for module, path in node_ids:
        target = importlib.import_module(module)
        for name in path.split("::")[1:]:
            target = getattr(target, name)
        assert callable(target), f"{module}{path}"
