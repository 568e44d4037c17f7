"""``python -m repro.faults.scenarios`` starts without a runpy warning.

The package re-exports the scenario names lazily; an eager import would load
the module before ``-m`` runs it as ``__main__`` and ``runpy`` would warn.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_module_help_runs_without_runtime_warning():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.faults.scenarios", "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "RuntimeWarning" not in result.stderr
    assert "--seed" in result.stdout


def test_scenario_names_still_import_from_the_package():
    from repro.faults import ScenarioConfig, ScenarioReport, ScenarioRunner, run_scenario
    from repro.faults import scenarios

    assert (ScenarioConfig, ScenarioReport, ScenarioRunner, run_scenario) == (
        scenarios.ScenarioConfig, scenarios.ScenarioReport,
        scenarios.ScenarioRunner, scenarios.run_scenario,
    )
