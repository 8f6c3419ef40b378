"""Smoke tests running the example scripts end to end (as subprocesses)."""

import subprocess
import sys
from pathlib import Path

import pytest


EXAMPLES_DIRECTORY = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *arguments, timeout=300):
    """Run an example script and return its stdout."""
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIRECTORY / name), *arguments],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_quickstart_detects_the_car_fire(self):
        output = run_example("quickstart.py")
        assert "car_fire(dangan)" in output
        assert "give_notification(dangan)" in output
        assert "traffic_jam(newcastle)" not in output

    def test_dependency_analysis_prints_figures(self):
        output = run_example("dependency_analysis.py")
        assert "Extended dependency graph" in output
        assert "duplicated predicates: car_number" in output
        assert "self-loop" in output

    def test_traffic_monitoring_stream(self):
        output = run_example("traffic_monitoring.py", "--windows", "2", "--window-size", "300")
        assert "acc PR_Dep" in output
        # Dependency partitioning keeps accuracy at 1.0 in every window row.
        data_rows = [line for line in output.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
        assert data_rows
        assert all("1.000" in row for row in data_rows)

    def test_custom_rules_example(self):
        output = run_example("custom_rules.py")
        assert "accuracy PR_Dep:          1.000" in output

    def test_paper_experiments_figure(self):
        output = run_example("paper_experiments.py", "--figure", "8", "--window-sizes", "200,400")
        assert "Figure 8: accuracy (program P)" in output
        assert "PR_Dep" in output

    def test_multi_tenant_query_server(self):
        output = run_example("multi_tenant.py", "--windows", "2", "--window-size", "100")
        assert "the two traffic tenants share one" in output
        assert "(evaluation shared by 2)" in output
        assert "unregistering fraud_desk/alerts mid-stream" in output
        assert "(unregistered -- no further results)" in output
        # The metrics sample is real Prometheus text exposition output.
        assert 'streamrule_tenant_windows_dispatched_total{tenant="city"}' in output
        assert "# TYPE streamrule_queries_registered gauge" in output

    @pytest.mark.slow  # spawns local worker processes
    def test_processes_survive_a_worker_kill(self):
        output = run_example("processes.py", "--windows", "4", "--window-size", "300")
        assert "killing worker process 0 mid-stream" in output
        assert "wire statistics:" in output
        assert "symbol syncs:" in output and "delta share:" in output  # the TCP backend's WireStats keys
        # The kill degrades partitions to inline evaluation, never wedges.
        assert "inline fallbacks after the kill: 0" not in output
        data_rows = [line for line in output.splitlines() if line.strip() and line.lstrip()[0].isdigit()]
        assert len(data_rows) == 4  # every window produced a solution row
