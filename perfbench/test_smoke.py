"""Smoke test of the benchmark itself, at tiny sizes, through the same code.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import repro  # noqa: E402
from repro.core.placement import Placement  # noqa: E402

TINY = {
    "plan-10k": workloads.PlanSpec("plan-10k", nodes=300, nominal_plan_s=1.0, min_instances=2),
    "plan-100k": workloads.PlanSpec("plan-100k", nodes=500, nominal_plan_s=60.0, setup_repeats=2),
    "serve-10k": workloads.ServeSpec(
        "serve-10k", nodes=300, min_windows=4, nominal_window_s=60.0, instances=2, traced_windows=1
    ),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, name: str, trace: int, table=TINY) -> dict:
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        workloads=table,
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tiny_table_covers_every_workload():
    assert set(TINY) == set(run.default_workloads())
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, name, trace):
    result = run_tiny(capsys, name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_traced_plan_counts_leave_churn_and_serve_idle(capsys):
    metrics = run_tiny(capsys, "plan-10k", 1)["metrics"]
    assert metrics["knn.queries"]["value"] > 0
    for name, metric in metrics.items():
        if name.startswith(("changeset.", "serve.")):
            assert metric["value"] == 0, name


def _planned(seed: int = 5):
    workload, latency = workloads.make_instance(300, seed)
    config = workloads.nova_config(seed)
    planned = repro.plan(workload, "nova", config=config, latency=latency)
    return workload, config, planned


def test_intact_plan_passes_the_checks():
    workload, config, planned = _planned()
    assert checks.check_plan(
        planned.placement, planned.resolved.replicas, workload.topology, config
    ) == []


def test_dropped_cell_fails_the_grid_check():
    workload, config, planned = _planned()
    corrupted = planned.placement.copy()
    victim = next(iter(corrupted.sub_replicas))
    corrupted.discard_subs([(victim.sub_id, victim.node_id)])
    problems = checks.check_plan(
        corrupted, planned.resolved.replicas, workload.topology, config
    )
    assert any(victim.replica_id in problem for problem in problems)


def test_piled_up_placement_fails_the_capacity_check():
    workload, config, planned = _planned()
    subs = list(planned.placement.sub_replicas)
    corrupted = Placement(sub_replicas=[replace(sub, node_id=subs[0].node_id) for sub in subs])
    problems = checks.check_plan(
        corrupted, planned.resolved.replicas, workload.topology, config
    )
    assert any("capacity" in problem for problem in problems)


def test_ingestion_overload_is_counted():
    workload, config, planned = _planned()
    assert checks.ingestion_overloads(planned.placement, workload.plan, workload.topology) == []
    source = next(iter(workload.plan.sources()))
    node = workload.topology.node(source.pinned_node)
    # Within capacity on its own, over it once the source's ingestion counts.
    charge = node.capacity - source.data_rate / 2
    sub = replace(next(iter(planned.placement.sub_replicas)), node_id=node.node_id, charged_capacity=charge)
    corrupted = Placement(sub_replicas=[sub])
    assert checks.check_capacity(corrupted, workload.topology) == []
    assert checks.ingestion_overloads(corrupted, workload.plan, workload.topology) == [node.node_id]


def test_corrupted_plan_is_reported_as_failed(capsys, monkeypatch):
    original = repro.plan

    def corrupting_plan(*args, **kwargs):
        planned = original(*args, **kwargs)
        victim = next(iter(planned.placement.sub_replicas))
        planned.placement.discard_subs([(victim.sub_id, victim.node_id)])
        return planned

    monkeypatch.setattr(repro, "plan", corrupting_plan)
    result = run_tiny(capsys, "plan-10k", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_missing_window_fails_the_replay_check():
    spec = TINY["serve-10k"]
    setup = workloads.serve_setup(spec, seed=3, k=0, windows=3)
    result = workloads.RunResult()
    served = workloads.serve(spec, setup, result)
    assert result.failed == 0 and len(served.deltas) == 3
    live = setup.planned.session.placement
    assert checks.check_replay(setup.base, served.deltas, live) == []
    assert checks.check_replay(setup.base, served.deltas[:-1], live) != []


def test_timings_scale_with_the_probe_around_them():
    reference = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.at_reference_speed(2.0, reference, reference) == 2.0
    # Probes that took 1.5x the reference on average: the host ran slow.
    assert hostspeed.at_reference_speed(3.0, reference, 2 * reference) == pytest.approx(2.0)


def test_refuses_to_run_with_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("NOVA_PACKING_WORKERS", "2")
    code = run.main(["--workload", "plan-10k", "--seed", "1", "--seconds", "1"], workloads=TINY)
    assert code != 0
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
