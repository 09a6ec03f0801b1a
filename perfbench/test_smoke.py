"""Smoke tests of the benchmark: every workload at tiny sizes, untraced and
traced, must pass all its witnesses and print exactly the metrics that
BENCHMARK.json names."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    *_, summary_line, result_line = done.stdout.splitlines()
    summary, result = json.loads(summary_line)["summary"], json.loads(result_line)
    assert summary["fail_frac"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace:
        # self times, CLI remainder included, add up to the traced pass time
        self_s = sum(
            v["value"]
            for k, v in result["metrics"].items()
            if k.endswith("_s") and not k.startswith("run.") and k != "solid3d.flat_s"
        )
        assert self_s == pytest.approx(summary["traced_pass_s"], rel=1e-9)


def test_wrong_outputs_are_failures():
    sys.path.insert(0, str(HERE))
    import jobs
    import run

    runner = run.Runner(None, [], {}, decimal=False)
    for job in jobs.build("seq-big", 1, Path("."), tiny=True):
        if job.check == "stdout":
            runner.expected[job.label] = "1\t2\n"
            assert runner.check_output(job, 0, ["1\t2\n"])
            assert not runner.check_output(job, 0, ["1\t3\n"])
            assert not runner.check_output(job, 1, ["1\t2\n"])
        if job.check == "last_line":
            runner.expected[job.label] = f"{job.lines} 5"
            good = "".join(f"{n} 5\n" for n in range(1, job.lines + 1))
            assert runner.check_output(job, 0, [good])
            assert not runner.check_output(job, 0, [good[: good.rindex("5")] + "6\n"])
            assert not runner.check_output(job, 0, [good.split("\n", 1)[1]])
    text, js = jobs.build("verify-all", 1, Path("."), tiny=True)
    if text.check != "verify_text":
        text, js = js, text
    assert runner.check_output(text, 0, [f"total: {text.checks} checks, 0 failed\n"])
    assert not runner.check_output(text, 0, [f"total: {text.checks} checks, 1 failed\n"])
    summary = json.dumps({"checks": js.checks, "failed": 0, "suite": js.argv[1]})
    assert runner.check_output(js, 0, [f'{{"x":1}}\n{summary}\n'])
    assert not runner.check_output(js, 0, [f'{{"x":2}}\n{summary}\n'])  # bytes changed


def test_seed_fixes_the_jobs(tmp_path):
    sys.path.insert(0, str(HERE))
    import jobs

    for workload in WORKLOADS:
        first = jobs.build(workload, 3, tmp_path)
        assert first == jobs.build(workload, 3, tmp_path)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
