"""Tiny-size pass of every workload, checking the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload at 4 trials and one experiment it checks, in both trace
modes, that every metric named in BENCHMARK.json is emitted with its unit and
that the outputs are judged correct. For the traced mode it reloads the span
file and checks that the reported self times add up to the traced experiment
wall time. It then checks the command-line protocol: the last line of a run
is the result object, and a copy of the benchmark without the package's
sources exits non-zero without printing one. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metrics(where: str, metrics: dict, specs: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        raise AssertionError(f"{where}: metrics {sorted(set(metrics) ^ set(want))} "
                             "differ from BENCHMARK.json")
    for name, unit in want.items():
        got = metrics[name]
        if got["unit"] != unit or not isinstance(got["value"], float):
            raise AssertionError(f"{where}: {name} reported as {got}, want a float in {unit}")


def check_additivity(where: str, metrics: dict, path) -> None:
    spans = np.load(path)
    parent = spans["parent"]
    roots = (spans["end"] - spans["start"])[parent < 0]
    total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    if not np.isclose(total, roots.mean(), rtol=1e-9, atol=0.0):
        raise AssertionError(f"{where}: self times add to {total}, traced wall {roots.mean()}")


def check_workloads() -> None:
    for workload in run.WORKLOADS.values():
        tiny = replace(workload, flags={**workload.flags, "trials": 4})
        for trace, specs in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            where = f"{workload.name} trace {int(trace)}"
            result = run.bench(tiny, seed=0, seconds=0, trace=trace, setup_reps=1)
            if set(result) != RESULT_KEYS or result["attempted"] < 1 or not result["correct"]:
                raise AssertionError(f"{where}: bad result {result}")
            check_metrics(where, result["metrics"], specs)
            if trace:
                check_additivity(where, result["metrics"],
                                 run.OUT / f"trace-{workload.name}-seed0.npz")


def check_protocol() -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "entropy-certify",
           "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or set(result) != RESULT_KEYS:
        raise AssertionError(f"run.py exited {done.returncode} with {result}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("without the package's sources run.py must fail silently "
                             f"on stdout; got exit {done.returncode}, {done.stdout!r}")


if __name__ == "__main__":
    check_workloads()
    check_protocol()
    print("selfcheck: ok")
