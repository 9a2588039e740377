"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Runs every workload at ``--smoke`` sizes through the interleaved driver and
holds the result to ``BENCHMARK.json``: every declared name is emitted with
its declared unit, nothing fails, nothing is left behind.  The entry point
the driver uses and the verdicts of ``compare`` are checked beside it.  No
timing is asserted.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from repro.utils.atomic_io import atomic_write_text

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e.measure import stat_fields

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ROUND_METRICS = (
    "query_p50_ms",
    "throughput_qps",
    "cpu_ms_per_query",
    "mutation_p50_ms",
    "recovery_s",
)


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_driver_entry(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    """``run.py`` as the driver starts it, from the root of a checkout.  It
    gets a session of its own, and nothing of that session may outlive it:
    no worker, no resource tracker, not even as a zombie."""
    with subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", *arguments],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        stdout, stderr = child.communicate(timeout=170)
    stats = {int(e): stat_fields(int(e)) for e in sorted(os.listdir("/proc")) if e.isdigit()}
    left = [pid for pid, fields in stats.items() if fields and int(fields[3]) == child.pid]  # sid
    assert not left, f"processes left running: {left}"
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


def test_contract_is_within_the_drivers_limits(contract):
    assert set(contract) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in contract["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory) -> dict:
    """``python -m benchmarks.e2e run --smoke --trace``: four step-mode children
    walked round-robin, each closing with its traced pass."""
    segments_before = sorted(os.listdir("/dev/shm"))
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    assert cli.main(["run", "--smoke", "--trace", "--seed", "7", "--out", str(out)]) == 0
    assert sorted(os.listdir("/dev/shm")) == segments_before
    assert not sorted((HERE / "out").glob("tmp_*"))
    return json.loads(out.read_text())


def test_interleaved_run_emits_every_declared_metric_for_every_workload(contract, smoke_result):
    end_to_end = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    assert smoke_result["seed"] == 7 and smoke_result["smoke"] and smoke_result["rounds"] == 2
    assert set(smoke_result["fingerprint"]) == {"usable_cores", "machine", "python", "numpy"}
    assert smoke_result["commit"]
    assert list(smoke_result["workloads"]) == [entry["name"] for entry in contract["workloads"]]
    for name, workload in smoke_result["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] >= 1, name
        assert {key: entry["unit"] for key, entry in workload["end_to_end"].items()} == end_to_end
        assert {key: entry["unit"] for key, entry in workload["per_layer"].items()} == per_layer
        for key, entry in workload["end_to_end"].items():
            assert entry["value"] > 0, (name, key)
            assert entry["q1"] <= entry["value"] <= entry["q3"]
            if key in ROUND_METRICS:  # one sample a round; the value is their median
                assert len(entry["rounds"]) == 2
        assert workload["per_layer"]["failed_ops_ratio"]["value"] == 0
        assert (HERE / "out" / f"trace_{name}.json").is_file()


def test_driver_entry_ends_with_the_contracts_json_object(contract):
    done = run_driver_entry(
        ROOT, "--workload", "filter_heavy", "--seed", "7", "--seconds", "0", "--trace", "0",
        "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in report["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in contract["end_to_end"]
    }
    assert all(set(entry) == {"value", "unit"} for entry in report["metrics"].values())


def test_driver_entry_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_driver_entry(
        tmp_path, "--workload", "verify_heavy", "--seed", "7", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


# ----------------------------------------------------------------------
# compare: verdicts and refusals, on made-up results
# ----------------------------------------------------------------------
def entry(value: float, spread: float = 0.02, rounds: int = 12) -> dict:
    half = value * spread / 2
    return {
        "value": value,
        "unit": "ms",
        "q1": value - half,
        "q3": value + half,
        "spread": spread,
        "rounds": [value] * rounds,
    }


@pytest.mark.parametrize(
    ("base", "other", "better", "verdict"),
    [
        (entry(100), entry(101), "lower", "unchanged"),
        (entry(100), entry(111), "lower", "regressed"),
        (entry(100), entry(89), "higher", "regressed"),
        (entry(100), entry(90), "lower", "improved"),
        (entry(100), entry(111), "higher", "improved"),
        # a gap the runs' own spread could have produced decides nothing ...
        (entry(100, spread=0.15), entry(111), "lower", "unresolved"),
        # ... and neither does agreement between runs that cannot resolve the bound
        (entry(100), entry(101, spread=0.15), "lower", "unresolved"),
        # better, but by less than the base's own run-to-run spread
        (entry(100, spread=0.08), entry(95), "lower", "unchanged"),
        # a single observation has no spread: only the bound can speak
        (entry(100, spread=0.0, rounds=1), entry(95, spread=0.0, rounds=1), "lower", "unchanged"),
        (entry(100, spread=0.0, rounds=1), entry(85, spread=0.0, rounds=1), "lower", "improved"),
    ],
)
def test_judge(base, other, better, verdict):
    change, judged = cli.judge(base, other, better, bound=0.10)
    assert judged == verdict
    assert change == pytest.approx((other["value"] - base["value"]) / base["value"])


def made_up_result(spec: dict, **overrides) -> dict:
    workload = {
        "attempted": 100,
        "failed": 0,
        # a spread inside the tightest bound, so that every pairing can be resolved
        "end_to_end": {
            metric["name"]: entry(100.0, spread=0.005) for metric in spec["end_to_end"]
        },
    }
    result = {
        "fingerprint": {"usable_cores": 2, "machine": "x86_64", "python": "3.11", "numpy": "1.26"},
        "commit": "a" * 40,
        "seed": 7,
        "smoke": False,
        "rounds": 12,
        "workloads": {"verify_heavy": workload},
    }
    result.update(overrides)
    return result


def test_compare_reports_every_pairing_and_fails_on_a_regression_or_new_failures(contract):
    base, other = made_up_result(contract), made_up_result(contract)
    rows, regressed = cli.compare(base, other, contract)
    assert not regressed
    assert [(row["workload"], row["metric"]) for row in rows] == [
        ("verify_heavy", metric["name"]) for metric in contract["end_to_end"]
    ]
    assert {row["verdict"] for row in rows} == {"unchanged"}

    other["workloads"]["verify_heavy"]["end_to_end"]["setup_s"] = entry(140.0)
    rows, regressed = cli.compare(base, other, contract)
    assert regressed
    assert [row["metric"] for row in rows if row["verdict"] == "regressed"] == ["setup_s"]

    other = made_up_result(contract)
    other["workloads"]["verify_heavy"]["failed"] = 1
    assert cli.compare(base, other, contract)[1]


def test_compare_refuses_another_machine_or_seed_but_not_another_commit(contract, tmp_path):
    def written(name: str, **overrides) -> str:
        path = tmp_path / name
        atomic_write_text(path, json.dumps(made_up_result(contract, **overrides)))
        return str(path)

    base = written("base.json")
    assert cli.main(["compare", base, written("commit.json", commit="b" * 40)]) == 0
    for name, overrides in (
        ("seed.json", {"seed": 8}),
        ("smoke.json", {"smoke": True}),
        ("rounds.json", {"rounds": 2}),
        ("cores.json", {"fingerprint": {"usable_cores": 8}}),
    ):
        other = written(name, **overrides)
        with pytest.raises(SystemExit, match="differs"):
            cli.main(["compare", base, other])
        assert cli.main(["compare", "--force", base, other]) == 0
