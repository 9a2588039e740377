"""``python -m benchmarks.e2e run | compare | aa`` (with ``PYTHONPATH=src``).

``run`` is the interleaved form of the benchmark: all four workloads live in
their own long-lived child process and the driver walks them round-robin —
A B C D A B C D ... — so a noise phase on the shared box spoils one or two
rounds of every workload instead of every round of one.  Only one child is
ever runnable while anything is measured.  With ``--trace`` each child closes
with its traced pass.  ``compare`` judges result files against the bounds in
``BENCHMARK.json``; ``aa`` runs the same checkout twice and checks that the
benchmark agrees with itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.utils.atomic_io import atomic_write_text

from benchmarks.e2e.corpus import WORKLOADS
from benchmarks.e2e.measure import commit_of, fingerprint
from benchmarks.e2e.runner import OUT_DIR, ROOT, contract

RUN = Path(__file__).resolve().parent / "run.py"
DEFAULT_SEED = 20120901
ROUNDS = 30  # measured rounds per workload; at about a second each, >= 30 s per workload
SMOKE_ROUNDS = 2


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _await_ready(name: str, child: subprocess.Popen) -> None:
    line = child.stdout.readline()
    if line.strip() != "ready":
        raise SystemExit(f"{name}: child ended before it was ready: {line!r}")


def _go(children: dict[str, subprocess.Popen]) -> None:
    """One step of every child, in turn: only one is ever runnable."""
    for name, child in children.items():
        child.stdin.write("go\n")
        child.stdin.flush()
        _await_ready(name, child)


def run_once(seed: int, smoke: bool, trace: bool) -> dict:
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    command = [sys.executable, str(RUN), "--seed", str(seed), "--trace", str(int(trace)), "--step"]
    children: dict[str, subprocess.Popen] = {}
    try:
        for name in WORKLOADS:  # all four import at once; nothing is measured yet
            children[name] = subprocess.Popen(
                [*command, "--workload", name] + (["--smoke"] if smoke else []),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
            )
        for name, child in children.items():
            _await_ready(name, child)
        _go(children)  # set-ups and warm-up round
        for _round in range(rounds):
            _go(children)
        for name, child in children.items():  # with --trace: the traced pass, then the report
            report, _ = child.communicate("stop\n", timeout=180)
            if child.returncode != 0:
                raise SystemExit(f"{name}: child failed\n{report}")
    finally:
        for child in children.values():
            if child.poll() is None:
                # end of input makes a child leave through its clean-up path
                # (pool, shared memory, scratch catalog); kill only one that hangs
                child.stdin.close()
                try:
                    child.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
    return {
        "fingerprint": fingerprint(),
        "commit": commit_of(ROOT),
        "seed": seed,
        "smoke": smoke,
        "rounds": rounds,
        "workloads": {
            name: json.loads((OUT_DIR / f"last_{name}_trace{int(trace)}.json").read_text())
            for name in WORKLOADS
        },
    }


def print_result(result: dict) -> None:
    print(
        f"seed {result['seed']}, {result['rounds']} interleaved rounds, "
        f"commit {result['commit']}, fingerprint {result['fingerprint']}"
    )
    for name, workload in result["workloads"].items():
        print(
            f"\n== {name}: {workload['queries_per_round']} queries/round, "
            f"{workload['attempted']} operations, {workload['failed']} failed"
        )
        for section in ("end_to_end", "per_layer"):
            for key, entry in workload.get(section, {}).items():
                spread = f"  spread {entry['spread']:.3f}" if "spread" in entry else ""
                print(f"{name}/{key:40s} {entry['value']:14.6g} {entry['unit']}{spread}")


def cmd_run(args) -> int:
    result = run_once(args.seed, args.smoke, args.trace)
    print_result(result)
    out = args.out or OUT_DIR / f"result_{args.seed}.json"
    atomic_write_text(out, json.dumps(result, indent=1) + "\n")
    print(f"\nresult written to {out}")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def judge(base: dict, other: dict, better: str, bound: float) -> tuple[float, str]:
    """(relative change of ``other`` against ``base``, verdict)."""
    change = (other["value"] - base["value"]) / base["value"]
    worse = change if better == "lower" else -change
    widest = max(base["spread"], other["spread"])
    if worse > bound:
        # a gap the run-to-run spread could produce alone decides nothing
        return change, "regressed" if worse > widest else "unresolved"
    if widest > bound:
        return change, "unresolved"
    # a single observation has no spread of its own to beat: use the bound
    own_noise = base["spread"] if len(base["rounds"]) > 1 else bound
    return change, "improved" if -worse > own_noise else "unchanged"


def compare(base: dict, other: dict, spec: dict) -> tuple[list[dict], bool]:
    """One row per workload x end-to-end metric; True when something regressed."""
    rows, regressed = [], False
    for name in base["workloads"]:
        a, b = base["workloads"][name], other["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            change, verdict = judge(
                a["end_to_end"][key], b["end_to_end"][key], metric["better"], metric["bound"]
            )
            regressed |= verdict == "regressed"
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": metric["unit"],
                    "base": a["end_to_end"][key],
                    "other": b["end_to_end"][key],
                    "change": change,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
        failed_a, failed_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        if failed_b > failed_a:
            regressed = True
            print(f"{name}: failed_ops_ratio rose from {failed_a:.6f} to {failed_b:.6f}")
    return rows, regressed


def print_rows(rows: list[dict], base_name: str, other_name: str) -> None:
    print(f"\nbase {base_name}  vs  {other_name}")
    for row in rows:
        a, b = row["base"], row["other"]
        print(
            f"{row['workload'] + '/' + row['metric']:42s} "
            f"{a['value']:10.4g} [{a['q1']:.4g}, {a['q3']:.4g}] -> "
            f"{b['value']:10.4g} [{b['q1']:.4g}, {b['q3']:.4g}] {row['unit']:5s} "
            f"{row['change']:+7.1%} of base {a['value']:.4g}  bound {row['bound']:.2f}  "
            f"{row['verdict']}"
        )


def cmd_compare(args) -> int:
    spec = contract()
    results = [json.loads(Path(path).read_text()) for path in args.results]
    base, exit_code = results[0], 0
    for path, other in zip(args.results[1:], results[1:]):
        print(f"commits: {base['commit']} vs {other['commit']}")
        for field in ("fingerprint", "seed", "smoke", "rounds"):
            if base[field] != other[field] and not args.force:
                raise SystemExit(
                    f"{path}: {field} differs from {args.results[0]} "
                    f"({other[field]!r} vs {base[field]!r}); rerun or pass --force"
                )
        rows, regressed = compare(base, other, spec)
        print_rows(rows, args.results[0], path)
        exit_code |= regressed
    return exit_code


# ----------------------------------------------------------------------
# aa
# ----------------------------------------------------------------------
def cmd_aa(_args) -> int:
    """Same checkout, same seed, twice: every difference is the benchmark's own."""
    spec = contract()
    first = run_once(DEFAULT_SEED, smoke=False, trace=False)
    second = run_once(DEFAULT_SEED, smoke=False, trace=False)
    rows, _ = compare(first, second, spec)
    print_rows(rows, "first", "second")
    observed = {f"{row['workload']}/{row['metric']}": abs(row["change"]) for row in rows}
    beyond = {
        f"{row['workload']}/{row['metric']}": abs(row["change"])
        for row in rows
        if abs(row["change"]) > row["bound"]
    }
    atomic_write_text(
        OUT_DIR / "aa.json",
        json.dumps(
            {
                "fingerprint": first["fingerprint"],
                "commit": first["commit"],
                "seed": first["seed"],
                "rounds": first["rounds"],
                "observed_difference": observed,
                "beyond_bound": beyond,
            },
            indent=1,
        )
        + "\n",
    )
    print(f"\nA/A differences written to {OUT_DIR / 'aa.json'}")
    print(f"beyond their bound: {beyond or 'none'}")
    return 1 if beyond else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    sub = commands.add_parser("run")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--smoke", action="store_true", help="tiny sizes, two rounds")
    sub.add_argument("--trace", action="store_true", help="add the traced per-layer pass")
    sub.add_argument("--out", type=Path, help="result file [out/result_<seed>.json]")
    sub.set_defaults(handler=cmd_run)
    commands.add_parser("aa").set_defaults(handler=cmd_aa)
    sub = commands.add_parser("compare")
    sub.add_argument("results", nargs="+", help="base result file, then the ones to judge")
    sub.add_argument(
        "--force", action="store_true", help="compare despite a differing machine, seed or size"
    )
    sub.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
