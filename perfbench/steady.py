"""Steadiness check: two sets of runs per workload, judged against the bounds.

    python3 perfbench/steady.py                        # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads cbrd_query

Runs ``BENCHMARK.json``'s command once per seed (``--first-seed``,
``--first-seed + 1``, ...) and set, for ``run_seconds`` each.  The sets
use the same seeds and take turns: seed ``i`` runs set A then set B for
even ``i`` and B then A for odd ``i``, so a drift of the machine's speed
lands on both.  Per set and end-to-end metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median; with two sets, also how much
worse set B's median is than set A's, as a share of set A's.

A check FAILS, and the exit code is 1, when

- a spread is above the metric's bound (``setup_s`` is exempt: it is
  judged by its median only);
- set B's median is worse than set A's by more than the bound;
- a run is not correct, fails an operation, or the failed share differs
  between runs.

A run that exits with another code than 0, or leaves a process of its
session running after it has exited, stops the script.

A spread above a third of its bound is marked ``wide``: a regression of
the bound's size would barely stand out of that noise.  It is reported,
not failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = spec["command"] + [
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    t0 = time.perf_counter()
    # A session of its own, so that any process the run leaves behind
    # can be found by its session id once the run has exited.  Output
    # goes to unnamed files, not pipes: a leftover process holding a
    # pipe open would make reading it wait for that process too.
    with tempfile.TemporaryFile("w+", dir=ROOT) as out, tempfile.TemporaryFile(
        "w+", dir=ROOT
    ) as err:
        process = subprocess.Popen(
            command, cwd=ROOT, stdout=out, stderr=err, start_new_session=True
        )
        process.wait(timeout=900)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if process.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {process.returncode}:\n{stderr}")
    left = session_members(process.pid)
    if left:
        raise SystemExit(f"{workload} seed {seed} left processes running: {left}")
    done = subprocess.CompletedProcess(command, 0, stdout, stderr)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - t0
    return record


def session_members(session: int) -> "list[str]":
    """Live processes of a session, as ``pid command`` strings."""
    members = []
    for entry in pathlib.Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        name, fields = stat.split(" (", 1)[1].rsplit(")", 1)
        state, _ppid, _pgrp, sid = fields.split()[:4]
        if int(sid) == session and state not in ("Z", "X"):
            members.append(f"{entry.name} {name}")
    return members


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def judge_workload(spec: dict, workload: str, sets: "list[list[dict]]") -> int:
    """Print one workload's table; the number of failed checks."""
    failures = 0
    records = [record for runs in sets for record in runs]
    shares = sorted({r["failed"] / r["attempted"] for r in records})
    walls = [r["wall_s"] for r in records]
    print(
        f"\n{workload}: {len(sets)} set(s) x {len(sets[0])} runs, run wall "
        f"{min(walls):.1f}-{max(walls):.1f} s, attempted "
        f"{min(r['attempted'] for r in records)}-"
        f"{max(r['attempted'] for r in records)}, failed share {shares}"
    )
    bad_runs = sum(1 for r in records if not r["correct"] or r["failed"])
    if bad_runs or len(shares) != 1:
        failures += 1
        print(f"  FAIL: {bad_runs} run(s) incorrect or with failed operations")
    header = f"  {'metric':<14}{'bound':>7}"
    for name in "AB"[: len(sets)]:
        header += f"{name + ' median':>12}{'q1':>11}{'q3':>11}{'spread':>8}"
    print(header + ("   B worse by" if len(sets) == 2 else ""))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        line = f"  {name:<14}{bound:>7.2f}"
        notes = []
        medians = []
        for label, runs in zip("AB", sets):
            median, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
            medians.append(median)
            line += f"{median:>12.4f}{q1:>11.4f}{q3:>11.4f}{share:>8.3f}"
            if name != "setup_s" and share > bound:
                failures += 1
                notes.append(f"{label} FAIL spread")
            elif name != "setup_s" and share > bound / 3:
                notes.append(f"{label} wide")
        if len(sets) == 2:
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            line += f"{worse:>+13.3f}"
            if worse > bound:
                failures += 1
                notes.append("FAIL median")
        print(line + ("  " + ", ".join(notes) if notes else ""))
    return failures


def main(argv: "list[str]") -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workloads:
        sets: "list[list[dict]]" = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for number in order:
                sets[number].append(
                    run_once(spec, workload, args.first_seed + i, args.seconds)
                )
        failures += judge_workload(spec, workload, sets)
    print(f"\n{failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
