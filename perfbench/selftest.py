"""Output self-test: run every workload at a tiny size, check the record.

    python3 perfbench/selftest.py

For each workload named in ``BENCHMARK.json`` and for ``--trace 0`` and
``--trace 1`` it runs ``perfbench/run.py --tiny`` and checks the last
line of standard output against ``BENCHMARK.json``: exactly the keys
``correct``/``attempted``/``failed``/``metrics``; ``correct`` true and
no failed operation; whole-number counts with at least one attempt; every metric of the mode once, with its
declared unit and a finite value; every end-to-end value above 0.
Exits 1 on the first malformed record.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _no_duplicates(pairs):
    keys = [key for key, _ in pairs]
    duplicated = {key for key in keys if keys.count(key) > 1}
    if duplicated:
        raise ValueError(f"duplicate keys {sorted(duplicated)}")
    return dict(pairs)


def check_record(line: str, declared: "list[dict]", positive: bool) -> "list[str]":
    """Problems with one printed result line; empty when it is well formed."""
    try:
        record = json.loads(line, object_pairs_hook=_no_duplicates)
    except ValueError as exc:
        return [f"last line is not one JSON object: {exc}"]
    problems = []
    if not isinstance(record, dict) or set(record) != {
        "correct",
        "attempted",
        "failed",
        "metrics",
    }:
        return [f"record keys are {sorted(record) if isinstance(record, dict) else record}"]
    if record["correct"] is not True:
        problems.append(f"correct is {record['correct']!r}, not true")
    for count in ("attempted", "failed"):
        if type(record[count]) is not int or record[count] < 0:
            problems.append(f"{count} is not a whole number: {record[count]!r}")
    if type(record["attempted"]) is int and record["attempted"] < 1:
        problems.append("attempted is below 1")
    if record["failed"] != 0:
        problems.append(f"{record['failed']} operations failed")
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    names = {metric["name"] for metric in declared}
    if set(metrics) != names:
        problems.append(
            f"metrics missing {sorted(names - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - names)}"
        )
    for metric in declared:
        entry = metrics.get(metric["name"])
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{metric['name']}: entry is {entry!r}")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value!r} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{metric['name']}: value {value!r} is not above 0")
        if entry["unit"] != metric["unit"]:
            problems.append(
                f"{metric['name']}: unit {entry['unit']!r}, declared {metric['unit']!r}"
            )
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = spec["command"] + [
                "--workload",
                workload["name"],
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                str(trace),
                "--tiny",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems = [f"exit code {done.returncode}: {done.stderr.strip()[-400:]}"]
            else:
                problems = check_record(lines[-1], declared, positive=trace == 0)
            status = "ok" if not problems else "FAIL"
            print(f"{workload['name']:<16} trace={trace}  {status}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    print("self-test passed" if not failures else f"self-test FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
