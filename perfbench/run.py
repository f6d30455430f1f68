"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (from a separate traced run that also measures the
same traffic untraced, for the overhead ratio).  ``--tiny`` shrinks
every input for the output self-test.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; oracle
disagreements go to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Set-up runs this many times per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3


def _units(metrics: "list[dict]") -> "dict[str, str]":
    return {metric["name"]: metric["unit"] for metric in metrics}


def _parse(argv: "list[str]", workloads: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _warm_up(workload: str) -> None:
    """Finish the program's lazy one-time set-up before anything is timed."""
    if workload == "fleet":
        from repro.fleet import FleetRunner

        FleetRunner(n_devices=1, n_rounds=1, batch_size=2, seed=10**6).run()


def _make(args: argparse.Namespace):
    import pb_fleet
    import pb_index

    if args.workload == "fleet":
        return pb_fleet.FleetBench(args.seed, args.tiny)
    if args.workload == "cbrd_query":
        return pb_index.CbrdQueryWorkload(args.seed, args.tiny)
    if args.workload == "ingest":
        return pb_index.IngestWorkload(args.seed, args.tiny)
    return pb_index.IngestDurableWorkload(
        args.seed, args.tiny, pb_index.scratch_dir(ROOT, args.workload)
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv: "list[str]") -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [workload["name"] for workload in spec["workloads"]])
    # One thread per numeric-library call: the fleet's device threads
    # already use every CPU, and spinning library threads on top of
    # them would oversubscribe.  Set before numpy is first imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    import pb_common as pc

    _import_program()
    _warm_up(args.workload)
    one_time_s = time.perf_counter() - _STARTED

    workload = _make(args)
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            repeats.append(time.perf_counter() - t0)
        setup_s = one_time_s + statistics.median(repeats)
        # The inputs live for the whole run; keep the collector from
        # rescanning them during the timed phase.
        gc.collect()
        gc.freeze()
        if args.trace:
            tally, problems, layers = workload.measure_traced(args.seconds)
        else:
            tally, problems = workload.measure(args.seconds)
    finally:
        workload.close()

    for problem in problems[:20]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if tally.recall_misses:
        print(
            f"perfbench: {args.workload}: {tally.recall_misses} re-captures missed "
            "by the LSH shortlist, answered as documented",
            file=sys.stderr,
        )
    if hasattr(tally, "bytes_sent"):
        print(
            f"perfbench: fleet: {tally.bytes_sent / tally.attempted:.0f} B/image "
            f"uplink (Direct Upload {tally.nominal_bytes / tally.attempted:.0f}), "
            f"{tally.joules / tally.attempted:.3f} J/image",
            file=sys.stderr,
        )

    if args.trace:
        metrics = {
            name: _metric(layers.get(name, 0.0), unit)
            for name, unit in _units(spec["per_layer"]).items()
        }
    else:
        own_mib = getattr(workload, "peak_mib", 0.0) or pc.self_peak_rss_mib()
        workers_mib = getattr(workload, "peak_children_mib", 0.0)
        values = {
            "setup_s": setup_s,
            "images_per_s": tally.ops_per_s(),
            "query_p50_ms": 1e3 * pc.percentile(tally.query_s, 50),
            "query_p95_ms": 1e3 * pc.percentile(tally.query_s, 95),
            "add_p50_ms": 1e3 * pc.percentile(tally.add_s, 50),
            "peak_rss_mib": own_mib + workers_mib,
        }
        metrics = {
            name: _metric(values[name], unit)
            for name, unit in _units(spec["end_to_end"]).items()
        }
    # Every check failure is counted against an operation, so a run is
    # correct only with no failed operation and no problem reported.
    correct = tally.failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(tally.attempted),
                "failed": int(tally.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        if "pb_common" in sys.modules:
            sys.modules["pb_common"].stop_child_processes()
    sys.exit(code)
