"""The qgm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the seeded requests of ``gen.py`` to a file, then starts
one workload process (``worker.py``) from the checkout's ``src/`` that
drives ``qgm.cli.main(argv)`` with them in a closed loop and probes
set-up time in fresh processes through the run.  Every output is then
checked, untimed, by ``reference.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
span recorder of ``spans.py`` over a fixed request list and reports the
per-layer metrics.  The run record (provenance, input mix, failures, the
median and tail request latency, the tail's percentile and sample count)
is printed as one JSON line and written to ``perfbench/out/``; the last
stdout line is the result: ``{"correct", "attempted", "failed", "metrics"}``.

The run exits non-zero without a result when the program cannot be set
up, for instance in a directory without ``src/qgm``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from gen import WORKLOADS, requests  # noqa: E402
from worker import probe_setup  # noqa: E402

# Untimed requests before the measured loop, so lazily built caches
# (lru_cache'd bases and matrices) are filled: about one block of the mix.
WARMUP = {"connect": 0, "points-relations": 15}
# Requests written for a timed run: seconds times ten times the rate of the
# code when the benchmark was written.  A run that uses them all up ends
# early and says so in its record.
MAX_RATE = {"connect": 12, "points-relations": 1500}
# Requests of the traced run, sized so that both passes take twenty to
# fifty seconds at the speed of the code when the benchmark was written:
# single connect requests vary by about 10% between back-to-back runs on
# a shared 2-vCPU host, and the span check must not fail on that noise.
TRACE_REQUESTS = {"connect": 24, "points-relations": 1500}
# The top-level spans of the traced run must add up to the untraced time
# of the same requests within this share, or the run fails.
TRACE_SLACK = 0.10
WORKER_TIMEOUT_S = 150
NOTES = ("No CPUs were pinned, no caches were dropped and no machine setting "
         "was changed. Worker processes run with PYTHONHASHSEED=0.")

# Per-request latency (median and tail) is kept in the run record, not
# here: on a shared 2-vCPU host whose speed drifts by about 25% between
# runs minutes apart, per-request quantiles spread beyond any allowed
# bound across seeds, while throughput, a mean over the whole run,
# stays within it.
END_TO_END = (
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class SetupFailed(RuntimeError):
    pass


def _env():
    return dict(os.environ, PYTHONHASHSEED="0")


def provenance():
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
        "notes": NOTES,
    }


def write_requests(args, path):
    workload = args.workload
    if args.trace:
        count = WARMUP[workload] + TRACE_REQUESTS[workload]
    else:
        count = WARMUP[workload] + math.ceil(args.seconds * MAX_RATE[workload])
    with open(path, "w", encoding="utf-8") as fh:
        for request in itertools.islice(requests(workload, args.seed), count):
            fh.write(json.dumps(request) + "\n")


def run_worker(args, inputs, results, spans):
    cmd = [sys.executable, str(HERE / "worker.py"), "--requests", str(inputs),
           "--warmup", str(WARMUP[args.workload]), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--results", str(results), "--spans", str(spans)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env())
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SetupFailed("workload process timed out") from None
    if proc.returncode != 0:
        raise SetupFailed(f"workload process exited {proc.returncode}")
    summary = json.loads(stdout.strip().splitlines()[-1])
    summary["setup_samples"] = [summary["ready_at"] - spawned] + summary.get("setup_samples", [])
    return summary


def check_outputs(records, seed):
    rng = random.Random(f"check:{seed}")
    failures = []
    for rec in records:
        reason = reference.check(rec["argv"], rec["code"], rec["stdout"], rng)
        if reason is not None:
            failures.append({"i": rec["i"], "phase": rec["phase"], "reason": reason,
                             "argv": [a[:120] for a in rec["argv"]],
                             "stderr": rec["stderr"][-400:]})
        rec["ok"] = reason is None
    return failures


def tail(latencies):
    """The highest order statistic with at least ten samples above it
    (the maximum when there are fewer than eleven), and its percentile."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(records, summary):
    """The end-to-end metrics, and the latency fields of the run record."""
    timed = [r for r in records if r["phase"] == "timed"]
    latencies = [r["seconds"] * 1000.0 for r in timed]
    tail_ms, tail_pct = tail(latencies)
    values = {
        "requests_per_s": sum(r["ok"] for r in timed) / summary["wall_s"],
        "setup_s": statistics.median(summary["setup_samples"]),
        "peak_rss_mib": summary["maxrss_kib"] / 1024.0,
    }
    extra = {"timed_requests": len(timed), "request_p50_ms": statistics.median(latencies),
             "request_tail_ms": tail_ms, "tail_percentile": tail_pct,
             "tail_samples_beyond": min(10, len(timed) - 1),
             "wall_s": summary["wall_s"], "paused_s": summary["paused_s"],
             "requests_exhausted": summary["requests_exhausted"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, extra


def input_mix(records):
    """Request counts per input property and exit code, and the median
    latency in ms of the measured requests per input property."""
    mix = Counter()
    latency = {}
    for rec in records:
        for key, value in rec["tags"].items():
            mix[f"{key}={value}"] += 1
            if rec["phase"] != "warmup":
                latency.setdefault(f"{key}={value}", []).append(rec["seconds"] * 1000.0)
        mix[f"{rec['argv'][0]} exit {rec['code']}"] += 1
        if rec["ok"] and rec["argv"][0] == "connectedness" and rec["code"] in (0, 1):
            if json.loads(rec["stdout"])["componentCount"] == 0:
                mix["empty semistable locus (componentCount 0)"] += 1
    return dict(sorted(mix.items())), {k: statistics.median(v) for k, v in sorted(latency.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description="qgm benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qgm" / "cli.py").is_file():
        print(f"error: no program under {ROOT / 'src' / 'qgm'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs, results = OUT / f"requests-{stem}.jsonl", OUT / f"results-{stem}.jsonl"
    spans = OUT / f"spans-{stem}.jsonl"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **provenance()}
    try:
        probe_setup()  # compiles bytecode on a fresh checkout; not counted
        write_requests(args, inputs)
        summary = run_worker(args, inputs, results, spans)
    except (SetupFailed, RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(results, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    failures = check_outputs(records, args.seed)
    ok = True
    if args.trace:
        metrics = summary.pop("per_layer")
        mismatches = summary["stdout_mismatches"]
        span_gap = summary["top_span_s"] / summary["untraced_s"] - 1
        record["trace_check"] = {**summary, "span_vs_untraced_frac": span_gap,
                                 "slack": TRACE_SLACK}
        traced = sum(r["phase"] == "traced" for r in records)
        ok = (mismatches == 0 and abs(span_gap) <= TRACE_SLACK
              and summary["top_spans"] == traced)
        if not ok:
            failures.append({"reason": "trace changed stdout or spans miss untraced time",
                             "stdout_mismatches": mismatches, "span_vs_untraced_frac": span_gap})
    else:
        metrics, extra = end_to_end(records, summary)
        record.update(extra)
    failed = sum(not r["ok"] for r in records) + (0 if ok else 1)
    record.update({
        "attempted": len(records), "failed": failed,
        "failed_frac": failed / max(len(records), 1),
        "setup_samples_s": summary["setup_samples"],
        "peak_rss_mib": summary["maxrss_kib"] / 1024.0,
        "failures": failures[:5], "metrics": metrics,
    })
    record["input_mix"], record["median_ms_by_input"] = input_mix(records)
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    inputs.unlink()
    if not failures:
        results.unlink()
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
