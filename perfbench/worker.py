"""One workload run in a fresh process.

``worker.py --probe`` only sets up (imports ``qgm.cli``, builds the
canonical quiver and its weight action) and prints ``time.perf_counter()``
when done, so the caller can time set-up from process spawn.

Otherwise the worker sets up, then sends the requests of ``--requests``
(JSON lines written by the parent from ``gen.py``, read one at a time) to
``qgm.cli.main(argv)`` one request at a time (closed loop, one client,
one thread), capturing stdout and stderr, and writes one JSON line per
request to ``--results``.  The first ``--warmup`` requests are untimed.
With ``--trace 0`` it runs until ``--seconds`` have been measured or the
requests run out, and spreads SETUP_PROBES set-up probes evenly through
the run, so set-up time samples the host over the same stretch as the
requests do; reading requests and probing are not measured time.  With
``--trace 1`` it runs every request twice, once with the span recorder
installed and once without, in alternating order, so the overhead
compares the same work and the per-layer counts repeat exactly for a
seed.  The last stdout line is a JSON summary.  Inputs are generated and
outputs checked by the parent, not here, so the worker's peak RSS is the
program's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes spread through a timed run; with the worker's own set-up
# they are the samples whose median is setup_s.
SETUP_PROBES = 19


def setup():
    sys.path.insert(0, str(ROOT / "src"))
    from qgm import cli, quiver, toricgit

    toricgit.WeightAction.from_quiver(quiver.canonical_quiver())
    return cli


def probe_setup():
    """Seconds from spawning a ``--probe`` process until it is set up."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--probe"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError((proc.stderr.strip().splitlines() or ["set-up failed"])[-1])
    return float(proc.stdout.split()[-1]) - start


def call(cli, argv):
    """(exit code or None on a crash, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a counted failure, the loop goes on
        code = None
        err.write(traceback.format_exc())
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else None
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _emit(fh, index, request, code, stdout, stderr, seconds, phase):
    fh.write(json.dumps({
        "i": index, "phase": phase, "argv": request["argv"], "tags": request["tags"],
        "code": code, "stdout": stdout,
        "stderr": stderr if code is None else "", "seconds": seconds,
    }) + "\n")


def run_timed(cli, stream, seconds, fh, warmup):
    index = 0
    for request in itertools.islice(stream, warmup):
        code, out, err, sec = call(cli, request["argv"])
        _emit(fh, index, request, code, out, err, sec, "warmup")
        index += 1
    setup_samples = []
    paused = 0.0  # reading requests and probing set-up are not the program's time
    exhausted = False
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        measured = before - start - paused
        if measured >= seconds:
            break
        probes = len(setup_samples)
        if probes < SETUP_PROBES and measured >= seconds * probes / SETUP_PROBES:
            setup_samples.append(probe_setup())
        request = next(stream, None)
        paused += time.perf_counter() - before
        if request is None:
            exhausted = True
            break
        code, out, err, sec = call(cli, request["argv"])
        _emit(fh, index, request, code, out, err, sec, "timed")
        index += 1
    return {"wall_s": time.perf_counter() - start - paused, "paused_s": paused,
            "setup_samples": setup_samples, "requests_exhausted": exhausted}


def run_traced(cli, stream, fh, warmup, spans_path):
    from spans import TOP, SpanRecorder, layer_metrics, summarize

    for index, request in enumerate(itertools.islice(stream, warmup)):
        code, out, err, sec = call(cli, request["argv"])
        _emit(fh, -1 - index, request, code, out, err, sec, "warmup")
    recorder = SpanRecorder()
    plain_s = traced_s = 0.0
    mismatches = 0
    for index, request in enumerate(stream):
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                recorder.request = index
                recorder.install()
            try:
                runs[traced] = call(cli, request["argv"])
            finally:
                if traced:
                    recorder.restore()
        (code, out, err, sec), plain = runs[True], runs[False]
        plain_s += plain[3]
        traced_s += sec
        mismatches += plain[:2] != (code, out)
        _emit(fh, index, request, code, out, err, sec, "traced")
    recorder.write(spans_path)
    summary = summarize(recorder.spans)
    overhead = traced_s / plain_s - 1 if plain_s else 0.0
    return {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "top_span_s": summary["top"],
        "top_spans": summary["calls"].get(TOP, 0),
        "stdout_mismatches": mismatches,
        "per_layer": layer_metrics(summary, recorder.counts, overhead),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="one benchmark workload run")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--requests")
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    cli = setup()
    ready_at = time.perf_counter()
    if args.probe:
        print(ready_at)
        return 0
    with open(args.requests, encoding="utf-8") as lines, \
            open(args.results, "w", encoding="utf-8") as fh:
        stream = (json.loads(line) for line in lines)
        if args.trace:
            summary = run_traced(cli, stream, fh, args.warmup, args.spans)
        else:
            summary = run_timed(cli, stream, args.seconds, fh, args.warmup)
    summary["ready_at"] = ready_at
    summary["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
