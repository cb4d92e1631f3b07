"""Tests of the benchmark itself: generator, span recorder, reference."""

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qgm import cli  # noqa: E402


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _first(workload, seed, count):
    return list(itertools.islice(gen.requests(workload, seed), count))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    count = 7 if workload == "connect" else 40
    assert _first(workload, 5, count) == _first(workload, 5, count)
    assert _first(workload, 5, count) != _first(workload, 6, count)


def test_generated_inputs_have_the_stated_properties():
    requests = _first("connect", 3, 13)
    assert requests[0]["tags"] == {"theta": "paper"}
    thetas = [r for r in requests if "theta" in r["tags"]]
    assert len(thetas) == 9 and len({r["argv"][1] for r in thetas}) == 9
    for req in thetas:
        theta = reference._theta(req["argv"])
        assert reference.quiver_generic(theta)
        assert sum(theta[:3]) < 0 or req["tags"]["theta"] == "wild"
    low, high = gen.WIDE_PRIMES
    ideals = [r for r in requests if "ideal" in r["tags"]]
    assert [r["tags"]["ideal"] for r in ideals] == ["wide", "many", "wide", "many"]
    for req in ideals:
        assert reference._theta(req["argv"]) == reference.PAPER_THETA
        masks = reference._ideal_masks(req["argv"])
        primes = len(reference.minimal_members(reference.transversals(masks)))
        if req["tags"]["ideal"] == "wide":
            assert low <= primes <= high
        else:
            assert primes > 1000
    block = [r["argv"][0] for r in _first("points-relations", 3, len(gen.POINTS_BLOCK))]
    assert sorted(block) == sorted(["stability"] * 10 + ["relations"] * 2
                                   + ["lattice"] * 2 + ["picard"])


def test_reference_constants_hold():
    assert len(reference.spanning_trees()) == 8748
    assert reference.root_count() == 72
    assert reference._lattice_constants_hold()
    paper = reference.expected_connectedness(reference.PAPER_THETA, reference.builtin_ideal())
    for key, value in reference.PAPER_CONNECTEDNESS.items():
        assert paper[key] == value


def _corrupt(report, path, value):
    data = json.loads(report)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(data)


CASES = [
    (["stability", '--point={"support":[0,4,8,9,13,17,1,5]}', "--method=both",
      "--theta=-11,-11,-11,3,3,6,7,7,7"], ("cone", "semistable")),
    (["stability", '--point={"values":["1","0","2","3","0","1","1","1","1","1","1","1",'
      '"1","1","1","1","1","1"]}', "--method=both", "--theta=-11,-11,-11,3,3,6,7,7,7"],
     ("king", "stable")),
    (["relations", "--a=-3/2", "--b=3/7", "--c=5", "--d=-7/11"], ("vector27", 4)),
    (["relations", "--a=2", "--b=3", "--c=5", "--d=7"], ("triples", 0, "t")),
    (["lattice", "--quiver=Q"], ("rankK",)),
    (["lattice", "--quiver=Qtilde"], ("mBasis", 0, 0)),
    (["picard", "--check=all"], ("roots", "count")),
]


@pytest.mark.parametrize("argv, path", CASES)
def test_reference_accepts_output_and_flags_a_corrupted_one(argv, path):
    code, out = _call(argv)
    rng = random.Random(0)
    assert reference.check(argv, code, out, rng) is None
    original = json.loads(out)
    for key in path:
        original = original[key]
    if isinstance(original, bool):
        bad = not original
    elif isinstance(original, int):
        bad = original + 1
    else:
        bad = "5/3" if original != "5/3" else "7/3"
    assert reference.check(argv, code, _corrupt(out, path, bad), rng) is not None
    assert reference.check(argv, 1 if code == 0 else 0, out, rng) is not None


def test_reference_flags_a_corrupted_connectedness_verdict():
    argv = ["connectedness", '--ideal={"numVars":18,"generators":[[0,1,2,3],[4,5,6,7,8],'
            '[9,10,11,12],[1,13,14,15],[3,16,17,2],[5,9,13,17]]}']
    code, out = _call(argv)
    assert reference.check(argv, code, out) is None
    for path, value in ((("componentCount",), 0), (("connected",), False),
                        (("edges",), []), (("minimalPrimeCount",), 7),
                        (("relevantOctupleCount",), 1)):
        assert reference.check(argv, code, _corrupt(out, path, value)) is not None
    assert reference.check(argv, None, out) == "crashed"


def test_reference_expects_exit_2_on_degenerate_relations():
    for argv in (["relations", "--a=1", "--b=3", "--c=5", "--d=7"],
                 ["relations", "--a=2", "--b=3", "--c=2", "--d=3"]):
        code, out = _call(argv)
        assert code == 2
        assert reference.check(argv, code, out) is None
        assert reference.check(argv, 0, out) is not None


def test_wrappers_keep_stdout_and_restore_every_original():
    requests = [r["argv"] for r in _first("points-relations", 2, 12)]
    requests.append(["connectedness", '--ideal={"numVars":18,"generators":[[0,1,2,3],'
                     '[4,5,6,7,8],[9,10,11,12],[1,13,14,15]]}'])
    plain = [_call(argv) for argv in requests]
    recorder = spans.SpanRecorder()
    sites = recorder.bound_sites()
    names = {name for _m, _p, name in spans.TARGETS}
    assert len(sites) >= len(names)
    recorder.install()
    try:
        traced = []
        for index, argv in enumerate(requests):
            recorder.request = index
            traced.append(_call(argv))
    finally:
        recorder.restore()
    assert traced == plain
    assert all(getattr(owner, attr) is original for owner, attr, original in sites)
    recorded = {span[0] for span in recorder.spans}
    assert {"cli.main", "pipeline.run_connectedness", "exactlin.conic_feasible",
            "cubicrel.relation_coefficients", "multipoly.TriPoly.mul"} <= recorded
    summary = spans.summarize(recorder.spans)
    assert summary["calls"]["cli.main"] == len(requests)
    top = sum(end - start for name, start, end, parent, _r in recorder.spans if parent < 0)
    assert summary["top"] == pytest.approx(top)
    for name, value in summary["self"].items():
        assert value >= -1e-6, name
    metrics = spans.layer_metrics(summary, recorder.counts, 0.0)
    assert list(metrics) == [name for name, _unit in spans.PER_LAYER]
    assert metrics["pipeline.run_connectedness.calls"]["value"] == 1
    assert metrics["monomial.primes"]["value"] > 0


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert spec["paths"] == [BENCH.name]
