import json
import tracemalloc

from qgm.cli import main


def run_cli(tmp_path, *args, out_name="out.json"):
    out = tmp_path / out_name
    code = main(list(args) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


def test_connectedness_defaults(tmp_path):
    code, data, out = run_cli(tmp_path, "connectedness")
    assert code == 0
    assert data["componentCount"] == 18
    assert data["minimalPrimeCount"] == 512
    assert data["connected"] is True
    assert data["h0Verdict"] == "One"
    assert out.read_text().endswith("\n")


def test_connectedness_non_generic_theta(tmp_path):
    code = main(["connectedness", "--theta", "0,0,0,0,0,0,0,0,0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_connectedness_empty_ideal(tmp_path):
    code, data, _ = run_cli(tmp_path, "connectedness", "--ideal", "empty")
    assert code == 0
    assert data["componentCount"] == 1


def test_connectedness_ideal_from_json(tmp_path):
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(json.dumps({"numVars": 18, "generators": [[0, 9]]}))
    code, data, _ = run_cli(tmp_path, "connectedness", "--ideal", str(ideal_path))
    assert code == 0
    assert data["minimalPrimeCount"] == 2
    assert data["componentCount"] == 2


def test_connectedness_disconnected_ideal_exits_one(tmp_path):
    gens = [[0, 7], [0, 15], [1, 9], [5, 12], [5, 16], [6, 7],
            [8, 14], [11, 17], [12, 16]]
    ideal = json.dumps({"numVars": 18, "generators": gens})
    code, data, _ = run_cli(tmp_path, "connectedness", "--ideal", ideal)
    assert code == 1
    assert data["connected"] is False
    assert data["componentCount"] == 36


def test_connectedness_parse_error(tmp_path):
    code = main(["connectedness", "--theta", "1,2,bad",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    code = main(["connectedness", "--ideal", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_relations_basic(tmp_path):
    code, data, _ = run_cli(tmp_path, "relations",
                            "--a", "2", "--b", "3", "--c", "5", "--d", "7")
    assert code == 0
    assert data["identitiesVerified"] is True
    assert len(data["vector27"]) == 27
    assert all(v not in ("0", "0/1") for v in data["vector27"])
    assert len(data["torusPoint"]) == 8
    twos = [t for t in data["triples"] if t["source"] == 2]
    assert all((t["s"], t["t"], t["u"]) == ("1", "1", "1") for t in twos)


def test_relations_degenerate(tmp_path):
    code = main(["relations", "--a", "2", "--b", "3", "--c", "2", "--d", "3",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    code = main(["relations", "--a", "0", "--b", "3", "--c", "5", "--d", "7",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_relations_parse_error(tmp_path):
    code = main(["relations", "--a", "nope", "--b", "3", "--c", "5", "--d", "7",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_relations_distinct_inputs_distinct_points(tmp_path):
    _, data1, _ = run_cli(tmp_path, "relations", "--a", "2", "--b", "3",
                          "--c", "5", "--d", "7", out_name="p1.json")
    _, data2, _ = run_cli(tmp_path, "relations", "--a", "3", "--b", "2",
                          "--c", "7", "--d", "5", out_name="p2.json")
    assert data1["torusPoint"] != data2["torusPoint"]


def test_lattice_reports(tmp_path):
    code, data, _ = run_cli(tmp_path, "lattice", "--quiver", "Qtilde")
    assert code == 0
    assert data["rankK"] == 19
    assert data["rankM"] == 8
    assert data["strongConvexity"] is True
    assert data["canonicalTriviality"] is True
    assert len(data["mBasis"]) == 8
    code, data, _ = run_cli(tmp_path, "lattice", "--quiver", "Q")
    assert code == 0
    assert data["rankT"] == 10
    assert data["canonicalTriviality"] is True


def test_picard_checks(tmp_path):
    code, data, _ = run_cli(tmp_path, "picard", "--check", "roots")
    assert code == 0
    assert data["roots"]["count"] == 72
    code, data, _ = run_cli(tmp_path, "picard", "--check", "gram")
    assert code == 0
    assert data["gram"]["pass"] is True
    code, data, _ = run_cli(tmp_path, "picard", "--check", "chain")
    assert code == 0
    assert len(data["chain"]["stages"]) == 6
    code, data, _ = run_cli(tmp_path, "picard", "--check", "all")
    assert code == 0


def test_stability_point(tmp_path):
    point = json.dumps({"values": ["1"] * 18})
    code, data, _ = run_cli(tmp_path, "stability", "--point", point,
                            "--method", "both")
    assert code == 0
    assert data["cone"] == {"semistable": True, "stable": True}
    assert data["king"] == {"semistable": True, "stable": True}
    assert data["agreement"] is True

    zero = json.dumps({"values": ["0"] * 18})
    code, data, _ = run_cli(tmp_path, "stability", "--point", zero,
                            "--method", "both")
    assert code == 0
    assert data["cone"] == {"semistable": False, "stable": False}
    assert data["agreement"] is True

    support = json.dumps({"support": [0]})
    code, data, _ = run_cli(tmp_path, "stability", "--point", support,
                            "--method", "cone")
    assert code == 0
    assert data["cone"]["semistable"] is False


def test_stability_fuzz(tmp_path):
    code, data, _ = run_cli(tmp_path, "stability", "--fuzz", "60", "--seed", "42")
    assert code == 0
    assert data["agreementCount"] == 60


def test_stability_malformed_point(tmp_path):
    code = main(["stability", "--point", "{\"values\": [1, 2]}",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    code = main(["stability", "--point", "{not json",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3
    code = main(["stability", "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_json_integer_over_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json.loads raises a plain ValueError (not JSONDecodeError) for an
    # integer literal beyond Python's int/str digit limit
    huge = "9" * 5000
    out = str(tmp_path / "x.json")
    point = "{\"values\": [" + huge + "]}"
    assert main(["stability", "--point", point, "--out", out]) == 3
    ideal = "{\"numVars\": 18, \"generators\": [[" + huge + "]]}"
    assert main(["connectedness", "--ideal", ideal, "--out", out]) == 3
    path = tmp_path / "point.json"
    path.write_text(point)
    assert main(["stability", "--point", str(path), "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_flag_rejected(tmp_path):
    assert main(["lattice", "--nonsense"]) == 3
    assert main(["nonsense-command"]) == 3


def test_outputs_are_deterministic(tmp_path):
    _, _, out1 = run_cli(tmp_path, "lattice", "--quiver", "Qtilde", out_name="a.json")
    _, _, out2 = run_cli(tmp_path, "lattice", "--quiver", "Qtilde", out_name="b.json")
    assert out1.read_bytes() == out2.read_bytes()
    _, _, r1 = run_cli(tmp_path, "relations", "--a", "2", "--b", "3",
                       "--c", "5", "--d", "7", out_name="r1.json")
    _, _, r2 = run_cli(tmp_path, "relations", "--a", "2", "--b", "3",
                       "--c", "5", "--d", "7", out_name="r2.json")
    assert r1.read_bytes() == r2.read_bytes()


def test_help_exits_cleanly():
    assert main(["--help"]) == 0
    assert main(["picard", "--help"]) == 0


def test_picard_chain_failure_exits_one(tmp_path, monkeypatch):
    import qgm.picard as picard_mod
    from qgm.picard import ChainMismatch

    def boom():
        raise ChainMismatch("stage 3, position 1: synthetic failure")

    monkeypatch.setattr(picard_mod, "mutation_chain_transcript", boom)
    out = tmp_path / "chain.json"
    code = main(["picard", "--check", "chain", "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["chain"]["pass"] is False
    assert "stage 3" in data["chain"]["failure"]


def test_stdout_output(capsys):
    code = main(["lattice", "--quiver", "Q"])
    assert code == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["rankT"] == 10
    assert captured.out.endswith("\n")


def test_stability_non_summing_theta_is_a_precondition_failure(tmp_path):
    point = json.dumps({"values": ["1"] * 18})
    code = main(["stability", "--point", point, "--theta", "1,0,0,0,0,0,0,0,0",
                 "--method", "king", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_connectedness_rejects_non_integer_variables(tmp_path, capsys):
    for bad in ("1.5", "true"):
        ideal = '{"numVars": 18, "generators": [[%s]]}' % bad
        code = main(["connectedness", "--ideal", ideal])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "bad ideal" in captured.err


def test_unwritable_out_path_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code = main(["lattice", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 3
    assert not target.exists()
    assert "Traceback" not in captured.err
    assert "cannot write" in captured.err


def test_stability_point_values_must_be_a_list(capsys):
    for point in ('{"values": 5}', '{"values": "123456789012345678"}'):
        code = main(["stability", "--point", point])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback" not in captured.err


def test_stability_point_json_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text("5")
    assert main(["stability", "--point", str(path)]) == 3
    assert "must be an object" in capsys.readouterr().err


def test_stability_support_must_hold_ints(capsys):
    for support in ("[1.5, 2, 3]", "[true, 2, 3]", '"123"'):
        for method in ("king", "cone", "both"):
            code = main(["stability", "--method", method,
                         "--point", '{"support": %s}' % support])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert "bad support" in captured.err


def test_stability_negative_fuzz_is_a_parse_error(capsys):
    assert main(["stability", "--fuzz", "-3"]) == 3
    assert capsys.readouterr().out == ""


def test_theta_of_wrong_length_is_a_parse_error(capsys):
    point = json.dumps({"support": [0, 1]})
    for argv in (["stability", "--point", point],
                 ["stability", "--point", point, "--method", "cone"],
                 ["stability", "--fuzz", "3"],
                 ["connectedness"]):
        for theta in ("1,-1", "1,-1,0,0,0,0,0,0,0,0"):
            code = main(argv + ["--theta", theta])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert "needs 9 entries" in captured.err


def test_theta_entries_are_ascii_integers(capsys):
    # the integer rule of rationals: an optional sign and ASCII digits,
    # no underscores, padding or other digit scripts
    for theta in ("-1_1,-11,-11,3,3,6,7,7,7", " -11,-11,-11,3,3,6,7,7,7 ",
                  "-11,-11,-11,3,3,6,7,7,\u0663", "-11,-11,-11,3,3,6,7,7," + "7" * 801):
        for argv in (["connectedness"], ["stability", "--fuzz", "1"]):
            code = main(argv + ["--theta=" + theta])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert "bad theta" in captured.err


def test_ideal_shape_is_checked_before_the_ideal_is_built(tmp_path, capsys):
    # numVars is compared with the 18 arrow coordinates before the ideal
    # allocates its per-variable bit sets
    ideal = '{"numVars": 1000000, "generators": []}'
    assert main(["connectedness", "--ideal", ideal]) == 3  # warms the parser
    tracemalloc.start()
    try:
        code = main(["connectedness", "--ideal", ideal])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2 ** 20
    assert "ideal must live on the arrow coordinates" in capsys.readouterr().err
    path = tmp_path / "ideal.json"
    for data in ("[18]", '"numVars"', "18", "null"):
        path.write_text(data)
        assert main(["connectedness", "--ideal", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad ideal" in captured.err


def test_stability_fuzz_non_summing_theta_is_a_precondition_failure(capsys):
    code = main(["stability", "--fuzz", "3", "--theta", "1,0,0,0,0,0,0,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err


def test_parser_is_reused_without_carrying_values(tmp_path, capsys):
    from qgm.cli import build_parser

    assert build_parser() is build_parser()
    support = '{"support": [0, 1, 2, 3, 4, 5, 6, 7, 8]}'
    out = tmp_path / "fuzz.json"
    assert main(["stability", "--fuzz", "3", "--seed", "7", "--method", "cone",
                 "--theta", "default", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7
    capsys.readouterr()

    # No --fuzz, --method, --seed or --out: the defaults, not the values
    # of the previous call, answer.
    assert main(["stability", "--point", support]) == 0
    first = capsys.readouterr().out
    assert set(json.loads(first)) == {"agreement", "cone", "king"}

    assert main(["stability", "--method", "bogus", "--point", support]) == 3
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: qgm")

    assert main(["stability", "--point", support]) == 0
    assert capsys.readouterr().out == first
    assert main(["stability", "--fuzz", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "agreementCount": 2, "agreementRate": "2/2", "points": 2, "seed": 42}

    assert main(["lattice", "--quiver", "Q"]) == 0
    assert "mBasis" not in json.loads(capsys.readouterr().out)
    assert main(["lattice"]) == 0
    assert json.loads(capsys.readouterr().out)["quiver"] == "Qtilde"
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == help_text


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    point = "{\"values\": " + "[" * 20000 + "]" * 20000 + "}"
    out = str(tmp_path / "x.json")
    assert main(["stability", "--point", point, "--out", out]) == 3
    path = tmp_path / "deep.json"
    path.write_text(point)
    assert main(["stability", "--point", str(path), "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err


def _digits(n, lead):
    return lead + "7" * (n - 2) + "1"


def test_rationals_are_integers_or_p_over_q_of_at_most_800_digits(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    params = [f"{_digits(800, lead)}/{_digits(800, str(int(lead) + 1))}"
              for lead in "1234"]
    params[3] = "-" + params[3]
    argv = ["relations"] + [f"--{k}={v}" for k, v in zip("abcd", params)] + ["--out", out]
    assert main(argv) == 0
    assert json.loads((tmp_path / "x.json").read_text())["identitiesVerified"] is True
    for bad in (_digits(801, "3"), f"2/{_digits(801, '3')}", f"-{_digits(801, '3')}/5",
                "1.5", "1e3", "1e1000000000", " 2", "1_0", "٣"):
        assert main(["relations", f"--a={bad}", "--b=3", "--c=5", "--d=7",
                     "--out", out]) == 3, bad
    big = "{\"values\": [" + "9" * 801 + "]}"
    assert main(["stability", "--point", big, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
