"""Command-line interface: goldens, determinism, provenance, exit codes."""

import json
from fractions import Fraction as F

import pytest

from voablocks.cli import (CHARACTER_CAP_MAX, CONTINUE_STEPS_MAX, SERIES_ORDER_MAX, main,
                           run_report)
from voablocks.jsonio import dumps


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCharacter:
    def test_heisenberg_json(self, capsys):
        code, out = run(capsys, "character", "--model", "heisenberg",
                        "--cap", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "voa-blocks/1"
        coeffs = [int(c["num"]) for c in doc["character"]["coeffs"]]
        assert coeffs == [1, 1, 2, 3, 5, 7, 11]
        assert all(c["provenance"] == "exact"
                   for c in doc["character"]["coeffs"])

    def test_normalized_offset(self, capsys):
        code, out = run(capsys, "character", "--model", "virasoro",
                        "--cap", "4", "--normalize")
        doc = json.loads(out)
        off = doc["character"]["offset"]
        assert (int(off["num"]), int(off["den"])) == (-1, 48)

    def test_csv(self, capsys):
        code, out = run(capsys, "character", "--model", "heisenberg",
                        "--cap", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,coeff", "0,1", "1,1", "2,2", "3,3"]

    def test_cap_at_ceiling_runs(self, capsys):
        code, out = run(capsys, "character", "--model", "virasoro",
                        "--cap", str(CHARACTER_CAP_MAX))
        assert code == 0
        assert len(json.loads(out)["character"]["coeffs"]) == CHARACTER_CAP_MAX + 1

    def test_bad_cap_is_config_error(self, capsys):
        code, _ = run(capsys, "character", "--model", "heisenberg",
                      "--cap", "0")
        assert code == 2

    def test_negative_rational_c_as_separate_value(self, capsys):
        # the Lee-Yang central charge; argparse must not read it as a flag
        code, out = run(capsys, "character", "--model", "virasoro",
                        "--c", "-22/5", "--cap", "4")
        assert code == 0
        assert (0, out) == run(capsys, "character", "--model", "virasoro",
                               "--c=-22/5", "--cap", "4")

    def test_negative_rational_mu_as_separate_value(self, capsys):
        code, out = run(capsys, "character", "--model", "fock",
                        "--mu", "-1/2", "--cap", "4")
        assert code == 0
        assert (0, out) == run(capsys, "character", "--model", "fock",
                               "--mu=-1/2", "--cap", "4")


class TestCoord:
    def test_extract_golden(self, capsys):
        code, out = run(capsys, "coord", "extract",
                        "--series", "z + z^2 + z^3", "--count", "2")
        assert code == 0
        doc = json.loads(out)
        got = [F(int(c["num"]), int(c["den"])) for c in doc["coeffs"]]
        assert got == [F(1), F(1), F(0)]

    def test_huang_passes(self, capsys):
        code, out = run(capsys, "coord", "huang",
                        "--alpha", "z + 1/2*z^2", "--cap", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ("coord", "extract", "--series", "-z+z^2"),
    ("coord", "extract", "--series", "-z", "--count", "3"),
    ("coord", "huang", "--alpha", "-z+1/2*z^2", "--cap", "2"),
    ("schwarzian", "--series", "-z+z^3"),
    ("uniformize", "--series", "-1/2*z^2", "--order", "6"),
])
def test_negative_series_as_separate_value(capsys, argv):
    # a series text with a leading minus is a value, as in the "=" form
    i = argv.index("--series" if "--series" in argv else "--alpha")
    joined = argv[:i] + (f"{argv[i]}={argv[i + 1]}",) + argv[i + 2:]
    want = run(capsys, *joined)
    assert want[0] == 0
    assert run(capsys, *argv) == want


def test_help_still_parses_as_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schwarzian", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: voablocks schwarzian")
    with pytest.raises(SystemExit) as exc:
        main(["schwarzian", "--series", "-h"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_schwarzian_golden(capsys):
    code, out = run(capsys, "schwarzian", "--series", "z + z^3")
    assert code == 0
    s = json.loads(out)["series"]
    assert int(s["coeffs"][0]["num"]) == 6
    assert int(s["coeffs"][2]["num"]) == -72


def test_series_order_at_ceiling_runs(capsys):
    code, out = run(capsys, "schwarzian", "--series", "z + z^2",
                    "--order", str(SERIES_ORDER_MAX))
    assert code == 0
    assert json.loads(out)["series"]["order"] == SERIES_ORDER_MAX - 3


def test_uniformize_roundtrip(capsys):
    code, out = run(capsys, "uniformize", "--series", "6*z")
    assert code == 0
    assert json.loads(out)["series"]["var"] == "z"


class TestBlocks:
    def test_three_point_fixture(self, capsys, tmp_path):
        fx = tmp_path / "tp.json"
        fx.write_text(json.dumps({
            "model": "heisenberg",
            "v": {"1": {"num": "1", "den": "1"}},
            "z0": {"num": "2", "den": "1"},
            "w": {"1": {"num": "1", "den": "1"}},
            "wp": {"": {"num": "1", "den": "1"}}}))
        code, out = run(capsys, "blocks", "three-point", "--fixture", str(fx))
        assert code == 0
        v = json.loads(out)["value"]
        assert (int(v["num"]), int(v["den"])) == (1, 4)

    def test_residue_check_failure_exit(self, capsys, tmp_path):
        fx = tmp_path / "rc.json"
        fx.write_text(json.dumps({"tails": {
            "0": {"var": "t", "floor": -1, "order": 2,
                  "coeffs": [{"num": "1", "den": "1"},
                             {"num": "0", "den": "1"},
                             {"num": "0", "den": "1"}]},
            "inf": {"var": "w", "floor": 0, "order": 3,
                    "coeffs": [{"num": "0", "den": "1"},
                               {"num": "0", "den": "1"},
                               {"num": "0", "den": "1"}]}}}))
        code, out = run(capsys, "blocks", "residue-check", "--fixture", str(fx))
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and "witness" in doc

    def check_underdetermined(self, capsys, command, fixture):
        code, out = run(capsys, "blocks", command, "--fixture", str(fixture))
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and "order" in doc["underdetermined"]

    def test_glue_underdetermined_window(self, capsys, tmp_path):
        one = {"num": "1", "den": "1"}
        fx = tmp_path / "short.json"
        fx.write_text(json.dumps({
            "at0": {"var": "t", "floor": -1, "order": -1, "coeffs": []},
            "atz0": {"var": "t", "floor": 0, "order": 1, "coeffs": [one]},
            "atinf": {"var": "w", "floor": 0, "order": 1, "coeffs": [one]},
            "z0": one}))
        self.check_underdetermined(capsys, "glue", fx)

    def test_residue_check_empty_windows_fail_closed(self, capsys, tmp_path):
        fx = tmp_path / "empty.json"
        fx.write_text(json.dumps({"tails": {
            "0": {"var": "t", "floor": 0, "order": 0, "coeffs": []},
            "inf": {"var": "w", "floor": 0, "order": 0, "coeffs": []}}}))
        self.check_underdetermined(capsys, "residue-check", fx)


class TestOde:
    @pytest.fixture
    def matrix_fixture(self, tmp_path):
        order = 12
        coeffs = [{"num": "0", "den": "1"}] + \
                 [{"num": "1", "den": "1"}] * (order - 1)
        fx = tmp_path / "mat.json"
        fx.write_text(json.dumps({"entries": [[
            {"var": "q", "floor": 0, "order": order, "coeffs": coeffs}]],
            "seeds": {"0": [{"num": "1", "den": "1"}]}}))
        return fx

    def test_solve_golden(self, capsys, matrix_fixture):
        code, out = run(capsys, "ode", "solve",
                        "--matrix", str(matrix_fixture), "--order", "8")
        assert code == 0
        modes = json.loads(out)["modes"]
        assert all(int(v[0]["num"]) == 1 for v in modes)

    @pytest.mark.parametrize("seed", [["1", "2"], []])
    def test_seed_of_wrong_length_is_config_error(self, capsys, tmp_path, seed):
        # a 2-entry seed for a 1 x 1 system used to end in an IndexError
        fx = tmp_path / "mat.json"
        fx.write_text(json.dumps({"entries": [[
            {"var": "q", "floor": 0, "order": 4,
             "coeffs": [{"num": c, "den": "1"} for c in "0100"]}]],
            "seeds": {"0": [{"num": x, "den": "1"} for x in seed]}}))
        code = main(["ode", "solve", "--matrix", str(fx), "--order", "3"])
        assert code == 2
        assert capsys.readouterr().err == "error: each seed must have length 1\n"

    def test_continue_provenance(self, capsys, matrix_fixture, tmp_path):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"waypoints": [[0.05, 0.0], [0.1, 0.0]],
                                    "start": [[1.0, 0.0]]}))
        code, out = run(capsys, "ode", "continue",
                        "--matrix", str(matrix_fixture),
                        "--path", str(path), "--steps", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"][0]["re"]["provenance"] == "float"
        assert doc["error_estimate"]["provenance"] == "float"


class TestReport:
    def test_all_checks_pass(self):
        rep = run_report(7)
        assert rep["passed"] is True
        assert {c["name"] for c in rep["checks"]} == {
            "virasoro-bracket", "schwarzian-cocycle", "glue-roundtrip",
            "character-partitions", "ode-recursion"}

    def test_byte_identical_across_runs(self, capsys):
        _, out1 = run(capsys, "report", "--seed", "7")
        _, out2 = run(capsys, "report", "--seed", "7")
        assert out1 == out2
        assert dumps(run_report(7)) == dumps(run_report(7))

    def test_seed_recorded(self, capsys):
        code, out = run(capsys, "report", "--seed", "11")
        assert code == 0
        assert json.loads(out)["seed"] == 11


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "ch.json"
    code = main(["character", "--model", "heisenberg", "--cap", "3",
                 "--out", str(dest)])
    assert code == 0 and capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["cap"] == 3


THREE_POINT = ["blocks", "three-point", "--fixture", "tp.json"]
GLUE = ["blocks", "glue", "--fixture", "glue.json"]
SERIES = {"var": "q", "floor": 0, "order": 2, "coeffs": [{"num": "0", "den": "1"}] * 2}


def three_point(model, **keys):
    """A three-point fixture, <Y(alpha_{-1}, 2)|mu>, |mu>'> unless overridden."""
    return {"model": model, "v": {"1": 1}, "z0": 2, "w": {"": 1}, "wp": {"": 1}, **keys}


def glue(**series_keys):
    one = {"num": "1", "den": "1"}
    tail = {"var": "t", "floor": 0, "order": 1, "coeffs": [one]}
    return {"at0": tail, "atz0": {**tail, **series_keys},
            "atinf": {**tail, "var": "w"}, "z0": one}


class TestMalformedInput:
    """Bad input exits 2 with one error line and no output or traceback."""

    def check(self, capsys, *argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        assert code == 2
        assert cap.out == ""
        assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
        return cap.err

    def test_glue_fixture_missing_point(self, capsys, tmp_path):
        one = {"num": "1", "den": "1"}
        fx = tmp_path / "bad_glue.json"
        fx.write_text(json.dumps({
            "at0": {"var": "t", "floor": 0, "order": 1, "coeffs": [one]},
            "atinf": {"var": "w", "floor": 0, "order": 1, "coeffs": [one]},
            "z0": one}))
        self.check(capsys, "blocks", "glue", "--fixture", str(fx))

    def test_ode_entry_not_a_series(self, capsys, tmp_path):
        fx = tmp_path / "bad_ode.json"
        fx.write_text(json.dumps({"entries": [["x"]]}))
        self.check(capsys, "ode", "solve", "--matrix", str(fx), "--order", "3")

    @pytest.mark.parametrize("cap", [CHARACTER_CAP_MAX + 1, 10 ** 11],
                             ids=["ceiling+1", "1e11"])
    def test_character_cap_above_ceiling(self, capsys, cap):
        err = self.check(capsys, "character", "--model", "heisenberg",
                         "--cap", str(cap))
        assert str(CHARACTER_CAP_MAX) in err

    @pytest.mark.parametrize("order", [SERIES_ORDER_MAX + 1, 10 ** 11],
                             ids=["ceiling+1", "1e11"])
    @pytest.mark.parametrize("command", [("coord", "extract"), ("schwarzian",),
                                         ("uniformize",)], ids=" ".join)
    def test_series_order_above_ceiling(self, capsys, command, order):
        err = self.check(capsys, *command, "--series", "z+z^2", "--order", str(order))
        assert str(SERIES_ORDER_MAX) in err

    def continue_fixtures(self, tmp_path):
        mat, path = tmp_path / "mat.json", tmp_path / "path.json"
        mat.write_text(json.dumps({"entries": [[SERIES]]}))
        path.write_text(json.dumps({"waypoints": [[0.05, 0.0], [0.1, 0.0]],
                                    "start": [[1.0, 0.0]]}))
        return ["ode", "continue", "--matrix", str(mat), "--path", str(path)]

    @pytest.mark.parametrize("steps", [CONTINUE_STEPS_MAX + 1, 10 ** 12],
                             ids=["ceiling+1", "1e12"])
    def test_continue_steps_above_ceiling(self, capsys, tmp_path, steps):
        err = self.check(capsys, *self.continue_fixtures(tmp_path), "--steps", str(steps))
        assert str(CONTINUE_STEPS_MAX) in err

    def test_continue_steps_at_ceiling_runs(self, capsys, tmp_path):
        code, out = run(capsys, *self.continue_fixtures(tmp_path),
                        "--steps", str(CONTINUE_STEPS_MAX))
        assert code == 0
        assert json.loads(out)["steps"] == CONTINUE_STEPS_MAX

    def test_extract_count_needs_the_order(self, capsys):
        # --count is bounded through --order: order - 2 coefficients at most
        err = self.check(capsys, "coord", "extract", "--series", "z+z^2",
                         "--order", str(SERIES_ORDER_MAX),
                         "--count", str(SERIES_ORDER_MAX - 1))
        assert "series order too small" in err

    def test_character_zero_denominator_c(self, capsys):
        self.check(capsys, "character", "--model", "virasoro", "--c", "1/0",
                   "--cap", "4")

    def test_huang_zero_denominator_mu(self, capsys):
        self.check(capsys, "coord", "huang", "--model", "fock", "--mu", "1/0",
                   "--alpha", "2z")

    @pytest.mark.parametrize("argv", [
        ("uniformize", "--series", "1/0*z"),
        ("schwarzian", "--series", "z+1/0*z^2"),
        ("coord", "huang", "--alpha", "z+1/0*z^2"),
    ], ids=["uniformize", "schwarzian", "huang"])
    def test_poly_zero_denominator(self, capsys, argv):
        err = self.check(capsys, *argv)
        assert "1/0*z" in err

    def test_huang_negative_cap(self, capsys):
        self.check(capsys, "coord", "huang", "--alpha", "z + 1/2*z^2",
                   "--cap", "-1")

    def test_ode_entries_not_a_matrix(self, capsys, tmp_path):
        fx = tmp_path / "bad_ode.json"
        fx.write_text(json.dumps({"entries": 5}))
        self.check(capsys, "ode", "solve", "--matrix", str(fx), "--order", "3")

    def test_ode_seeds_not_an_object(self, capsys, tmp_path):
        zero = {"num": "0", "den": "1"}
        fx = tmp_path / "bad_ode.json"
        fx.write_text(json.dumps({"entries": [[
            {"var": "q", "floor": 0, "order": 2, "coeffs": [zero, zero]}]],
            "seeds": 5}))
        self.check(capsys, "ode", "solve", "--matrix", str(fx), "--order", "1")

    def test_fixture_nested_too_deeply(self, capsys, tmp_path):
        # deeper than the JSON parser's recursion limit
        fx = tmp_path / "deep.json"
        fx.write_text('{"entries": ' + "[" * 100000 + "]" * 100000 + "}")
        err = self.check(capsys, "ode", "solve", "--matrix", str(fx), "--order", "2")
        assert f"fixture {fx}" in err

    def test_error_echo_is_short(self, capsys, tmp_path):
        # a wide and a deep bad value: the line names the fixture and the
        # key and echoes only a short cut of the value
        fx = tmp_path / "big.json"
        for text in ('{"entries": {"x": ' + json.dumps(list(range(1000))) + "}}",
                     '{"entries": ' + "[" * 500 + "]" * 500 + "}"):
            fx.write_text(text)
            err = self.check(capsys, "ode", "solve", "--matrix", str(fx), "--order", "2")
            assert err.startswith(f"error: fixture {fx}: entries: not a")
            assert len(err) < len(f"error: fixture {fx}: entries: not an object: ") + 70

    def continue_path(self, capsys, tmp_path, path_fixture):
        zero = {"num": "0", "den": "1"}
        fx = tmp_path / "mat.json"
        fx.write_text(json.dumps({"entries": [[
            {"var": "q", "floor": 0, "order": 2, "coeffs": [zero, zero]}]]}))
        path = tmp_path / "path.json"
        path.write_text(json.dumps(path_fixture))
        self.check(capsys, "ode", "continue", "--matrix", str(fx),
                   "--path", str(path), "--steps", "50")

    def test_ode_waypoint_not_a_pair(self, capsys, tmp_path):
        self.continue_path(capsys, tmp_path,
                           {"waypoints": [[0.1]], "start": [[1.0, 0.0]]})

    def test_ode_start_wrong_length(self, capsys, tmp_path):
        self.continue_path(capsys, tmp_path,
                           {"waypoints": [[0.05, 0.0], [0.1, 0.0]],
                            "start": [[1.0, 0.0], [1.0, 0.0]]})

    def test_residue_check_tails_not_an_object(self, capsys, tmp_path):
        fx = tmp_path / "bad_rc.json"
        fx.write_text(json.dumps({"tails": 5}))
        self.check(capsys, "blocks", "residue-check", "--fixture", str(fx))

    def test_residue_check_point_named_twice(self, capsys, tmp_path):
        tail = {"var": "t", "floor": 0, "order": 1,
                "coeffs": [{"num": "1", "den": "1"}]}
        fx = tmp_path / "dup_rc.json"
        fx.write_text(json.dumps({"tails": {"0": tail, "0/1": tail, "inf": tail}}))
        self.check(capsys, "blocks", "residue-check", "--fixture", str(fx))

    def test_rational_zero_denominator(self, capsys, tmp_path):
        one = {"num": "1", "den": "1"}
        fx = tmp_path / "bad_tp.json"
        fx.write_text(json.dumps({"model": "heisenberg", "v": {"1": one},
                                  "z0": {"num": "1", "den": "0"},
                                  "w": {"1": one}, "wp": {"": one}}))
        self.check(capsys, "blocks", "three-point", "--fixture", str(fx))

    def test_three_point_vector_not_an_object(self, capsys, tmp_path):
        one = {"num": "1", "den": "1"}
        fx = tmp_path / "bad_tp.json"
        fx.write_text(json.dumps({"model": "heisenberg", "v": 5, "z0": one,
                                  "w": {"1": one}, "wp": {"": one}}))
        self.check(capsys, "blocks", "three-point", "--fixture", str(fx))

    def test_huang_negative_order(self, capsys):
        self.check(capsys, "coord", "huang", "--alpha", "z + 1/2*z^2",
                   "--order", "-3")

    def test_ode_negative_order(self, capsys, tmp_path):
        zero = {"num": "0", "den": "1"}
        fx = tmp_path / "mat.json"
        fx.write_text(json.dumps({"entries": [[
            {"var": "q", "floor": 0, "order": 2, "coeffs": [zero, zero]}]]}))
        self.check(capsys, "ode", "solve", "--matrix", str(fx), "--order", "-2")

    def test_extract_negative_count(self, capsys):
        self.check(capsys, "coord", "extract", "--series", "z + z^2",
                   "--count", "-3")

    @pytest.mark.parametrize("argv, files, key", [
        (THREE_POINT, {"tp.json": three_point("virasoro", c=[1])}, "c"),
        (GLUE, {"glue.json": glue(floor=[0])}, "floor"),
        (GLUE, {"glue.json": glue(coeffs=5)}, "coeffs"),
        (GLUE, {"glue.json": glue(coeffs="12", order=2)}, "coeffs"),
        (THREE_POINT, {"tp.json": three_point("heisenberg", w={"1,2": 1})}, "w"),
        (THREE_POINT, {"tp.json": three_point("heisenberg", w={"2,0": 1})}, "w"),
        (THREE_POINT, {"tp.json": three_point("heisenberg", wp={"-1": 1})}, "wp"),
        (THREE_POINT, {"tp.json": three_point("virasoro", v={"": 1}, wp={"2,1": 1})}, "wp"),
        (["ode", "continue", "--matrix", "mat.json", "--path", "path.json", "--steps", "50"],
         {"mat.json": {"entries": [[SERIES]]},
          "path.json": {"waypoints": [[0.05, 0.0], [0.1, 0.0]], "start": [[True, 0]]}},
         "start"),
    ], ids=["c-list", "floor-list", "coeffs-int", "coeffs-string", "label-unsorted",
            "label-zero-part", "label-negative-part", "virasoro-label-part-1", "start-bool"])
    def test_fixture_value_not_in_format(self, capsys, tmp_path, monkeypatch, argv, files,
                                         key):
        # a value outside the format must stop at the decoder, naming its key
        monkeypatch.chdir(tmp_path)
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        assert f" {key}: " in self.check(capsys, *argv)

    @pytest.mark.parametrize("model, key, value, same_as, vectors, want", [
        ("fock", "mu", {"num": "1", "den": "2"}, "1/2", {}, F(1, 4)),
        ("virasoro", "c", 0, "0", {"v": {"2": 1}, "w": {"2": 1}, "z0": 1}, F(0)),
    ], ids=["mu-as-encoded", "c-json-zero"])
    def test_fixture_rational_encodings_agree(self, capsys, tmp_path, monkeypatch, model,
                                              key, value, same_as, vectors, want):
        monkeypatch.chdir(tmp_path)
        outs = []
        for v in (value, same_as):
            (tmp_path / "tp.json").write_text(
                json.dumps(three_point(model, **{key: v}, **vectors)))
            outs.append(run(capsys, *THREE_POINT))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
        got = json.loads(outs[0][1])["value"]
        assert F(int(got["num"]), int(got["den"])) == want
