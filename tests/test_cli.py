"""Command-line interface: goldens, determinism, provenance, exit codes."""

import argparse
import hashlib
import json
from fractions import Fraction as F
from math import comb

import pytest

from voablocks.blocks import rational_glue
from voablocks.cli import (CHARACTER_CAP_MAX, CONTINUE_SEGMENTS_MAX, CONTINUE_STEPS_MAX,
                           FIXTURE_LABELS_MAX, FIXTURE_WEIGHT_MAX, HUANG_CAP_MAX,
                           HUANG_ORDER_MAX, SERIES_ORDER_MAX, build_parser, main, run_report)
from voablocks.jsonio import decode_rational, decode_series, dumps
from voablocks.models import FockModule, heisenberg_model


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

    def test_extract_count_20_golden(self, capsys):
        # sha256 of the concatenated stdout, captured while the c_n were
        # still summed in Fractions
        digest = hashlib.sha256()
        for series in ("-3/2*z + 1/3*z^3 - 2*z^7",
                       "2/7*z - z^2 + 3/4*z^3 + 1/5*z^4 - 6*z^5 + z^6", "5*z + z^2"):
            code, out = run(capsys, "coord", "extract", f"--series={series}",
                            "--count", "20", "--order", "22")
            assert code == 0, series
            digest.update(out.encode())
        assert digest.hexdigest() == EXTRACT_20_GOLDEN

    def test_huang_passes(self, capsys):
        code, out = run(capsys, "coord", "huang",
                        "--alpha", "z + 1/2*z^2", "--cap", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_huang_lists_the_failures(self, capsys, monkeypatch):
        # F_{2/3} with every L_1 image doubled: U(a) is wrong on every label
        class DoubledL1(FockModule):
            def _L(self, n, label):
                img = super()._L(n, label)
                return {l: 2 * c for l, c in img.items()} if n == 1 else img

        monkeypatch.setattr("voablocks.cli._build_model",
                            lambda name, c, mu: DoubledL1(heisenberg_model(), mu))
        code, out = run(capsys, "coord", "huang", "--model", "fock", "--mu", "2/3",
                        "--alpha", "z + 1/2*z^2", "--cap", "2")
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        assert doc["failures"] == [{"w": str(l)} for l in [(), (1,), (2,), (1, 1)]]


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


def test_parser_error_is_one_line(capsys):
    # argparse reports every input it rejects through the parser's error()
    with pytest.raises(SystemExit) as exc:
        build_parser().error("the following arguments are required: --series")
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: the following arguments are required: --series\n")


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


def closed_tail(poly, poles, p, order):
    """The tail below ``order`` at p ("inf": in w = 1/zeta) of
    sum_k poly[k] zeta^k + sum_q sum_m poles[q][m] (zeta - q)^-m, as a
    fixture series, from the binomial series of each term."""
    cs = {}

    def add(e, c):
        if e < order:
            cs[e] = cs.get(e, 0) + c

    for k, c in poly.items():
        if p == "inf":
            add(-k, c)
        else:
            for j in range(k + 1):
                add(j, c * comb(k, j) * p ** (k - j))
    for q, part in poles.items():
        for m, c in part.items():
            if p == "inf":
                for e in range(order):
                    add(m + e, c * comb(m + e - 1, e) * q ** e)
            elif q == p:
                add(-m, c)
            else:
                for e in range(order):
                    add(e, c * (-1) ** e * comb(m + e - 1, e) * (p - q) ** (-m - e))
    floor = min(min(cs, default=order), order)
    return {"var": "w" if p == "inf" else "t", "floor": floor, "order": order,
            "coeffs": [str(F(cs.get(e, 0))) for e in range(floor, order)]}


# a section with poles of order 3 at 0 and 2 at z0 = -3/2 and a quadratic
# polynomial part, and one with poles at three finite points
GLUE_F = ({0: F(1, 2), 1: F(-3), 2: F(2, 3)},
          {F(0): {1: F(5, 4), 2: F(-1, 3), 3: F(1, 2)}, F(-3, 2): {1: F(2), 2: F(3, 5)}})
RESIDUE_F = ({0: F(-2, 3), 1: F(1, 4)},
             {F(1, 2): {1: F(3), 2: F(-1, 2)}, F(-2): {1: F(2, 7)}, F(5, 3): {1: F(-4, 5), 2: F(1)}})
BLOCKS_GOLDEN = "fcee6d0cd7e5f30e831162654a3d368752158ef8085335228688308ace595cf9"


def blocks_golden_runs():
    """(argv, fixture, exit code) of the blocks golden: glue on GLUE_F's
    tails, then with one coefficient of the tail at z0 tampered, a residue
    check of RESIDUE_F's tails, and a Virasoro three-point value."""
    poly, poles = GLUE_F
    glue = {"at0": closed_tail(poly, poles, F(0), 4), "z0": "-3/2",
            "atz0": closed_tail(poly, poles, F(-3, 2), 4),
            "atinf": closed_tail(poly, poles, "inf", 5)}
    tampered = json.loads(json.dumps(glue))
    tampered["atz0"]["coeffs"][4] = str(F(glue["atz0"]["coeffs"][4]) + F(1, 3))
    poly, poles = RESIDUE_F
    residue = {"tails": {str(p): closed_tail(poly, poles, p, 4) for p in poles}}
    residue["tails"]["inf"] = closed_tail(poly, poles, "inf", 4)
    three = {"model": "virasoro", "c": "-22/5", "v": {"2": 1, "3": "-1/2"}, "z0": "-3/2",
             "w": {"": 1, "2": "2/3", "2,2": 3}, "wp": {"2": 1, "3": "1/4", "4": -2}}
    return [(["blocks", "glue"], glue, 0), (["blocks", "glue"], tampered, 1),
            (["blocks", "residue-check"], residue, 0), (["blocks", "three-point"], three, 0)]


def test_blocks_golden(capsys, tmp_path):
    # sha256 of the concatenated stdout, captured before RationalFunction
    # evaluated and expanded on integer numerators
    digest = hashlib.sha256()
    for argv, fixture, want in blocks_golden_runs():
        fx = tmp_path / "fx.json"
        fx.write_text(json.dumps(fixture))
        code, out = run(capsys, *argv, "--fixture", str(fx))
        assert code == want, argv
        digest.update(out.encode())
    assert digest.hexdigest() == BLOCKS_GOLDEN


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

    @staticmethod
    def series(*coeffs):
        # a + b q, known below q^3
        return {"var": "q", "floor": 0, "order": 3,
                "coeffs": [{"num": str(c), "den": "1"} for c in (*coeffs, 0)]}

    def solve(self, capsys, tmp_path, entries, seeds):
        seeds = {n: [{"num": str(x), "den": "1"} for x in v] for n, v in seeds.items()}
        fx = tmp_path / "mat.json"
        fx.write_text(json.dumps({"entries": entries, "seeds": seeds}))
        code = main(["ode", "solve", "--matrix", str(fx), "--order", "2"])
        cap = capsys.readouterr()
        assert cap.err == ""
        return code, json.loads(cap.out)

    @pytest.mark.parametrize("seeds, code", [({}, 1), ({"2": [1]}, 0)],
                             ids=["unseeded", "seeded"])
    def test_resonance_needs_a_seed(self, capsys, tmp_path, seeds, code):
        # A = 2 + q: n - 2 is singular at n = 2
        got, doc = self.solve(capsys, tmp_path, [[self.series(2, 1)]], seeds)
        assert got == code
        if code:
            assert doc == {"schema": "voa-blocks/1", "command": "ode solve", "resonance": 2,
                           "error": "resonance at n = 2: (n - Ahat_0) singular "
                                    "(kernel of dimension 1); seed required"}
        else:
            assert [v[0]["num"] for v in doc["modes"]] == ["0", "0", "1"]

    def test_seed_violating_the_recursion(self, capsys, tmp_path):
        # A0 = diag(0, 1) and A1 = E_10: at n = 1 the seed 0 leaves A1 psi_0 unmatched
        entries = [[self.series(0, 0), self.series(0, 0)],
                   [self.series(0, 1), self.series(1, 0)]]
        code, doc = self.solve(capsys, tmp_path, entries, {"0": [1, 0], "1": [0, 0]})
        assert code == 1 and doc["resonance"] == 1
        assert doc["error"] == "resonance at n = 1: seed violates the recursion"

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


REPORT_GOLDEN = "ee982e3adce0510c80b4ec7e131bda5b60a45ce5d9da131683b21eadb9f5fead"
EXTRACT_20_GOLDEN = "2bf2c4fc7ec3fc4e947161f406964771f7e3084de7caa81c8a4aba12ae72436c"


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

    def test_seed_defaults_to_0(self, capsys):
        assert run(capsys, "report") == run(capsys, "report", "--seed", "0")

    def test_seed_recorded(self, capsys):
        code, out = run(capsys, "report", "--seed", "11")
        assert code == 0
        assert json.loads(out)["seed"] == 11

    def test_seeds_0_to_19_golden(self, capsys):
        # sha256 of the concatenated stdout of ``report --seed 0..19``
        digest = hashlib.sha256()
        for seed in range(20):
            code, out = run(capsys, "report", "--seed", str(seed))
            assert code == 0, seed
            digest.update(out.encode())
        assert digest.hexdigest() == REPORT_GOLDEN

    def test_failing_check_lists_its_witness(self, capsys, monkeypatch):
        # the third and sixth cocycle draws fail: the report exits 1, and the
        # witness names the first of them and decodes to the pair it was given
        seen = []

        def broken(f, g):
            seen.append((f, g))
            return len(seen) not in (3, 6)

        monkeypatch.setattr("voablocks.schwarzian.cocycle_check", broken)
        code, out = run(capsys, "report", "--seed", "5")
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["schwarzian-cocycle"]
        assert all("witness" not in c for c in doc["checks"] if c["passed"])
        witness = failed[0]["witness"]
        assert witness["draw"] == 2 and len(seen) == 10
        f, g = seen[2]
        assert decode_series(witness["f"]) == f and decode_series(witness["g"]) == g

    def test_glue_witness_names_the_tampered_tails(self, monkeypatch):
        # a glue that passes every input fails on the tampered tails of draw 0
        calls = []

        def accept(*args):
            calls.append(args)
            rep = rational_glue(*args)
            rep.passed = True
            return rep

        monkeypatch.setattr("voablocks.blocks.rational_glue", accept)
        rep = run_report(3)
        (check,) = [c for c in rep["checks"] if not c["passed"]]
        w = check["witness"]
        assert check["name"] == "glue-roundtrip" and (w["draw"], w["glues"]) == (0, False)
        tails, z0 = calls[1][:3], calls[1][3]
        assert decode_rational(w["z0"]) == z0
        assert [decode_series(t) for t in w["tails"]] == list(tails)


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "ch.json"
    code = main(["character", "--model", "heisenberg", "--cap", "3",
                 "--out", str(dest)])
    assert code == 0 and capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["cap"] == 3


def leaf_parsers(parser, path=()):
    """(subcommand path, parser) of each subcommand that runs."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sp in action.choices.items():
            yield from leaf_parsers(sp, path + (name,))


def test_shared_options_only_where_read():
    # only report reads a seed and only character writes CSV, so no other
    # subcommand declares --seed or --format; every one takes --out
    owners = {opt: sorted(path for path, sp in leaf_parsers(build_parser())
                          if opt in sp._option_string_actions)
              for opt in ("--seed", "--format", "--out")}
    assert owners["--seed"] == ["report"]
    assert owners["--format"] == ["character"]
    assert len(owners["--out"]) == 11


THREE_POINT = ["blocks", "three-point", "--fixture", "tp.json"]
GLUE = ["blocks", "glue", "--fixture", "glue.json"]
SERIES = {"var": "q", "floor": 0, "order": 2, "coeffs": [{"num": "0", "den": "1"}] * 2}


# two or more bad inputs per subcommand, each with a fragment of its error
# line; the fixtures they name are the files of SWEEP_FILES
SWEEP = [
    ("character --model nosuch --cap 3", "unknown model"),
    ("character --model heisenberg --cap 0", "--cap must be positive"),
    ("coord extract --series z --order 1", "order 1 too small for the polynomial: "
                                           "degree 1 needs order >= 2"),
    ("coord extract --series z+z^2 --format csv", "unrecognized arguments: --format"),
    ("coord extract --series 1+z", "rho(0) must be 0"),
    ("coord huang --alpha 1+z", "rho(0) must be 0"),
    ("coord huang --alpha z^2", "rho'(0) = 0: not a coordinate change"),
    ("schwarzian --series z^2", "f'(0) = 0"),
    ("schwarzian --series z+z^3 --format csv", "unrecognized arguments: --format"),
    ("uniformize --series z^3 --order 2", "order 2 too small for the polynomial: "
                                          "degree 3 needs order >= 4"),
    ("uniformize --series z --format csv", "unrecognized arguments: --format"),
    ("blocks three-point --fixture missing.json", "missing.json"),
    ("blocks three-point --fixture list.json", "not an object"),
    ("blocks glue --fixture missing.json", "missing.json"),
    ("blocks glue --fixture bad.json", "fixture bad.json"),
    ("blocks residue-check --fixture list.json", "not an object"),
    ("blocks residue-check --fixture bad.json", "fixture bad.json"),
    ("ode solve --matrix missing.json --order 2", "missing.json"),
    ("ode solve --matrix bad.json --order 2", "fixture bad.json"),
    ("ode continue --matrix mat.json --path missing.json", "missing.json"),
    ("ode continue --matrix mat.json --path path.json --steps 0", "steps must be positive"),
    ("report --format csv", "unrecognized arguments: --format"),
    ("report --out nodir/report.json", "nodir/report.json"),
    # rejected by argparse itself
    ("character --model heisenberg --cap x", "argument --cap: invalid int value"),
    ("coord extract", "required: --series"),
    ("nosuch", "argument command: invalid choice"),
    ("character --model heisenberg --cap 3 --format xml", "argument --format: invalid choice"),
    ("coord huang --alpha z --seed 3", "unrecognized arguments: --seed 3"),
    ("ode solve --matrix mat.json --order 2 --format csv",
     "unrecognized arguments: --format csv"),
]
SWEEP_FILES = {"bad.json": "not json", "list.json": "[]",
               "mat.json": json.dumps({"entries": [[SERIES]]}),
               "path.json": json.dumps({"waypoints": [[0.05, 0.0], [0.1, 0.0]],
                                        "start": [[1.0, 0.0]]})}


def three_point(model, **keys):
    """A three-point fixture, <Y(alpha_{-1}, 2)|mu>, |mu>'> unless overridden."""
    return {"model": model, "v": {"1": 1}, "z0": 2, "w": {"": 1}, "wp": {"": 1}, **keys}


# the Heisenberg labels of weight <= 6 (30 of them) as fixture keys
H_LABELS = [",".join(map(str, label))
            for wt in range(7) for label in heisenberg_model().basis_at(wt)]


def glue(**series_keys):
    one = {"num": "1", "den": "1"}
    tail = {"var": "t", "floor": 0, "order": 1, "coeffs": [one]}
    return {"at0": tail, "atz0": {**tail, **series_keys},
            "atinf": {**tail, "var": "w"}, "z0": one}


class TestMalformedInput:
    """Bad input exits 2 with one error line and no output or traceback."""

    def check(self, capsys, *argv):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse rejects through the parser's exit
            code = e.code
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

    @pytest.mark.parametrize("argv, message", [
        (("coord", "extract", "--series", ""), "empty polynomial"),
        (("coord", "extract", "--series", "z^"), "cannot parse polynomial near '^'"),
        (("coord", "extract", "--series", "z+*"), "cannot parse polynomial near '+*'"),
        (("coord", "huang", "--alpha", "z+w"), "mixed variables 'z' and 'w'"),
    ], ids=["empty", "dangling-caret", "sign-without-term", "mixed-variables"])
    def test_polynomial_refused(self, capsys, argv, message):
        assert self.check(capsys, *argv) == f"error: {message}\n"

    @pytest.mark.parametrize("rho", ["z^2", "1+z", "z^-1+z"])
    def test_extract_and_huang_refuse_alike(self, capsys, rho):
        # both commands read rho through CoordChange (z^-1 fails to parse)
        assert (self.check(capsys, "coord", "extract", "--series", rho)
                == self.check(capsys, "coord", "huang", "--alpha", rho))

    @pytest.mark.parametrize("argv, files, message", [
        (GLUE, {"glue.json": {**glue(), "z0": {"num": "0", "den": "1"}}},
         "z0 must be nonzero"),
        (THREE_POINT, {"tp.json": three_point("heisenberg", z0=0)},
         "z0 must be off the marked points 0 and infinity"),
        (["ode", "solve", "--matrix", "mat.json", "--order", "2"],
         {"mat.json": {"entries": [[SERIES, SERIES]]}}, "A must be square"),
        (["ode", "solve", "--matrix", "mat.json", "--order", "2"],
         {"mat.json": {"entries": [[{**SERIES, "floor": -1,
                                     "coeffs": [{"num": "1", "den": "1"}, *SERIES["coeffs"]]}]]}},
         "entries must be holomorphic at q = 0"),
        (["ode", "continue", "--matrix", "mat.json", "--path", "path.json"],
         {"mat.json": {"entries": [[SERIES]]},
          "path.json": {"waypoints": [[0.05, 0.0]], "start": [[1.0, 0.0]]}},
         "a path needs at least two waypoints"),
        (["ode", "continue", "--matrix", "mat.json", "--path", "path.json"],
         {"mat.json": {"entries": [[SERIES]]},
          "path.json": {"waypoints": [[0.05, 0.0], [0.05, 0.0]], "start": [[1.0, 0.0]]}},
         "step underflow: degenerate segment"),
    ], ids=["glue-z0-zero", "three-point-z0-zero", "ode-not-square", "ode-entry-pole",
            "continue-one-waypoint", "continue-equal-waypoints"])
    def test_library_refusal(self, capsys, tmp_path, monkeypatch, argv, files, message):
        monkeypatch.chdir(tmp_path)
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        assert self.check(capsys, *argv) == f"error: {message}\n"

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

    def continue_fixtures(self, tmp_path, segments=1):
        mat, path = tmp_path / "mat.json", tmp_path / "path.json"
        mat.write_text(json.dumps({"entries": [[SERIES]]}))
        waypoints = [[0.05 + 0.05 * i / segments, 0.0] for i in range(segments + 1)]
        path.write_text(json.dumps({"waypoints": waypoints, "start": [[1.0, 0.0]]}))
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

    def test_continue_path_above_ceiling(self, capsys, tmp_path, monkeypatch):
        def no_transport(*args, **kwargs):
            raise AssertionError("transport ran")
        monkeypatch.setattr("voablocks.odepole.numeric_continue", no_transport)
        err = self.check(capsys, *self.continue_fixtures(tmp_path, CONTINUE_SEGMENTS_MAX + 1),
                         "--steps", "50")
        assert str(CONTINUE_SEGMENTS_MAX) in err

    def test_continue_path_at_ceiling_runs(self, capsys, tmp_path):
        code, out = run(capsys, *self.continue_fixtures(tmp_path, CONTINUE_SEGMENTS_MAX),
                        "--steps", "50")
        assert code == 0
        assert json.loads(out)["steps"] == 50

    @pytest.mark.parametrize("flag, value", [("--cap", HUANG_CAP_MAX + 1),
                                             ("--order", HUANG_ORDER_MAX + 1),
                                             ("--cap", 10 ** 11), ("--order", 10 ** 11)],
                             ids=["cap+1", "order+1", "cap1e11", "order1e11"])
    def test_huang_size_above_ceiling(self, capsys, monkeypatch, flag, value):
        def no_model(*args, **kwargs):
            raise AssertionError("model built")
        monkeypatch.setattr("voablocks.cli._build_model", no_model)
        err = self.check(capsys, "coord", "huang", "--alpha", "z + 1/2*z^2",
                         flag, str(value))
        bound = HUANG_CAP_MAX if flag == "--cap" else HUANG_ORDER_MAX
        assert flag in err and str(bound) in err

    @pytest.mark.parametrize("cap, order", [(HUANG_CAP_MAX, 0), (0, HUANG_ORDER_MAX)],
                             ids=["cap", "order"])
    def test_huang_size_at_ceiling_runs(self, capsys, cap, order):
        code, out = run(capsys, "coord", "huang", "--alpha", "z + 1/2*z^2",
                        "--cap", str(cap), "--order", str(order))
        assert code == 0
        doc = json.loads(out)
        assert (doc["cap"], doc["order"], doc["passed"]) == (cap, order, True)

    @pytest.mark.parametrize("key", ["v", "w", "wp"])
    @pytest.mark.parametrize("label", [str(FIXTURE_WEIGHT_MAX + 1),
                                       ",".join(["1"] * (FIXTURE_WEIGHT_MAX + 1)), str(10 ** 11)],
                             ids=["ceiling+1", "ones", "1e11"])
    def test_three_point_label_above_ceiling(self, capsys, tmp_path, monkeypatch, key, label):
        def no_block(*args, **kwargs):
            raise AssertionError("block built")
        monkeypatch.setattr("voablocks.blocks.three_point_block", no_block)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tp.json").write_text(json.dumps(three_point("heisenberg", **{key: {label: 1}})))
        err = self.check(capsys, *THREE_POINT)
        assert f" {key}: " in err and f"must be at most {FIXTURE_WEIGHT_MAX}" in err

    @pytest.mark.parametrize("model, extra, label", [
        ("fock", {"mu": "1/2"}, str(FIXTURE_WEIGHT_MAX)),
        ("virasoro", {"c": "-22/5"}, ",".join(["2"] * (FIXTURE_WEIGHT_MAX // 2)))],
        ids=["fock", "virasoro"])
    def test_three_point_labels_at_ceiling_run(self, capsys, tmp_path, monkeypatch, model,
                                               extra, label):
        monkeypatch.chdir(tmp_path)
        vectors = {key: {label: 1} for key in ("v", "w", "wp")}
        (tmp_path / "tp.json").write_text(json.dumps(three_point(model, **extra, **vectors)))
        code, out = run(capsys, *THREE_POINT)
        assert code == 0
        assert json.loads(out)["command"] == "blocks three-point"

    @pytest.mark.parametrize("key", ["v", "w", "wp"])
    def test_three_point_vector_above_label_cap(self, capsys, tmp_path, monkeypatch, key):
        def no_block(*args, **kwargs):
            raise AssertionError("block built")
        monkeypatch.setattr("voablocks.blocks.three_point_block", no_block)
        monkeypatch.chdir(tmp_path)
        vector = {label: 1 for label in H_LABELS[:FIXTURE_LABELS_MAX + 1]}
        (tmp_path / "tp.json").write_text(json.dumps(three_point("heisenberg", **{key: vector})))
        err = self.check(capsys, *THREE_POINT)
        assert f" {key}: {FIXTURE_LABELS_MAX + 1} labels" in err
        assert f"must be at most {FIXTURE_LABELS_MAX}" in err

    def test_three_point_vectors_at_label_cap_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        vector = {label: 1 for label in H_LABELS[:FIXTURE_LABELS_MAX]}
        vectors = {key: vector for key in ("v", "w", "wp")}
        (tmp_path / "tp.json").write_text(json.dumps(three_point("heisenberg", **vectors)))
        code, out = run(capsys, *THREE_POINT)
        assert code == 0
        assert json.loads(out)["command"] == "blocks three-point"

    def test_extract_count_needs_the_order(self, capsys):
        # --count is bounded through --order: order - 2 coefficients at most
        err = self.check(capsys, "coord", "extract", "--series", "z+z^2",
                         "--order", str(SERIES_ORDER_MAX),
                         "--count", str(SERIES_ORDER_MAX - 1))
        assert "series order too small" in err

    def test_extract_names_the_order_it_needs(self, capsys):
        # the default --order is 8: count 8 needs count + 2 = 10
        err = self.check(capsys, "coord", "extract", "--series", "2*z - 1/3*z^2 + z^4",
                         "--count", "8")
        assert "series order too small" in err and "--count 8 needs --order >= 10" in err

    @pytest.mark.parametrize("argv, fragment", SWEEP, ids=[argv for argv, _ in SWEEP])
    def test_every_subcommand_fails_closed(self, capsys, tmp_path, monkeypatch, argv,
                                           fragment):
        monkeypatch.chdir(tmp_path)
        for name, text in SWEEP_FILES.items():
            (tmp_path / name).write_text(text)
        assert fragment in self.check(capsys, *argv.split())

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

    def test_continue_refuses_an_empty_window(self, capsys, tmp_path):
        # entries of order 0: no coefficient of A(q) is known to integrate
        fx = tmp_path / "mat.json"
        fx.write_text(json.dumps({"entries": [[
            {"var": "q", "floor": 0, "order": 0, "coeffs": []}]]}))
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"waypoints": [[0.05, 0.0], [0.1, 0.0]],
                                    "start": [[1.0, 0.0]]}))
        err = self.check(capsys, "ode", "continue", "--matrix", str(fx),
                         "--path", str(path), "--steps", "50")
        assert "order >= 1" in err

    @pytest.mark.parametrize("command", ["solve", "continue"])
    def test_ode_refuses_a_0_by_0_system(self, capsys, tmp_path, command):
        mat, path = tmp_path / "mat.json", tmp_path / "path.json"
        mat.write_text(json.dumps({"entries": []}))
        path.write_text(json.dumps({"waypoints": [[0.05, 0.0], [0.1, 0.0]], "start": []}))
        rest = ["--order", "0"] if command == "solve" else ["--path", str(path)]
        err = self.check(capsys, "ode", command, "--matrix", str(mat), *rest)
        assert err == "error: A must be at least 1 x 1, not 0 x 0\n"

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
