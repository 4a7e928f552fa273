"""End-to-end tests of the command line interface.

Every invocation goes through main(argv) in process; stdout, stderr, and
exit codes are asserted against frozen texts from the documented examples.
Exit codes: 0 decided, 2 undetermined, 1 error.
"""

import json
from fractions import Fraction

import pytest

from coarsebundle import bs, graph_of_groups
from coarsebundle.cli import build_parser, main
from coarsebundle.subgroup_analysis import COSET_BUDGET


@pytest.fixture()
def write_doc(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return _write


@pytest.fixture()
def gog_file(write_doc):
    def _gog(name, g):
        return write_doc(name, graph_of_groups.to_json_dict(g))
    return _gog


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify and qi-compare


def test_classify_ascending_case(capsys, gog_file):
    path = gog_file("bs12.json", bs(1, 2))
    code, out, err = run(capsys, ["classify", path])
    assert code == 0
    assert out == "Parabolic, endomorphism [[2]]\n"
    assert err == ""


def test_classify_folded_case(capsys, gog_file):
    path = gog_file("bs23.json", bs(2, 3))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert out == "Folded\n"


def test_classify_rejects_a_negative_depth(capsys, gog_file):
    path = gog_file("bs23.json", bs(2, 3))
    for depth in ("-1", "-3"):
        code, out, err = run(capsys, ["classify", path, "--depth", depth])
        assert code == 1
        assert out == ""
        assert err == "error: depth must be nonnegative\n"


def test_qi_compare_identifies_nontrivial_holonomy(capsys, gog_file):
    a = gog_file("bs23.json", bs(2, 3))
    b = gog_file("bs49.json", bs(4, 9))
    code, out, _ = run(capsys, ["qi-compare", a, b])
    assert code == 0
    assert out.startswith("SameQiClass:")
    assert "3/2" in out and "9/4" in out


def test_qi_compare_same_input_agrees(capsys, gog_file):
    a = gog_file("a.json", bs(2, 3))
    b = gog_file("b.json", bs(2, 3))
    code, out, _ = run(capsys, ["qi-compare", a, b])
    assert code == 0
    assert out.startswith("SameQiClass")


def test_qi_compare_undetermined_exits_two(capsys, gog_file):
    a = gog_file("bs12.json", bs(1, 2))
    b = gog_file("bs13.json", bs(1, 3))
    code, out, _ = run(capsys, ["qi-compare", a, b])
    assert code == 2
    assert out.startswith("Undetermined")


@pytest.mark.parametrize("command", ["classify", "qi-compare"])
def test_the_radius_is_not_an_option(capsys, gog_file, command):
    # rule (d) reads its radius off the holonomy generators
    path = gog_file("bs23.json", bs(2, 3))
    files = [path] if command == "classify" else [path, path]
    code, out, err = run(capsys, [command, *files, "--radius", "1"])
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --radius 1" in err


# ---------------------------------------------------------------------------
# cocycle


def test_cocycle_check_reports_nontrivial(capsys, write_doc):
    path = write_doc("heis.json",
                     {"complex": {"grid": [9, 9]}, "gluing": "heisenberg"})
    code, out, _ = run(capsys, ["cocycle", "check", path])
    assert code == 0
    assert out == "Nontrivial: loop ratios grow across 3 doubling scales\n"


def test_cocycle_check_reports_trivial(capsys, write_doc):
    faces = [{"face": i, "value": [0]} for i in range(16)]
    path = write_doc("zero.json",
                     {"complex": {"grid": [5, 5]},
                      "obstruction": {"dim": 1, "values": faces}})
    code, out, _ = run(capsys, ["cocycle", "check", path])
    assert code == 0
    assert out.startswith("Trivial")


def test_cocycle_scans_every_loop_length(capsys, write_doc):
    # the scan has no length cap: the option is unknown (exit 1), and the
    # JSON report has no parameters
    path = write_doc("heis.json",
                     {"complex": {"grid": [9, 9]}, "gluing": "heisenberg"})
    code, out, err = run(capsys, ["cocycle", "check", path,
                                  "--length-cap", "12"])
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --length-cap 12" in err
    code, out, _ = run(capsys, ["cocycle", "check", path, "--json"])
    assert code == 0
    assert _strict_json(out)["parameters"] == {}


def test_cocycle_primitive_reports_positive_cycle(capsys, write_doc):
    path = write_doc("heis.json",
                     {"complex": {"grid": [5, 4]}, "gluing": "heisenberg"})
    code, out, _ = run(capsys, ["cocycle", "primitive", path, "--C", "1/10"])
    assert code == 0
    assert out.startswith("PositiveCycle: no bounded primitive at C = 1/10")
    assert "witness loop of length" in out


def test_cocycle_primitive_defaults_to_the_scanned_bound(capsys, write_doc):
    path = write_doc("heis.json",
                     {"complex": {"grid": [5, 4]}, "gluing": "heisenberg"})
    code, out, _ = run(capsys, ["cocycle", "primitive", path])
    assert code == 0
    assert out.startswith("primitive found: sup |a + df| =")
    assert "within budget" in out


def test_cocycle_primitive_meets_its_budget_on_float_input(capsys, write_doc):
    values = [{"edge": [[0, 0], [1, 0]], "value": [0.1]},
              {"edge": [[0, 0], [0, 1]], "value": [0.1]},
              {"edge": [[0, 1], [1, 1]], "value": [0.1]},
              {"edge": [[1, 0], [1, 1]], "value": [0.3]}]
    path = write_doc("float.json",
                     {"complex": {"grid": [2, 2]},
                      "gluing": {"dim": 1, "values": values}})
    code, out, _ = run(capsys, ["cocycle", "primitive", path])
    assert code == 0
    # floats are read as exact binary rationals; the one face loop sums
    # 0.3 - 0.1 over length 4, and the budget is 2C
    two_c = 2 * (Fraction(0.3) - Fraction(0.1)) / 4
    assert out == (f"primitive found: sup |a + df| = {two_c} "
                   f"within budget {two_c}\n")


@pytest.mark.parametrize("action", ["check", "compare"])
@pytest.mark.parametrize("face", [4, 99, -1])
def test_cocycle_rejects_out_of_range_face_indices(capsys, write_doc, action,
                                                   face):
    bad = {"dim": 1, "values": [{"face": 0, "value": [5]},
                                {"face": face, "value": [7]}]}
    doc = {"complex": {"grid": [3, 3]}}  # faces 0..3
    if action == "check":
        doc["obstruction"] = bad
    else:
        doc["first"] = {"dim": 1, "values": []}
        doc["second"] = bad
    code, out, err = run(capsys, ["cocycle", action, write_doc("f.json", doc)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: face index {face} out of range")
    assert err.count("\n") == 1


def test_cocycle_compare_classes_up_to_transform(capsys, write_doc):
    first = [{"face": i, "value": [2]} for i in range(12)]
    second = [{"face": i, "value": [1]} for i in range(12)]
    path = write_doc("pair.json",
                     {"complex": {"grid": [5, 4]},
                      "first": {"dim": 1, "values": first},
                      "second": {"dim": 1, "values": second},
                      "transform": [[2]]})
    code, out, _ = run(capsys, ["cocycle", "compare", path])
    assert code == 0
    assert out == "Equivalent (difference class is Trivial)\n"


# ---------------------------------------------------------------------------
# bundle


@pytest.fixture()
def trivial_spec(write_doc):
    return write_doc("trivial.json",
                     {"base": "line", "fiber_dim": 1,
                      "map": {"type": "translation", "vector": [0]}})


def test_bundle_build_summarizes_the_window(capsys, trivial_spec):
    code, out, _ = run(capsys, ["bundle", "build", trivial_spec,
                                "--base-window", "10",
                                "--fiber-window", "10"])
    assert code == 0
    assert out == "built 441 vertices (80 clipped), degree <= 4\n"


def test_bundle_grow_emits_csv_and_classification(capsys, trivial_spec):
    code, out, _ = run(capsys, ["bundle", "grow", trivial_spec,
                                "--base-window", "14",
                                "--fiber-window", "14", "--rmax", "12"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,count,clipped"
    assert len(lines) == 15
    for r in range(13):
        cells = lines[1 + r].split(",")
        assert cells == [str(r), str(2 * r * r + 2 * r + 1), "0"]
    assert lines[-1].startswith("# growth: Polynomial parameter=")


def test_bundle_grow_flags_clipped_radii_and_exits_two(capsys, trivial_spec):
    code, out, _ = run(capsys, ["bundle", "grow", trivial_spec,
                                "--base-window", "3",
                                "--fiber-window", "3", "--rmax", "6"])
    assert code == 2
    lines = out.strip().split("\n")
    assert lines[1] == "0,1,0"
    assert lines[-2] == "6,49,1"
    assert lines[-1] == ("# growth: Undetermined (need at least 8 valid "
                         "radii, have 2)")


def test_bundle_respects_the_vertex_cap_env_var(capsys, monkeypatch,
                                                trivial_spec):
    monkeypatch.setenv("COARSEBUNDLE_VERTEX_CAP", "100")
    code, out, err = run(capsys, ["bundle", "build", trivial_spec,
                                  "--base-window", "10",
                                  "--fiber-window", "10"])
    assert code == 1
    assert err == "error: window volume exceeds the vertex cap (100)\n"
    assert out == ""


def test_bundle_grow_rejects_a_clipped_origin(capsys, trivial_spec):
    code, _, err = run(capsys, ["bundle", "grow", trivial_spec,
                                "--base-window", "3", "--fiber-window", "3",
                                "--origin-base", "3"])
    assert code == 1
    assert err == "error: origin is clipped; enlarge the windows\n"


def test_bundle_doubling_wedge_is_exponential(capsys, write_doc):
    path = write_doc("phi.json", {"base": "line", "fiber_dim": 1,
                                  "map": {"type": "phi_example"}})
    code, out, _ = run(capsys, ["bundle", "grow", path,
                                "--base-window", "1005:1043",
                                "--fiber-window", "8500",
                                "--origin-base", "1024", "--rmax", "18"])
    assert code == 0
    assert out.strip().split("\n")[-1].startswith(
        "# growth: Exponential parameter=")


# ---------------------------------------------------------------------------
# subgroup


@pytest.fixture()
def sanov_file(write_doc):
    return write_doc("sanov.json",
                     {"matrices": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]})


@pytest.fixture()
def full_file(write_doc):
    return write_doc("full.json",
                     {"matrices": [[[0, -1], [1, 0]], [[1, 1], [0, 1]]]})


def test_subgroup_class_reports_lattice_index(capsys, sanov_file, full_file):
    code, out, _ = run(capsys, ["subgroup", "class", sanov_file])
    assert code == 0
    assert out == "Lattice(6), det Trivial\n"
    code, out, _ = run(capsys, ["subgroup", "class", full_file])
    assert code == 0
    assert out == "Lattice(1), det Trivial\n"


def test_subgroup_class_reports_a_spent_budget_as_unknown(capsys,
                                                         sanov_file):
    code, out, _ = run(capsys, ["subgroup", "class", sanov_file,
                                "--budget", "2"])
    assert code == 2
    assert out == "Unknown, det Trivial\n"


def test_subgroup_budget_defaults_to_the_library_budget():
    args = build_parser().parse_args(["subgroup", "class", "g.json"])
    assert args.budget == COSET_BUDGET


def test_subgroup_equiv_commensurable_lattices(capsys, sanov_file,
                                               full_file):
    code, out, _ = run(capsys, ["subgroup", "equiv", sanov_file, full_file])
    assert code == 0
    assert out.startswith("Equivalent:")


def test_subgroup_equiv_honours_the_budget(capsys, sanov_file):
    code, out, _ = run(capsys, ["subgroup", "equiv", sanov_file, sanov_file,
                                "--budget", "2", "--json"])
    assert code == 2
    report = json.loads(out)
    assert report["parameters"]["budget"] == 2
    assert report["verdict"]["kind"] == "Unknown"


def test_subgroup_free_certificates(capsys, sanov_file, write_doc):
    code, out, _ = run(capsys, ["subgroup", "free", sanov_file])
    assert code == 0
    assert out == "PingPong\n"
    torsion = write_doc("s.json", {"matrices": [[[0, -1], [1, 0]]]})
    code, out, _ = run(capsys, ["subgroup", "free", torsion])
    assert code == 0
    assert out == "RelationFound: word of length 4\n"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_subgroup_free_json_is_strict(capsys, sanov_file):
    code, out, _ = run(capsys, ["subgroup", "free", sanov_file, "--json"])
    assert code == 0
    assert _strict_json(out)["verdict"]["cones"]["variant"] == "axis-quadrants"


def test_subgroup_shear_conjugate_has_exact_arcs(capsys, write_doc):
    # the shear conjugate of <diag(4, 1/4), [[17/8, 15/8], [15/8, 17/8]]>
    shear = write_doc("shear.json", {"matrices": [
        [[4, "15/4"], [0, "1/4"]], [["1/4", 0], ["15/8", 4]]]})
    code, out, _ = run(capsys, ["subgroup", "class", shear])
    assert code == 0
    assert out == "NonElementaryCantor, det Trivial\n"
    code, out, _ = run(capsys, ["subgroup", "free", shear, "--json"])
    assert code == 0
    cones = _strict_json(out)["verdict"]["cones"]
    assert cones["variant"] == "schottky"
    for entry in cones["entries"]:
        for end in entry["attracting"] + entry["repelling"]:
            assert end is None or isinstance(end, str)


def test_subgroup_free_reports_the_commutator_trace(capsys, write_doc):
    pair = write_doc("pair.json", {"matrices": [
        [[4, 0], [0, "1/4"]], [["29/20", "21/20"], ["21/20", "29/20"]]]})
    code, out, _ = run(capsys, ["subgroup", "free", pair, "--json"])
    assert code == 0
    report = _strict_json(out)
    assert report["parameters"] == {}
    assert report["verdict"]["depth"] == 6
    assert report["verdict"]["cones"]["variant"] == "trace"
    assert report["verdict"]["cones"]["description"].endswith("< -2")
    # the relation depth and the loop sample are fixed, not flags
    assert main(["subgroup", "free", pair, "--depth", "8"]) == 1
    assert main(["cocycle", "check", pair, "--seed", "1"]) == 1
    capsys.readouterr()


def test_subgroup_reduce_prints_the_trace_summary(capsys):
    code, out, _ = run(capsys, ["subgroup", "reduce", "4", "6"])
    assert code == 0
    assert out == "reduce (4, 6) -> (2, 0) in 2 steps; final norm 2\n"


def test_subgroup_reduce_reaches_the_gcd_on_an_overflowing_quotient(capsys):
    code, out, _ = run(capsys, ["subgroup", "reduce", "1e308", "1e-308"])
    assert code == 0
    # decimals are exact, so the gcd is 10^-308 and the norm is finite
    assert f" -> (1/{10 ** 308}, 0) in " in out
    assert out.endswith("final norm 1e-308\n")


@pytest.mark.parametrize("entries, norm", [
    (["1e-400", "2e-400"], "1e-400"),
    (["252", "105"], "21"),
    (["1", "1000000"], "1"),
    (["1e6", "3e6"], "1e+06"),
    (["123456789", "0"], "1.23457e+08"),
    (["0.00001", "0.00003"], "1e-05"),
    (["0", "0"], "0"),
])
def test_subgroup_reduce_prints_the_exact_final_norm(capsys, entries, norm):
    code, out, _ = run(capsys, ["subgroup", "reduce", *entries])
    assert code == 0
    # the text norm is |g| of the final (g, 0, ...) to 6 digits, laid out
    # as :.6g lays out a float, however small g is
    assert out.endswith(f"; final norm {norm}\n")


@pytest.mark.parametrize("entries, final", [
    (["0.1", "0.3"], "(1/10, 0)"),
    (["1.5", "2.5"], "(1/2, 0)"),
    (["252", "105"], "(21, 0)"),
])
def test_subgroup_reduce_reads_decimals_exactly(capsys, entries, final):
    code, out, _ = run(capsys, ["subgroup", "reduce", *entries])
    assert code == 0
    assert f" -> {final} in " in out


@pytest.mark.parametrize("argv", [
    ["subgroup", "reduce", "inf", "1"],
    ["subgroup", "reduce", "1e400", "3"],
    ["subgroup", "reduce", "nan", "3"],
    ["cocycle", "primitive", "{heis}", "--C", "inf"],
    ["cocycle", "primitive", "{heis}", "--C", "nan"],
    ["cocycle", "check", "{inf}"],
])
def test_non_finite_numbers_are_input_errors(capsys, write_doc, argv):
    heis = write_doc("heis.json",
                     {"complex": {"grid": [5, 4]}, "gluing": "heisenberg"})
    # json.dumps writes Infinity, which json.load reads back as a float
    inf = write_doc("inf.json",
                    {"complex": {"grid": [3, 3]},
                     "gluing": {"dim": 1, "values": [
                         {"edge": [[0, 0], [1, 0]], "value": [float("inf")]}]}})
    code, out, err = run(capsys, [a.format(heis=heis, inf=inf) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# JSON reports


def test_json_report_schema_and_determinism(capsys, gog_file):
    path = gog_file("bs23.json", bs(2, 3))
    code, out1, _ = run(capsys, ["classify", path, "--json"])
    assert code == 0
    code, out2, _ = run(capsys, ["classify", path, "--json"])
    assert out1 == out2
    report = json.loads(out1)
    assert sorted(report) == ["command", "evidence", "parameters", "seed",
                              "timing", "verdict"]
    assert report["command"] == ["classify", path, "--json"]
    assert report["timing"] is None
    assert report["verdict"]["kind"] == "Folded"
    assert report["parameters"]["depth"] == 6


def test_json_report_for_subgroup_reduce(capsys):
    code, out, _ = run(capsys, ["subgroup", "reduce", "4", "6", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["final"] == ["2", "0"]
    assert report["verdict"] == {"final": ["2", "0"], "steps": 2}


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_an_error(capsys):
    code, out, err = run(capsys, ["classify", "/nonexistent/g.json"])
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_malformed_json_is_an_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand_is_an_error(capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()


def test_float_matrix_entries_are_rejected(capsys, write_doc):
    first = [{"face": i, "value": [1]} for i in range(1)]
    path = write_doc("pair.json",
                     {"complex": {"grid": [2, 2]},
                      "first": {"dim": 1, "values": first},
                      "second": {"dim": 1, "values": first},
                      "transform": [[0.5]]})
    code, _, err = run(capsys, ["cocycle", "compare", path])
    assert code == 1
    assert "exact rational expected" in err
