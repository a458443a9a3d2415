import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from amplecones import PolyhedralCone, UnsupportedDimension, real_mult_fundamental_domain
from amplecones.cli import main, render_svg

GOLDEN = Path(__file__).parent / "golden"
MODEL_E2 = str(GOLDEN / "model_e2.json")
MODEL_E1E2 = str(GOLDEN / "model_e1e2.json")

GOLDEN_RUNS = [
    ("decompose_e2.json", ["decompose", "--model", MODEL_E2]),
    ("picard_e2.json", ["picard", "--model", MODEL_E2]),
    ("amplecone_e2.json", ["amplecone", "--model", MODEL_E2]),
    ("bauer_e1e2.json", ["bauer", "--model", MODEL_E1E2]),
    ("surface_1_2.json", ["surface", "--a", "1", "--b", "2"]),
    ("surface_4_1.json", ["surface", "--a", "4", "--b", "1"]),
    ("reduce_5_4_5.json", ["reduce", "--form", "5,4,5"]),
    ("funddomain_d2.json", ["funddomain", "--d", "2", "--ray", "1,0"]),
    ("verify_d2.json", ["verify", "--d", "2", "--pi", "1,0;3,2"]),
    ("render_d2_k3.svg", ["render", "--d", "2", "--k-range", "3"]),
]

# pi is its extreme rays, so the redundant generator (2, 1) changes nothing
# and the default action comes from the first extreme ray, (1, 0)
REDUNDANT_PI = ("verify_d2.json", ["verify", "--d", "2", "--pi", "2,1;1,0;3,2"])


@pytest.mark.parametrize(
    "golden_name,argv",
    GOLDEN_RUNS + [REDUNDANT_PI],
    ids=[g for g, _ in GOLDEN_RUNS] + ["verify_d2_redundant_pi"],
)
def test_golden_byte_equality(golden_name, argv, tmp_path):
    out = tmp_path / golden_name
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["funddomain", "--d", "2", "--ray", "1,0", "--seed", "0"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_worked_example_values():
    fund = json.loads((GOLDEN / "funddomain_d2.json").read_text(encoding="utf-8"))
    assert fund["pi"] == [[1, 0], [3, 2]]
    assert fund["g"] == [[3, 4], [2, 3]]
    assert fund["report"]["covering_ok"] is True
    assert fund["report"]["disjoint_ok"] is True

    red = json.loads((GOLDEN / "reduce_5_4_5.json").read_text(encoding="utf-8"))
    assert red == {"gred": [2, 1, 5], "u": [[-1, -1], [1, 0]]}

    surf = json.loads((GOLDEN / "surface_1_2.json").read_text(encoding="utf-8"))
    assert surf == {"rational_polyhedral": False, "rays": "v1 ± (1/√2) v2"}


def test_reports_roundtrip(tmp_path):
    for golden_name, argv in GOLDEN_RUNS:
        if not golden_name.endswith(".json"):
            continue
        out = tmp_path / golden_name
        main(argv + ["--output", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert json.loads(json.dumps(payload, ensure_ascii=False)) == payload


class TestExitCodes:
    def test_verification_failure_is_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--d", "2", "--pi", "1,0;3,2", "--g", "17,24,12,17",
             "--samples", "100", "--output", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["covering_ok"] is False
        assert payload["disjoint_ok"] is True
        assert payload["witnesses"]

    def test_perfect_square_d_is_two(self, capsys):
        assert main(["funddomain", "--d", "4", "--ray", "1,0"]) == 2
        assert "squarefree" in capsys.readouterr().err

    def test_non_squarefree_d_is_two(self, capsys):
        assert main(["funddomain", "--d", "12", "--ray", "1,0"]) == 2

    def test_non_pd_form_is_two(self, capsys):
        assert main(["reduce", "--form", "1,2,1"]) == 2
        assert "positive definite" in capsys.readouterr().err

    def test_malformed_model_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["picard", "--model", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert main(["picard", "--model", str(missing)]) == 2
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"factors": [{"id": "A"}]}', encoding="utf-8")
        assert main(["picard", "--model", str(wrong)]) == 2

    def test_deeply_nested_model_is_two(self, tmp_path, capsys):
        # json.load raises RecursionError on arrays nested past the recursion limit
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 50_000 + "]" * 50_000, encoding="utf-8")
        assert main(["picard", "--model", str(deep)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: malformed JSON in {str(deep)!r}: ")
        assert "Traceback" not in err

    def test_boolean_m_or_n_is_two(self, tmp_path, capsys):
        model = json.loads((GOLDEN / "model_e2.json").read_text(encoding="utf-8"))
        for path in (("albert", "m"), ("n",)):
            bad = json.loads(json.dumps(model))
            entry = bad["factors"][0]
            for key in path[:-1]:
                entry = entry[key]
            entry[path[-1]] = True
            file = tmp_path / "bool.json"
            file.write_text(json.dumps(bad), encoding="utf-8")
            assert main(["picard", "--model", str(file)]) == 2
            err = capsys.readouterr().err
            assert "m and n must be integers" in err and "True" in err

    def test_bad_flags_are_two(self, capsys):
        assert main(["reduce", "--form", "1,2"]) == 2
        assert main(["verify", "--d", "2", "--pi", "1,0;3,2", "--g", "1,2,3"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["reduce"], "the following arguments are required: --form"),
            (["funddomain", "--d", "2", "--ray", "1"], "--ray wants two coordinates x1,x2"),
            (["verify", "--d", "2", "--pi", ";"], "--pi wants rays like '1,0;3,2'"),
            (["reduce", "--form", "1,x,2"], "--form entries must be integers: '1,x,2'"),
        ],
        ids=["argparse", "ray", "pi", "form"],
    )
    def test_malformed_arguments_are_two(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err

    def test_form_entry_past_the_int_limit_is_two(self, capsys):
        # the entry is an integer too long to read: name its length and the
        # limit, not its digits; the limit itself stays as set
        limit = sys.get_int_max_str_digits()
        nines = "9" * 5000
        for form in (f"1,0,{nines}", f"1,0,-{nines}", "1,0," + "1_" * 4400 + "1", f"1,x,{nines}"):
            assert main(["reduce", "--form", form]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err) < 200
            assert err.startswith("error: --form entry 3 has ")
            assert f"more than {limit}" in err and "Traceback" not in err
        assert sys.get_int_max_str_digits() == limit

    def test_long_text_is_named_by_its_length(self, capsys):
        # a long entry that is not a number is quoted by a short prefix and
        # its length, a point with many entries by its first entries and
        # their count; a short one is quoted whole, as before
        xs = "x" * 5000
        ones = ",".join(["1"] * 3000)
        for argv, named in (
            (["reduce", "--form", f"1,0,{xs}"], "5004 characters"),
            (["verify", "--d", "2", "--pi", f"1,0;{xs}"], "5000 characters"),
            (["verify", "--d", "2", "--pi", f"1,0;1,{xs}"], "5000 characters"),
            (["surface", "--a", xs, "--b", "1"], "5000 characters"),
            (["funddomain", "--d", "2", "--ray", f"{xs},1"], "5000 characters"),
            (["verify", "--d", "2", "--pi", f"1,0;{ones}"], "3000 items"),
        ):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err) < 200
            assert f"... ({named})" in err and "Traceback" not in err
        assert main(["reduce", "--form", "1,x,2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --form entries must be integers: '1,x,2'\n"

    def test_ray_outside_cone_is_two(self, capsys):
        assert main(["funddomain", "--d", "2", "--ray", "1,1"]) == 2
        assert main(["funddomain", "--d", "5", "--ray", "0,0"]) == 2
        err = capsys.readouterr().err
        assert "ray (0, 0) is outside" in err and "Fraction" not in err

    @pytest.mark.parametrize("value", ["1/0", "nan", "inf", "x", ""])
    def test_unparsable_rational_is_two(self, value, capsys):
        for argv in (
            ["surface", "--a", value, "--b", "1"],
            ["surface", "--a", "1", "--b", value],
            ["verify", "--d", "2", "--pi", "1,0;3,2", "--g", f"{value},0,0,1"],
        ):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith(" must be finite rational numbers\n")
            assert f"({value!r}, " in err or f", {value!r})" in err  # the library quotes the text
            assert "Fraction" not in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,bad",
        [
            (["surface", "--a", "1e3000000", "--b", "1"], "1e3000000"),
            (["surface", "--a", "1", "--b", "2.5E-3000000"], "2.5E-3000000"),
            (["verify", "--d", "2", "--pi", "1,0;3,2e+4301"], "2e+4301"),
            (["verify", "--d", "2", "--pi", "1,0;3,2", "--g", "1e3_000_000,0,0,1"], "1e3_000_000"),
            (["funddomain", "--d", "2", "--ray", "1e10000000,1"], "1e10000000"),
        ],
        ids=["a", "b-negative", "pi", "g-underscores", "ray"],
    )
    def test_huge_exponent_is_two_at_once(self, argv, bad, capsys):
        # the bound is the library's: the command line only splits the text
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "4300" in err and bad in err
        assert "Fraction" not in err and "Traceback" not in err

    def test_exponent_within_the_bound_is_read(self, capsys):
        assert main(["surface", "--a", "1e3", "--b", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["rational_polyhedral"] is False

    def test_orientation_reversing_generator_is_two(self, capsys):
        # form- and sheet-preserving, but det = -1: a reflection of rays
        assert main(["verify", "--d", "2", "--pi", "1,0;3,2", "--g", "3,-4,2,-3"]) == 2
        assert "det < 0" in capsys.readouterr().err

    def test_scalar_generator_is_one(self, tmp_path):
        # det > 0 is accepted; every translate then overlaps pi
        out = tmp_path / "report.json"
        argv = ["verify", "--d", "2", "--pi", "1,0;3,2", "--g", "1,0,0,1", "--max-word", "2"]
        assert main(argv + ["--output", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [w["k"] for w in payload["witnesses"] if w["kind"] == "overlap"] == [1, -1, 2, -2]

    def test_gap_between_translates_is_one(self, tmp_path):
        # g(1, 0) = (3, 2) lies strictly above the candidate's upper ray
        out = tmp_path / "report.json"
        assert main(["verify", "--d", "2", "--pi", "1,0;3000001,2000000", "--output", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["covering_ok"] is False and payload["disjoint_ok"] is True
        assert payload["witnesses"] == [{"kind": "uncovered", "point": [1500002, 1000001]}]

    def test_max_word_is_bounded(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        for command in (["funddomain", "--d", "2"], ["verify", "--d", "2", "--pi", "1,0;3,2"]):
            for bad in ("65", "0"):
                assert main(command + ["--max-word", bad]) == 2
                assert f"--max-word must be between 1 and 64, got {bad}" in capsys.readouterr().err
            argv = command + ["--max-word", "64", "--samples", "20", "--output", str(out)]
            assert main(argv) == 0

    def test_samples_are_bounded(self, capsys):
        # sampling costs linear time, so an oversized count exits before it starts
        for command in (["funddomain", "--d", "2"], ["verify", "--d", "2", "--pi", "1,0;3,2"]):
            for bad in ("100001", "0"):
                assert main(command + ["--samples", bad]) == 2
                err = capsys.readouterr().err
                assert f"--samples must be between 1 and 100000, got {bad}" in err
        start = time.perf_counter()
        assert main(["verify", "--d", "2", "--pi", "1,0;3,2", "--samples", "20000000"]) == 2
        assert time.perf_counter() - start < 1

    def test_pi_outside_closed_cone_is_two(self, capsys):
        assert main(["verify", "--d", "2", "--pi", "1,0;1,1"]) == 2
        assert "closed cone" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="Python before 3.10.7 prints integers of any length",
    )
    def test_oversized_report_is_two(self, capsys):
        # the squared unit of Z[sqrt(100000007)] prints to more than 4300 digits
        limit = sys.get_int_max_str_digits()
        assert main(["funddomain", "--d", "100000007", "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert f"more than {limit} digits" in err and "smaller --d" in err
        assert "set_int_max_str_digits" not in err
        assert sys.get_int_max_str_digits() == limit
        # here the long integer is the gap witness of a user-given --pi: its
        # upper ray (x, y) of limit digits and g(1, 0) = (3, 2) are Farey
        # neighbours (2x - 3y = 1), so the only simplest slope between them
        # is their mediant (x + 3, y + 2), and x + 3 = 10**limit + 1
        x = 10**limit - 2
        y = (2 * x - 1) // 3
        argv = ["verify", "--d", "2", "--pi", f"1,0;{x},{y}"]
        assert main(argv + ["--max-word", "1", "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert "cannot print the report" in err and "--d" not in err

    def test_overlap_witness_of_tall_rays_is_one(self, tmp_path):
        # every translate under a scalar generator is pi itself; the rays
        # (n, 1) and (n, 4) have limit digits, but the slope 1/q with
        # q = 25 * 10**(limit - 2) lies between them and prints
        limit = sys.get_int_max_str_digits()
        n = "9" * limit
        out = tmp_path / "report.json"
        argv = ["verify", "--d", "2", "--pi", f"{n},1;{n},4", "--g", "1,0,0,1"]
        assert main(argv + ["--max-word", "1", "--samples", "1", "--output", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["disjoint_ok"] is False
        point = [25 * 10 ** (limit - 2), 1]
        assert [w for w in payload["witnesses"] if w["kind"] == "overlap"] == [
            {"kind": "overlap", "k": 1, "point": point},
            {"kind": "overlap", "k": -1, "point": point},
        ]

    def test_gap_witness_of_large_unit_is_one(self, tmp_path):
        # g(1, 0) has more than 6,000 digits, but the gap between the upper
        # ray (100000, 1) and g(1, 0) holds the slope 1/10001
        out = tmp_path / "report.json"
        assert main(["verify", "--d", "100000007", "--pi", "1,0;100000,1", "--output", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["covering_ok"] is False and payload["disjoint_ok"] is True
        assert payload["witnesses"] == [{"kind": "uncovered", "point": [10001, 1]}]
        _, action = real_mult_fundamental_domain(100000007, (1, 0))
        x, y = payload["witnesses"][0]["point"]
        (h1, h2), (g1, g2) = (100000, 1), action.ray_image((1, 0))
        assert h1 * y - h2 * x > 0 and x * g2 - y * g1 > 0


class TestRender:
    def test_wedge_and_line_counts(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["render", "--d", "2", "--k-range", "3", "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("<path") == 7
        assert text.count("<line") == 2

        assert main(["render", "--d", "2", "--k-range", "0", "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("<path") == 1
        assert text.count("<line") == 2

    def test_huge_coordinates_are_drawn(self, tmp_path):
        # the squared unit of Z[sqrt(1000003)] has 1663-bit entries, beyond
        # float range
        out = tmp_path / "fig.svg"
        argv = ["render", "--d", "1000003", "--ray", "1001,0", "--k-range", "1"]
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("<path") == 3

    def test_k_range_is_bounded(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        assert main(["render", "--d", "2", "--k-range", "500", "--output", str(out)]) == 2
        assert "--k-range must be between 0 and 64" in capsys.readouterr().err
        assert main(["render", "--d", "2", "--k-range", "-1"]) == 2
        assert main(["render", "--d", "2", "--k-range", "64", "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("<path") == 129

    def test_non_planar_cone_rejected(self):
        _, action = real_mult_fundamental_domain(2, (1, 0))
        solid = PolyhedralCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(UnsupportedDimension):
            render_svg(solid, action, 1)


def test_module_entrypoint_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "amplecones.cli", "picard", "--model", MODEL_E2],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == {"picard_number": 3}
    assert result.stderr == ""
