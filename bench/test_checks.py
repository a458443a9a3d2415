"""Self-test of the benchmark's validators.

Each check kind is handed one deliberately wrong answer and must reject it,
and a loop fed one wrong answer must report an ok_ratio below 1.  Run with

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import amplecones as ac  # noqa: E402
import oracles as orc  # noqa: E402
import tracing  # noqa: E402
from run import Loop  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Each workload with its first cycle of ops run once."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(ac, 0, tmp_path_factory.mktemp(name))
        out[name] = (wl, [(inp, wl.op(inp)) for inp in wl.first_cycle])
    return out


def first(built, name, where=lambda inp: True):
    wl, ops = built[name]
    return wl, next((inp, res) for inp, res in ops if where(inp))


def test_correct_answers_pass(built):
    for wl, ops in built.values():
        for inp, res in ops:
            wl.check(inp, res)


def rejects(wl, inp, wrong) -> None:
    with pytest.raises(CheckFailed):
        wl.check(inp, wrong)


# --- domains ----------------------------------------------------------------

def test_domain_generator_must_be_the_squared_unit(built):
    wl, (inp, (pi, g, cand, report)) = first(built, "domains", lambda i: (i[3], i[4]) == (0, 1))
    (p, q), (r, s) = g.generator
    square = [[p * p + q * r, p * q + q * s], [r * p + s * r, r * q + s * s]]
    rejects(wl, inp, (pi, ac.GroupAction2D(square, 1, inp[1]), cand, report))


def test_domain_verdict(built):
    wl, (inp, (pi, g, cand, report)) = first(built, "domains", lambda i: (i[3], i[4]) == (0, 1))
    rejects(wl, inp, (pi, g, cand, dataclasses.replace(report, disjoint_ok=False)))


def test_overlap_witness_must_be_interior(built):
    wl, (inp, (pi, g, cand, report)) = first(built, "domains", lambda i: (i[3], i[4]) != (0, 1))
    moved = tuple(dict(w, point=list(cand.rays[0])) for w in report.witnesses)
    rejects(wl, inp, (pi, g, cand, dataclasses.replace(report, witnesses=moved)))


# --- matrix cones ---------------------------------------------------------------

def matrix_case(built):
    """The first C or H op of size >= 2, with its first answer as a list."""
    wl, (inp, res) = first(built, "matrix-cones", lambda i: i[0] != "R" and i[1] >= 2)
    return wl, inp, res, list(res[0])


def replaced(res, wrong):
    return [tuple(wrong)] + list(res[1:])


def test_ldl_recomposition(built):
    wl, inp, res, wrong = matrix_case(built)
    wrong[2] = (wrong[2][0] * 2,) + tuple(wrong[2][1:])
    rejects(wl, inp, replaced(res, wrong))


def test_negative_certificate(built):
    wl, inp, res, wrong = matrix_case(built)
    wrong[4] = tuple(c * 0 for c in wrong[4])
    rejects(wl, inp, replaced(res, wrong))


def test_separating_dual(built):
    wl, inp, res, wrong = matrix_case(built)
    wrong[7] = -wrong[7]
    rejects(wl, inp, replaced(res, wrong))


def test_trace_pairing(built):
    wl, inp, res, wrong = matrix_case(built)
    wrong[3] = wrong[3] + 1
    rejects(wl, inp, replaced(res, wrong))


def test_action_composition(built):
    wl, inp, res, wrong = matrix_case(built)
    wrong[9] = wrong[8]  # act(M1 M2, D) replaced by act(M1, D)
    rejects(wl, inp, replaced(res, wrong))


# --- polyhedral cones -----------------------------------------------------------------

def test_closed_membership(built):
    wl, (inp, (verdicts, C, last)) = first(built, "poly-cones")
    rejects(wl, inp, ([not verdicts[0]] + verdicts[1:], C, last))


def test_interior_membership(built):
    wl, (inp, (verdicts, C, last)) = first(built, "poly-cones")
    rejects(wl, inp, (verdicts[:1] + [not verdicts[1]] + verdicts[2:], C, last))


def test_intersection_rays(built):
    wl, ops = built["poly-cones"]
    inp, (verdicts, C, last) = next((i, r) for i, r in ops if r[1] is not None and len(r[1].rays) > 1)
    rejects(wl, inp, (verdicts, ac.PolyhedralCone(C.dim, C.rays[:-1]), last))


# --- command line ---------------------------------------------------------------------

def test_reduction_change_of_basis(built):
    wl, (inp, (code, out, err)) = first(built, "cli-queries", lambda i: i[0] == "reduce")
    payload = json.loads(out)
    (a, b), (c, d) = payload["u"]
    payload["u"] = [[a, b + a], [c, d + c]]  # still in SL(2, Z), no longer reduces G
    rejects(wl, inp, (code, json.dumps(payload), err))


def test_json_subset(built):
    wl, (inp, (code, out, err)) = first(built, "cli-queries", lambda i: i[0] == "picard")
    rejects(wl, inp, (code, out.replace('"picard_number": ', '"picard_number": 1'), err))


def test_added_keys_still_pass(built):
    wl, (inp, (code, out, err)) = first(built, "cli-queries", lambda i: i[0] == "funddomain")
    wl.check(inp, (code, out.replace('"report": {', '"report": {"certificate": true, '), err))


def test_exit_codes(built):
    wl, (inp, (code, out, err)) = first(built, "cli-queries", lambda i: i[0] == "malformed")
    rejects(wl, inp, (0, out, err))
    wl, (inp, (code, out, err)) = first(built, "cli-queries", lambda i: i[0] == "verify" and not i[2][1])
    rejects(wl, inp, (0, out, err))


def test_svg(built):
    wl, (inp, (code, out, err)) = first(built, "cli-queries", lambda i: i[0] == "render")
    rejects(wl, inp, (code, out.replace("L ", "L 1", 1), err))


# --- ok_ratio ---------------------------------------------------------------------------

class OneWrong:
    """A workload whose answer to its first input is replaced by a wrong one."""

    def __init__(self, wl, corrupt) -> None:
        self.wl, self.corrupt, self.target = wl, corrupt, wl.first_cycle[0]

    def __getattr__(self, attr):
        return getattr(self.wl, attr)

    def op(self, inp):
        result = self.wl.op(inp)
        return self.corrupt(result) if inp == self.target else result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_wrong_answer_lowers_ok_ratio(built, name):
    wl, _ = built[name]
    corrupt = {
        "domains": lambda res: res[:3] + (dataclasses.replace(res[3], covering_ok=True, disjoint_ok=not res[3].disjoint_ok),),
        "matrix-cones": lambda res: [tuple(res[0][:3]) + (res[0][3] + 1,) + tuple(res[0][4:])] + res[1:],
        "poly-cones": lambda res: ([not v for v in res[0]], res[1], res[2]),
        "cli-queries": lambda res: (res[0] ^ 3, res[1], res[2]),
    }[name]
    clean, dirty = Loop(wl), Loop(OneWrong(wl, corrupt))
    clean.run(0, lambda cycle: False, 1)
    dirty.run(0, lambda cycle: False, 1)
    assert clean.end_to_end()["ok_ratio"] == 1.0
    n = len(dirty.ops)
    assert dirty.end_to_end()["ok_ratio"] == (n - 1) / n
    assert len(dirty.failures) == 1 and dirty.digest() != clean.digest()


class FailingProbe:
    """A workload whose untimed probe call raises a library error."""

    def __init__(self, wl) -> None:
        self.wl = wl

    def __getattr__(self, attr):
        return getattr(self.wl, attr)

    def probe(self, tracer, inp, result) -> None:
        raise ac.errors.NotFundamental("probe failed")


def test_a_failing_probe_is_a_failed_op(built):
    wl, _ = built["domains"]
    loop = Loop(FailingProbe(wl), tracing.Tracer(ac))
    loop.run(0, lambda cycle: True, 1)
    assert len(loop.failures) == len(loop.ops) and loop.end_to_end()["ok_ratio"] == 0.0


def test_oracles_agree_on_a_known_cone():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
    normals = orc.facets(rays, 3)
    for v in [(1, 1, 1), (2, 3, -1), (1, 1, -2), (0, 0, 0), (-1, 0, 0)]:
        assert orc.caratheodory_member(rays, v, 3) == all(orc.dot(n, v) >= 0 for n in normals)
    assert orc.pell_unit(2) == (1, 1) and orc.pell_unit(7) == (8, 3)
    assert orc.squared_unit_generator(2) == ((3, 4), (2, 3))
