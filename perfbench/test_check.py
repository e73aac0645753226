"""Tests of the benchmark's checker: real outputs pass, corrupted ones do not.

    python3 -m pytest perfbench -q

The outputs come from running a few generated jobs through the program, so a
check that accepted anything would fail the first assertion of each pair.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

import algebra as A
import check
import gen
import run
import runner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, runner.SRC)
    return runner.Program()


def first(jobs, **want):
    return next(j for j in jobs if all(j["expect"].get(k) == v for k, v in want.items()))


def run_and_check(program, job):
    code, out = program.run_job(job)
    assert check.check_job(job, code, out) is None, out[:500]
    return code, json.loads(out)


def rejected(job, code, out):
    return check.check_job(job, code, json.dumps(out)) is not None


QUERY = gen.generate("query", 5)["jobs"]


def test_verify_rejects_a_flipped_verdict(program):
    job = first(QUERY, check="verify", passed=False, degree="nonlinear")
    code, out = run_and_check(program, job)
    assert code == 1
    assert rejected(job, 0, {"passed": True, "witness": None})
    job = first(QUERY, check="verify", passed=True)
    code, out = run_and_check(program, job)
    assert rejected(job, 1, {"passed": False, "witness": out["witness"]})


def test_verify_rejects_a_wrong_residual(program):
    job = next(j for j in QUERY if j["expect"]["check"] == "verify"
               and not j["expect"]["passed"] and "--form" in j["argv"]
               and json.loads(j["stdin"])["grade"] >= 2)
    code, out = run_and_check(program, job)
    residual = out["witness"]["residual"]
    n = residual["nvars"]
    key = next(iter(residual["components"]))
    poly = A.padd(A.parse_poly(residual["components"][key], n), A.pvar(n, 0))
    residual["components"][key] = A.poly_text(poly, n)
    assert rejected(job, code, out)


def test_classify_rejects_a_wrong_r(program):
    job = first(QUERY, check="classify", type="1")
    code, out = run_and_check(program, job)
    out["r"] += 1
    assert rejected(job, code, out)


def test_classify_rejects_a_wrong_change(program):
    job = first(QUERY, check="classify", type="2")
    code, out = run_and_check(program, job)
    comps = out["change"]["components"]
    comps[0] = comps[0] + " + x2" if "x2" not in comps[0] else comps[0] + " + x1"
    assert rejected(job, code, out)


@pytest.mark.parametrize("kind", ["1", "2"])
@pytest.mark.parametrize("as_tensor", [False, True])
def test_classify_rejects_the_input_reported_as_achieved(program, kind, as_tensor):
    job = next(j for j in QUERY if j["expect"]["check"] == "classify"
               and j["expect"]["type"] == kind and ("--form" not in j["argv"]) == as_tensor)
    code, out = run_and_check(program, job)
    # identity change and achieved = input: the pullback check alone would pass
    payload = json.loads(job["stdin"])
    n = payload["nvars"]
    out["change"]["components"] = [f"x{i + 1}" for i in range(n)]
    out["achieved"] = payload
    reason = check.check_job(job, code, json.dumps(out))
    assert reason is not None and "normal form" in reason


def test_resonance_rejects_a_dropped_resonance(program):
    jobs = [j for j in QUERY if j["expect"]["check"] == "resonance"]
    for job in jobs:
        code, out = run_and_check(program, job)
        if out["resonances"]:
            break
    else:
        pytest.fail("no resonant matrix drawn")
    out["resonances"].pop()
    assert rejected(job, code, out)


def test_resonance_rejects_a_wrong_eigenvalue(program):
    job = first(QUERY, check="resonance")
    code, out = run_and_check(program, job)
    out["eigenvalues"][0][0] += 1e-6
    assert rejected(job, code, out)


def test_type1_rejects_one_changed_map_coefficient(program):
    job = gen.generate("type1", 5)["jobs"][0]
    code, out = run_and_check(program, job)
    n = out["map"]["nvars"]
    comp = A.parse_poly(out["map"]["components"][0], n)
    mono = max(comp, key=sum)
    comp[mono] += 1
    out["map"]["components"][0] = A.poly_text(comp, n)
    assert rejected(job, code, out)


def test_type2_check_on_a_normal_form():
    n, q, N = 4, 3, 3
    diag = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    job = {"stdin": json.dumps(A.graded_json(A.type2_tensor(n, q, diag), n, q, "vector")),
           "expect": {"check": "type2", "N": N, "q": q, "resonant": False,
                      "eigen": [["2", "0"], ["3", "0"]], "d": 0}}
    out = {"map": {"nvars": n, "components": ["x1", "x2", "x3", "x4"], "trunc": N},
           "multiplier": "1", "field_matrix": [["2", "0"], ["0", "3"]]}
    assert not rejected(job, 0, out)
    out["map"]["components"][2] = "x3 + x4^2"
    assert rejected(job, 0, out)
    out["map"]["components"][2] = "x3"
    out["multiplier"] = "2"
    assert rejected(job, 0, out)


def test_type2_rejects_one_changed_map_coefficient(program):
    # the cheapest support of the (4, 3, 3) grid: a real output in well under a second
    job = gen.generate("type2", 5)["jobs"][len(gen.SUPPORTS) - 1]
    code, out = run_and_check(program, job)
    n = len(out["map"]["components"])
    comp = A.parse_poly(out["map"]["components"][1], n)
    mono = max(comp, key=sum)
    comp[mono] += 1
    out["map"]["components"][1] = A.poly_text(comp, n)
    assert rejected(job, code, out)


def test_type2_known_faults_are_fixed_inputs():
    def faults(seed):
        return [job for job in gen.generate("type2", seed)["jobs"] if "known_fault" in job["expect"]]
    assert len(faults(1)) == 2
    assert faults(1) == faults(2)


def test_tally_counts_known_faults_as_failed_and_others_as_incorrect():
    jobs = [{"id": 0, "expect": {}}, {"id": 1, "expect": {"known_fault": "wrong multiplier"}},
            {"id": 2, "expect": {"known_fault": "crash"}}]
    res = {"codes": [[0, 0, 3], [0, 0, 3]], "repeats_differ": 0}
    verdict = {"failures": [{"id": 2, "error": "exit code 3"}],
               "errors": [{"id": 1, "error": "Phi_* P != f * Lambda"}]}
    assert run.tally(jobs, verdict, res) == (True, 6, 4, [])
    verdict["errors"].append({"id": 0, "error": "wrong"})
    assert run.tally(jobs, verdict, res)[0] is False
    verdict["errors"].pop()
    verdict["failures"].append({"id": 0, "error": "exit code 4"})
    correct, _, failed, _ = run.tally(jobs, verdict, res)
    assert (correct, failed) == (False, 6)
    verdict["failures"].pop()
    assert run.tally(jobs, verdict, dict(res, repeats_differ=1))[0] is False


def test_type2_rejects_a_resonance_that_is_not_real():
    job = {"expect": {"check": "type2", "N": 3, "q": 3, "resonant": True,
                      "eigen": [["2", "0"], ["3", "0"]], "d": 0}}
    assert rejected(job, 1, {"resonant": True, "detail": ""})


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_remove_multiplier_rejects_one_changed_map_coefficient():
    n = 4
    job = {"kind": "remove_multiplier", "f": "1 + x1", "signs": [1, 1, -1, 1], "N": 3,
           "nvars": n, "expect": {"check": "remove_multiplier"}}
    # f * Pi_1 with f = 1 + x1 is not Pi_1, so the identity map must be refused
    identity = {"map": {"nvars": n, "components": ["x1", "x2", "x3", "x4"], "trunc": 3},
                "scaling": None, "obstruction": None}
    assert rejected(job, 0, identity)
    job["f"] = "1"
    assert not rejected(job, 0, identity)
    identity["map"]["components"][1] = "x2 + x1*x3"
    assert rejected(job, 0, identity)
