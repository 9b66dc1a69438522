import json
import pathlib
import subprocess
import sys

import pytest

from shintani import cli
from shintani.cli import main
from shintani.errors import BudgetExceeded


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_eval_sigma_example(capsys):
    code, out = run_cli(
        ["eval-sigma", "--inline", '{"alpha": [[-1,0],[0,1]], "w": [3,2]}'],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"value": 1}


def test_eval_sigma_explicit_tuple(capsys):
    job = '{"alphas": [[[1,0],[0,1]], [[1,0],[0,-1]]], "w": [3, 0]}'
    code, out = run_cli(["eval-sigma", "--inline", job], capsys)
    assert code == 0
    assert json.loads(out) == {"value": -1}


def test_lvalue_quad_example(capsys):
    job = '{"field": {"D": 5}, "char": {"kind": "trivial"}, "r": 1}'
    code, out = run_cli(["lvalue-quad", "--inline", job], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1/30"
    assert doc["route"] == "cocycle"


def test_lvalue_q_both_routes(capsys):
    job = '{"char": {"modulus": 3, "index": 1}, "r": 1}'
    code, out = run_cli(["lvalue-q", "--inline", job], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1/3"
    assert doc["agrees"] is True


def test_verify_cocycle_clean_run(capsys):
    job = '{"n": 2, "trials": 25, "samples": 10, "seed": 7}'
    code, out = run_cli(["verify-cocycle", "--inline", job], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["trials"] == 25


def test_verify_cocycle_dimension_three(capsys):
    job = '{"n": 3, "trials": 10, "samples": 5, "seed": 7}'
    code, out = run_cli(["verify-cocycle", "--inline", job], capsys)
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_verify_cocycle_requires_seed(capsys):
    code, out = run_cli(["verify-cocycle", "--inline", '{"n": 2}'], capsys)
    assert code == 64
    assert json.loads(out)["error"]["code"] == 64


@pytest.mark.parametrize("n,trials,samples,field", [
    (3, 25000, 20, None),            # the largest n = 3 job both bounds allow
    (3, 25001, 20, "'trials' and 'samples'"),
    (1, 10 ** 6, 2, "'trials' and 'samples'"),
    (3, 25001, 0, "'trials'"),
    (2, 10 ** 8, 0, "'trials'"),
    (4, 351, 20, None),              # the largest n = 4 and n = 5 jobs the
    (5, 20, 20, None),               # cofactor-form bound allows
    (4, 352, 0, "'n' and 'trials'"),
    (5, 21, 0, "'n' and 'trials'"),
    (6, 0, 20, None),                # n >= 6 builds no kernel within the bound...
    (6, 1, 1, "'n' and 'trials'"),   # ...and one trial ran 18 s before the bound
    (10 ** 4, 1, 0, "'n' and 'trials'"),
])
def test_verify_cocycle_budget_estimate(n, trials, samples, field):
    if field is None:
        cli._verify_budget(n, trials, samples)
        return
    with pytest.raises(BudgetExceeded, match=f"field.? {field} .*above the bound of"):
        cli._verify_budget(n, trials, samples)


def test_verify_cocycle_over_budget_exits_64_before_any_trial(monkeypatch, capsys):
    # 10^8 trials at n = 3 ran until killed; the pre-flight estimate now
    # refuses the job without building a single tuple
    def no_trials(*_):
        raise AssertionError("an over-budget job must not start")

    monkeypatch.setattr(cli, "CocycleChecker", no_trials)
    monkeypatch.setattr(cli, "random_invertible", no_trials)
    job = '{"n": 3, "trials": 100000000, "samples": 20, "seed": 7}'
    code, out = run_cli(["verify-cocycle", "--inline", job], capsys)
    assert code == 64
    error = json.loads(out)["error"]
    assert error["context"] == "verify-cocycle"
    assert "'trials'" in error["message"]
    assert f"above the bound of {cli.MAX_POINT_CHECKS}" in error["message"]


def test_verify_cocycle_dimension_six_exits_64_before_any_kernel(monkeypatch, capsys):
    # one n = 6 trial builds 7 face kernels of 6^6 cofactor forms each
    def no_kernels(*_):
        raise AssertionError("an over-budget job must not build a kernel")

    monkeypatch.setattr(cli, "CocycleChecker", no_kernels)
    job = '{"n": 6, "trials": 1, "samples": 1, "seed": 1}'
    code, out = run_cli(["verify-cocycle", "--inline", job], capsys)
    assert code == 64
    error = json.loads(out)["error"]
    assert "'n' and 'trials'" in error["message"]
    assert f"above the bound of {cli.MAX_FORM_WORK}" in error["message"]


def test_verify_cocycle_builds_forms_on_demand(monkeypatch):
    # the budget counts 375000 cofactor forms for this job, and every one
    # was built when each kernel listed its forms up front; a kernel now
    # builds a form only when a sign reads it: 3302 calls, bound 5000
    import shintani.cocycle_core as core
    calls = [0]
    real = core.cofactor_form

    def counting(cols, slot):
        calls[0] += 1
        return real(cols, slot)

    monkeypatch.setattr(core, "cofactor_form", counting)
    doc = cli.run("verify-cocycle", {"n": 5, "trials": 20, "samples": 5, "seed": 1})
    assert doc == {"degenerate": 2, "failures": 0, "n": 5, "samples": 5, "seed": 1, "trials": 20}
    assert calls[0] <= 5000


@pytest.mark.parametrize("char", [
    {"modulus": 30012, "index": 1},
    {"f": 30012, "index": 1},
    {"modulus": 10 ** 18 + 9, "index": 1},  # trial division would not finish
    {"modulus": 10 ** 7 + 19},
], ids=["modulus", "f", "modulus-10^18", "trivial-10^7"])
def test_lvalue_q_modulus_above_bound_exits_64_before_factoring(char, monkeypatch, capsys):
    import shintani.lvalues as lvalues

    def no_factoring(*_):
        raise AssertionError("a modulus over the bound must not be factored")

    monkeypatch.setattr(lvalues, "unit_group_generators", no_factoring)
    monkeypatch.setattr(lvalues.DirichletChar, "trivial", no_factoring)
    code, out = run_cli(["lvalue-q", "--inline", json.dumps({"char": char, "r": 1})], capsys)
    assert code == 64
    key = "modulus" if "modulus" in char else "f"
    assert json.loads(out)["error"]["message"] == f"field '{key}' must be at most {cli.MAX_ZETA_ORDER}"


@pytest.mark.parametrize("command,job,message", [
    ("lvalue-q", {"char": {"modulus": 5, "zeta_order": 30012, "values": {"1": 0}}, "r": 1},
     "field 'zeta_order' must be at most 30011"),
    ("pair", {"combo": {"cones": []}, "phi": {"n": 1, "zeta_order": 10000019, "values": []}},
     "field 'zeta_order' must be at most 30011"),
    # an order within the bound whose zeta powers are dense
    ("lvalue-q", {"char": {"modulus": 5, "zeta_order": 15015, "values": {"1": 0}}, "r": 1},
     "the zeta table of cyclotomic order 15015 passes 1000000 nonzero entries"),
], ids=["lvalue-q-order", "pair-order", "lvalue-q-dense"])
def test_zeta_table_budget_exits_64(command, job, message, capsys):
    code, out = run_cli([command, "--inline", json.dumps(job)], capsys)
    assert code == 64
    assert json.loads(out)["error"]["message"] == message


def test_decompose_pair_round_trip(capsys):
    code, out = run_cli(
        ["decompose", "--inline", '{"alphas": [[[1,0],[0,1]], [[1,0],[0,-1]]]}'],
        capsys,
    )
    assert code == 0
    combo_doc = json.loads(out)["combo"]
    job = json.dumps({
        "combo": combo_doc,
        "phi": {"n": 2, "d": 1, "f": 2,
                "values": [{"class": [1, 0], "value": "1"},
                           {"class": [0, 1], "value": "-1"}]},
        "dmax": 3,
    })
    code, out = run_cli(["pair", "--inline", job], capsys)
    assert code == 0
    series = json.loads(out)["series"]
    assert series["dmax"] == 3
    assert len(series["denoms"]) == 1


def test_output_bytes_deterministic(capsys):
    job = '{"n": 2, "trials": 10, "samples": 5, "seed": 42}'
    _, out1 = run_cli(["verify-cocycle", "--inline", job], capsys)
    _, out2 = run_cli(["verify-cocycle", "--inline", job], capsys)
    assert out1 == out2


def test_schema_error_exit_code(capsys):
    code, out = run_cli(["eval-sigma", "--inline", '{"w": [1, 0]}'], capsys)
    assert code == 64
    doc = json.loads(out)
    assert doc["error"]["code"] == 64
    code, _ = run_cli(["eval-sigma", "--inline", "not json"], capsys)
    assert code == 64


def test_math_error_exit_code(capsys):
    job = '{"alpha": [[0,0],[0,1]], "w": [1,1]}'
    code, out = run_cli(["eval-sigma", "--inline", job], capsys)
    assert code == 65
    assert "singular" in json.loads(out)["error"]["message"]


def test_character_table_missing_a_unit_exit_code(capsys):
    job = '{"char": {"modulus": 5, "values": {"1": "1", "4": "1"}}, "r": 1}'
    code, out = run_cli(["lvalue-q", "--inline", job], capsys)
    assert code == 65
    assert json.loads(out)["error"]["message"] == "character table must cover exactly the units"


def test_truncation_error_exit_code(capsys):
    job = '{"field": {"D": 5}, "char": {"kind": "trivial"}, "r": 2, "dmax": 2}'
    code, out = run_cli(["lvalue-quad", "--inline", job], capsys)
    assert code == 66
    assert json.loads(out)["error"]["code"] == 66


def _truncation_guard(command, job, low, minimum, message, capsys):
    """A 'dmax' below the degree the value reads exits 66 with the message;
    at that degree the result is the one without 'dmax', apart from the
    echoed field."""
    code, out = run_cli([command, "--inline", json.dumps({**job, "dmax": low})], capsys)
    assert code == 66
    assert json.loads(out)["error"] == {"code": 66, "context": command, "message": message}
    docs = []
    for extra in ({"dmax": minimum}, {}):
        code, out = run_cli([command, "--inline", json.dumps({**job, **extra})], capsys)
        assert code == 0
        doc = json.loads(out)
        doc.pop("dmax", None)
        doc.pop("Dmax", None)
        docs.append(doc)
    assert docs[0] == docs[1]


def test_lvalue_q_truncation_guard(capsys):
    _truncation_guard("lvalue-q", {"char": {"modulus": 1}, "r": 3}, 1, 3,
                      "need dmax >= r", capsys)


def test_lvalue_quad_truncation_guard(capsys):
    _truncation_guard("lvalue-quad", {"field": {"D": 5}, "r": 2}, 3, 4,
                      "need dmax >= 2r", capsys)


def test_s_coeffs_truncation_guard(capsys):
    job = {"field": {"D": 5}, "rmax": 2,
           "char": {"f": 3, "values": {"0,1": 1, "1,0": 1, "2,2": 1,
                                       "0,2": -1, "2,0": -1, "1,1": -1}}}
    _truncation_guard("s-coeffs", job, 3, 4, "need dmax >= 2 rmax", capsys)


def test_input_file(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text('{"alpha": [[-1,0],[0,-1]], "w": [-2, 0]}', encoding="utf-8")
    code, out = run_cli(["eval-sigma", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"value": 1}


def test_subprocess_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "shintani", "eval-sigma",
         "--inline", '{"alpha": [[-1,0],[0,1]], "w": [3,2]}'],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": 1}


def test_s_coeffs_command(capsys):
    job = json.dumps({
        "field": {"D": 5},
        "char": {"f": 2, "zeta_order": 3,
                 "values": {"1,0": 0, "0,1": 1, "1,1": 2}},
        "rmax": 1,
    })
    code, out = run_cli(["s-coeffs", "--inline", job], capsys)
    # the residue-field character does not cancel the poles: math error
    assert code == 65


def test_pretty_output(capsys):
    code, out = run_cli(
        ["eval-sigma", "--pretty", "--inline", '{"alpha": [[-1,0],[0,1]], "w": [3,2]}'],
        capsys,
    )
    assert code == 0
    assert out.startswith("{\n")


def _schema_rejects(command, job, capsys):
    code, out = run_cli([command, "--inline", job], capsys)
    assert code == 64
    assert json.loads(out)["error"]["code"] == 64


def test_eval_sigma_rejects_float_point(capsys):
    _schema_rejects("eval-sigma", '{"alpha": [[1,0],[0,1]], "w": [0.1, 1]}', capsys)


def test_eval_sigma_rejects_bool_point(capsys):
    _schema_rejects("eval-sigma", '{"alpha": [[1,0],[0,1]], "w": [true, 1]}', capsys)


def test_eval_sigma_rejects_float_matrix(capsys):
    _schema_rejects("eval-sigma", '{"alpha": [[1.5,0],[0,1]], "w": [1, 1]}', capsys)


def test_eval_sigma_rejects_wrong_point_dimension(capsys):
    _schema_rejects("eval-sigma", '{"alpha": [[1,0],[0,1]], "w": [1, 2, 3]}', capsys)


def test_decompose_rejects_mixed_matrix_sizes(capsys):
    job = '{"alphas": [[[1,0],[0,1]], [[1,0,0],[0,1,0],[0,0,1]]]}'
    _schema_rejects("decompose", job, capsys)


def test_pair_rejects_float_value(capsys):
    job = json.dumps({
        "combo": {"cones": [], "constant": "0"},
        "phi": {"n": 2, "values": [{"class": [0, 0], "value": 0.5}]},
    })
    _schema_rejects("pair", job, capsys)


_BIG_D = 100000000000000000039
_PHI2 = {"n": 2}
_ONE_CONE = {"cones": [{"coeff": "1", "generators": [[1, 0]]}]}
_Q3 = {"modulus": 3, "index": 1}


def _Z5(e):
    """Order-4 character mod 5 (2 -> i) whose value at 2 has exponent e."""
    return {"modulus": 5, "zeta_order": 4, "values": {"1": 0, "2": e, "3": 3, "4": 2}}


def _pair_one_class(values, **ring):
    """A one-cone pair job in one variable with the given 'values' list."""
    return {"combo": {"cones": [{"coeff": "1", "generators": [[1]]}]},
            "phi": {"n": 1, "f": 3, **ring, "values": values}, "dmax": 1}


@pytest.mark.parametrize("command,job", [
    # pair: malformed combos and test functions
    pytest.param("pair", {"combo": {"cones": [{"coeff": "1", "generators": [[0.5, 1]]}]},
                          "phi": _PHI2}, id="pair-job0"),
    pytest.param("pair", {"combo": {"cones": [{"coeff": 0.5, "generators": [[1, 1]]}]},
                          "phi": _PHI2}, id="pair-job1"),
    pytest.param("pair", {"combo": {"cones": []}, "phi": {}}, id="pair-job2"),
    pytest.param("pair", {"combo": {"cones": [{"coeff": "1", "generators": [[1, 0], [2, 0]]}]},
                          "phi": _PHI2}, id="pair-job3"),
    pytest.param("pair", {"combo": {"cones": [{"coeff": "1", "generators": [["x", 0]]}]},
                          "phi": _PHI2}, id="pair-job4"),
    pytest.param("pair", {"combo": {"cones": [{"generators": [[1, 0]]}]}, "phi": _PHI2},
                 id="pair-job5"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "f": 2.0}}, id="pair-job6"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "d": 0}}, id="pair-job7"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": _PHI2, "dmax": -3}, id="pair-job8"),
    # integer job fields
    pytest.param("lvalue-q", {"char": _Q3, "r": 1.9}, id="lvalue-q-job9"),
    pytest.param("lvalue-q", {"char": _Q3, "r": True}, id="lvalue-q-job10"),
    pytest.param("lvalue-q", {"char": _Q3, "r": "1"}, id="lvalue-q-job11"),
    pytest.param("lvalue-q", {"char": _Q3, "r": 0}, id="lvalue-q-job12"),
    pytest.param("lvalue-q", {"char": _Q3, "r": 1, "dmax": -3}, id="lvalue-q-job13"),
    pytest.param("lvalue-q", {"char": {"modulus": 3.0, "index": 1}, "r": 1}, id="lvalue-q-job14"),
    pytest.param("lvalue-q", {"char": {"modulus": 3, "index": "1"}, "r": 1}, id="lvalue-q-job15"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "zeta_order": 4.0, "values": {"2": 1}},
                              "r": 1}, id="lvalue-q-job16"),
    pytest.param("lvalue-quad", {"field": {"D": "x"}, "r": 1}, id="lvalue-quad-job17"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "r": 1.9}, id="lvalue-quad-job18"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "r": 1, "dmax": -3}, id="lvalue-quad-job19"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2.5, "values": {}}, "r": 1},
                 id="lvalue-quad-job20"),
    pytest.param("s-coeffs", {"field": {"D": 5}, "rmax": 1.5}, id="s-coeffs-job21"),
    pytest.param("verify-cocycle", {"n": 2.5, "seed": 1}, id="verify-cocycle-job22"),
    pytest.param("verify-cocycle", {"n": 2, "seed": "7"}, id="verify-cocycle-job23"),
    pytest.param("verify-cocycle", {"n": 2, "seed": 7, "trials": True}, id="verify-cocycle-job24"),
    # character documents
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": [], "r": 1}, id="lvalue-quad-job25"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": 3, "r": 1}, id="lvalue-quad-job26"),
    pytest.param("s-coeffs", {"field": {"D": 5}, "char": [], "rmax": 1}, id="s-coeffs-job27"),
    pytest.param("s-coeffs", {"field": {"D": 5}, "char": 3, "rmax": 1}, id="s-coeffs-job28"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1": 1}}, "r": 1},
                 id="lvalue-quad-job29"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,0,1": 1}},
                                 "r": 1}, id="lvalue-quad-job30"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,x": 1}},
                                 "r": 1}, id="lvalue-quad-job31"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "values": {"x": 1}}, "r": 1},
                 id="lvalue-q-job32"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "values": {"1,2": 1}}, "r": 1},
                 id="lvalue-q-job33"),
    pytest.param("lvalue-q", {"char": {"f": 0}, "r": 1}, id="lvalue-q-job34"),
    pytest.param("lvalue-q", {"char": {"modulus": -3}, "r": 1}, id="lvalue-q-job35"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 0, "values": {}}, "r": 1},
                 id="lvalue-quad-job36"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": -3, "values": {}}, "r": 1},
                 id="lvalue-quad-job37"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "zeta_order": 0, "values": {"1": 0}}, "r": 1},
                 id="lvalue-q-job38"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "zeta_order": -2, "values": {"1": 0}},
                              "r": 1}, id="lvalue-q-job39"),
    pytest.param("lvalue-q", {"char": _Z5(1.7), "r": 1}, id="lvalue-q-job40"),
    pytest.param("lvalue-q", {"char": _Z5(True), "r": 1}, id="lvalue-q-job41"),
    pytest.param("lvalue-q", {"char": _Z5("1"), "r": 1}, id="lvalue-q-job42"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,0": 0.5}},
                                 "r": 1}, id="lvalue-quad-job43"),
    # matrix tuples: none, or a count that differs from the matrix size
    pytest.param("eval-sigma", {"alphas": [], "w": [1, 1]}, id="eval-sigma-job44"),
    pytest.param("decompose", {"alphas": []}, id="decompose-job45"),
    pytest.param("eval-sigma", {"alphas": [[[1, 0], [0, 1]]], "w": [1, 1]}, id="eval-sigma-job46"),
    pytest.param("decompose", {"alphas": [[[1, 0], [0, 1]]] * 3}, id="decompose-job47"),
    pytest.param("eval-sigma", {"alpha": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "w": [1, 1, 1]},
                 id="eval-sigma-job48"),
    pytest.param("decompose", {"alpha": [[2]]}, id="decompose-job49"),
    # force is a JSON boolean
    pytest.param("lvalue-quad", {"field": {"D": 3}, "r": 1, "force": "false"},
                 id="lvalue-quad-job50"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "r": 1, "force": 1}, id="lvalue-quad-job51"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "r": 1, "force": None},
                 id="lvalue-quad-job52"),
    pytest.param("s-coeffs", {"field": {"D": 3}, "rmax": 1, "force": "true"}, id="s-coeffs-job53"),
    # pair: the test function's ring fields
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "zeta_order": True}},
                 id="pair-job54"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "zeta_order": 0}}, id="pair-job55"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": 2.7}}, id="pair-job56"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": "5"}}, id="pair-job57"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": 4}}, id="pair-job58"),
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": 1}}, id="pair-job59"),
    # a square-root generator above 10^12, here a 21-digit prime, whose
    # trial division would not finish
    pytest.param("pair", {"combo": {"cones": []}, "phi": {"n": 1, "sqrt": _BIG_D, "values": []}},
                 id="pair-job60"),
    pytest.param("lvalue-quad", {"field": {"D": _BIG_D}, "r": 1}, id="lvalue-quad-job61"),
    pytest.param("s-coeffs", {"field": {"D": _BIG_D}, "rmax": 1}, id="s-coeffs-job62"),
    # pair: residue classes and basis indices are JSON integers, and each
    # (i, j) is a basis index of the test function's ring
    pytest.param("pair", _pair_one_class([{"class": [1.7], "value": "1"}]), id="pair-job63"),
    pytest.param("pair", _pair_one_class([{"class": [True], "value": "1"}]), id="pair-job64"),
    pytest.param("pair", _pair_one_class([{"class": [1], "value": [[1.9, 0, "1"]]}], zeta_order=3),
                 id="pair-job65"),
    pytest.param("pair", _pair_one_class([{"class": [1], "value": [[-1, 0, "1"]]}], zeta_order=3),
                 id="pair-job66"),
    pytest.param("pair", _pair_one_class([{"class": [1], "value": [[0, 1, "1"]]}]),
                 id="pair-job67"),
    # pair: cones of two ambient dimensions in one combo
    pytest.param("pair", {"combo": {"cones": [{"coeff": "1", "generators": [[1, 0]]},
                                              {"coeff": "1", "generators": [[1, 0, 0]]}]},
                          "phi": _PHI2}, id="pair-job68"),
    # a cyclotomic order above MAX_ZETA_ORDER, here a 21-digit prime, is
    # refused before its trial division
    pytest.param("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "zeta_order": _BIG_D}},
                 id="pair-job69"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "zeta_order": _BIG_D, "values": {"1": 0}},
                              "r": 1}, id="lvalue-q-job70"),
    pytest.param("lvalue-quad", {"field": {"D": 5},
                                 "char": {"f": 2, "zeta_order": _BIG_D, "values": {}}, "r": 1},
                 id="lvalue-quad-job71"),
])
def test_rejects_malformed_job_fields(command, job, capsys):
    _schema_rejects(command, json.dumps(job), capsys)


def test_rejects_non_object_document_with_overrides(capsys):
    code, out = run_cli(["verify-cocycle", "--inline", "[1]", "--seed", "3"], capsys)
    assert code == 64
    assert json.loads(out)["error"]["code"] == 64


def test_s_coeffs_rejects_truncation_below_table_degree(capsys):
    # the table reaches m1 + m2 = 2 rmax, which dmax = 1 does not track
    job = json.dumps({
        "field": {"D": 5},
        "char": {"f": 3, "values": {"0,1": 1, "1,0": 1, "2,2": 1,
                                    "0,2": -1, "2,0": -1, "1,1": -1}},
        "rmax": 2, "dmax": 1,
    })
    code, out = run_cli(["s-coeffs", "--inline", job], capsys)
    assert code == 66
    assert json.loads(out)["error"]["code"] == 66


# command, job, exit code and stdout of jobs across every command, with the
# lvalue-q, lvalue-quad and s-coeffs 'dmax' absent, below the degree the
# value reads, at it and above it
_GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", _GOLDEN, ids=lambda e: e["command"])
def test_golden_cli_bytes(entry, capsys):
    code, out = run_cli([entry["command"], "--inline", json.dumps(entry["job"])], capsys)
    assert (code, out) == (entry["exit"], entry["stdout"])


# ---------------------------------------------------------------------------
# Unreadable documents, rationals over zero and the less used CLI branches
# ---------------------------------------------------------------------------

def _schema_message(args, capsys):
    """Run the CLI, expect exit 64 with one JSON document, return its message."""
    code, out = run_cli(args, capsys)
    assert code == 64
    (line,) = out.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 64 and error["context"] == args[0]
    return error["message"]


@pytest.mark.parametrize("make,reason", [
    pytest.param(lambda d: d / "missing.json", "No such file or directory", id="missing-file"),
    pytest.param(lambda d: d, "Is a directory", id="directory"),
    pytest.param(lambda d: d / "deep.json", "maximum recursion depth exceeded", id="deep-array"),
    pytest.param(lambda d: d / "latin1.json", "can't decode byte 0xe9", id="invalid-utf8"),
])
def test_unreadable_input_is_a_schema_error(make, reason, tmp_path, capsys):
    depth = 100000
    (tmp_path / "deep.json").write_text("[" * depth + "]" * depth, encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes('{"char": {"modulus": 1}, "r": 1, "x": "é"}'.encode("latin-1"))
    message = _schema_message(["lvalue-q", "--input", str(make(tmp_path))], capsys)
    assert message.startswith("unreadable job document: ") and reason in message


@pytest.mark.parametrize("command,job,message", [
    pytest.param("eval-sigma", {"alpha": [["1/0", 0], [0, 1]], "w": [1, 1]},
                 "bad matrix: Fraction(1, 0)", id="eval-sigma-matrix-entry"),
    pytest.param("eval-sigma", {"alpha": [[1, 0], [0, 1]], "w": ["1/0", 1]},
                 "bad vector: Fraction(1, 0)", id="eval-sigma-point-entry"),
    pytest.param("decompose", {"alphas": [[[1, 0], [0, 1]], [["2/0", 0], [0, 1]]]},
                 "bad matrix: Fraction(2, 0)", id="decompose-matrix-entry"),
    pytest.param("lvalue-q", {"char": {"modulus": 3, "values": {"1": "1", "2": "-1/0"}}, "r": 1},
                 "bad value of '2': Fraction(-1, 0)", id="lvalue-q-character-value"),
    pytest.param("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,0": "1/0"}},
                                 "r": 1},
                 "bad value of '1,0': Fraction(1, 0)", id="lvalue-quad-character-value"),
    pytest.param("pair", {"combo": {"cones": [{"coeff": "1/0", "generators": [[1, 0]]}]},
                          "phi": {"n": 2}},
                 "bad combo or test function: ZeroDivisionError('Fraction(1, 0)')",
                 id="pair-combo-coefficient"),
    pytest.param("pair", {"combo": {"cones": []},
                          "phi": {"n": 1, "values": [{"class": [0], "value": "3/0"}]}},
                 "bad combo or test function: ZeroDivisionError('Fraction(3, 0)')",
                 id="pair-test-function-value"),
])
def test_rational_over_zero_is_a_schema_error(command, job, message, capsys):
    assert _schema_message([command, "--inline", json.dumps(job)], capsys) == message


@pytest.mark.parametrize("command,job,message", [
    pytest.param("lvalue-q", {"char": [1], "r": 1}, "field 'char' has the wrong type",
                 id="wrong-type"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "index": 4}, "r": 1},
                 "character index out of range (0..3)", id="index-above-range"),
    pytest.param("lvalue-q", {"char": {"modulus": 5, "index": -1}, "r": 1},
                 "character index out of range (0..3)", id="index-below-range"),
    pytest.param("lvalue-q", {"char": {"modulus": 1}, "r": 1, "route": "fast"},
                 "route must be closed, cocycle or both", id="unknown-route"),
])
def test_refused_job_fields_name_the_field(command, job, message, capsys):
    assert _schema_message([command, "--inline", json.dumps(job)], capsys) == message


def test_run_refuses_an_unknown_command():
    from shintani import cli
    from shintani.errors import SchemaError
    with pytest.raises(SchemaError, match="^unknown command 'lvalue-z'$"):
        cli.run("lvalue-z", {})


def test_input_from_stdin(monkeypatch, capsys):
    import io
    first = _GOLDEN[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(first["job"])))
    assert run_cli([first["command"], "--input", "-"], capsys) == (first["exit"], first["stdout"])


def test_no_document_is_read_as_empty_object(capsys):
    assert _schema_message(["lvalue-q"], capsys) == "missing field 'char'"
    code, out = run_cli(["verify-cocycle", "--seed", "5"], capsys)
    assert code == 64
    assert json.loads(out)["error"]["message"] == "missing field 'n'"


def test_command_line_options_override_the_document(capsys):
    job = json.dumps({"n": 2, "seed": 1, "trials": 100, "samples": 20})
    code, out = run_cli(["verify-cocycle", "--inline", job, "--seed", "7",
                         "--trials", "3", "--samples", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["seed"], doc["trials"], doc["samples"]) == (7, 3, 2)
    job = json.dumps({"char": {"modulus": 1}, "r": 2, "dmax": 9})
    code, out = run_cli(["lvalue-q", "--inline", job, "--dmax", "1"], capsys)
    assert (code, json.loads(out)["error"]["message"]) == (66, "need dmax >= r")
    code, out = run_cli(["lvalue-q", "--inline", job, "--dmax", "4"], capsys)
    assert (code, json.loads(out)["dmax"]) == (0, 4)


def test_lvalue_q_single_routes(capsys):
    # each route alone prints the value of the two-route job; only the
    # cocycle route echoes dmax, and neither compares
    job = {"char": {"modulus": 7, "index": 2}, "r": 2}
    code, out = run_cli(["lvalue-q", "--inline", json.dumps(job)], capsys)
    both = json.loads(out)
    assert code == 0 and both["agrees"] is True
    for route, keys in (("closed", set()), ("cocycle", {"dmax"})):
        code, out = run_cli(["lvalue-q", "--inline", json.dumps({**job, "route": route})], capsys)
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"r", "modulus", "route", "value"} | keys
        assert doc["value"] == both["value"] and doc["route"] == route
