import json
import subprocess
import sys

import pytest

from shintani.cli import main


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


def test_truncation_error_exit_code(capsys):
    job = '{"field": {"D": 5}, "char": {"kind": "trivial"}, "r": 2, "dmax": 2}'
    code, out = run_cli(["lvalue-quad", "--inline", job], capsys)
    assert code == 66
    assert json.loads(out)["error"]["code"] == 66


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


_PHI2 = {"n": 2}
_ONE_CONE = {"cones": [{"coeff": "1", "generators": [[1, 0]]}]}
_Q3 = {"modulus": 3, "index": 1}


def _Z5(e):
    """Order-4 character mod 5 (2 -> i) whose value at 2 has exponent e."""
    return {"modulus": 5, "zeta_order": 4, "values": {"1": 0, "2": e, "3": 3, "4": 2}}


@pytest.mark.parametrize("command,job", [
    # pair: malformed combos and test functions
    ("pair", {"combo": {"cones": [{"coeff": "1", "generators": [[0.5, 1]]}]}, "phi": _PHI2}),
    ("pair", {"combo": {"cones": [{"coeff": 0.5, "generators": [[1, 1]]}]}, "phi": _PHI2}),
    ("pair", {"combo": {"cones": []}, "phi": {}}),
    ("pair", {"combo": {"cones": [{"coeff": "1", "generators": [[1, 0], [2, 0]]}]},
              "phi": _PHI2}),
    ("pair", {"combo": {"cones": [{"coeff": "1", "generators": [["x", 0]]}]}, "phi": _PHI2}),
    ("pair", {"combo": {"cones": [{"generators": [[1, 0]]}]}, "phi": _PHI2}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "f": 2.0}}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "d": 0}}),
    ("pair", {"combo": _ONE_CONE, "phi": _PHI2, "dmax": -3}),
    # integer job fields
    ("lvalue-q", {"char": _Q3, "r": 1.9}),
    ("lvalue-q", {"char": _Q3, "r": True}),
    ("lvalue-q", {"char": _Q3, "r": "1"}),
    ("lvalue-q", {"char": _Q3, "r": 0}),
    ("lvalue-q", {"char": _Q3, "r": 1, "dmax": -3}),
    ("lvalue-q", {"char": {"modulus": 3.0, "index": 1}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": 3, "index": "1"}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": 5, "zeta_order": 4.0, "values": {"2": 1}}, "r": 1}),
    ("lvalue-quad", {"field": {"D": "x"}, "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "r": 1.9}),
    ("lvalue-quad", {"field": {"D": 5}, "r": 1, "dmax": -3}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2.5, "values": {}}, "r": 1}),
    ("s-coeffs", {"field": {"D": 5}, "rmax": 1.5}),
    ("verify-cocycle", {"n": 2.5, "seed": 1}),
    ("verify-cocycle", {"n": 2, "seed": "7"}),
    ("verify-cocycle", {"n": 2, "seed": 7, "trials": True}),
    # character documents
    ("lvalue-quad", {"field": {"D": 5}, "char": [], "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": 3, "r": 1}),
    ("s-coeffs", {"field": {"D": 5}, "char": [], "rmax": 1}),
    ("s-coeffs", {"field": {"D": 5}, "char": 3, "rmax": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1": 1}}, "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,0,1": 1}}, "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,x": 1}}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": 5, "values": {"x": 1}}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": 5, "values": {"1,2": 1}}, "r": 1}),
    ("lvalue-q", {"char": {"f": 0}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": -3}, "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": 0, "values": {}}, "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": -3, "values": {}}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": 5, "zeta_order": 0, "values": {"1": 0}}, "r": 1}),
    ("lvalue-q", {"char": {"modulus": 5, "zeta_order": -2, "values": {"1": 0}}, "r": 1}),
    ("lvalue-q", {"char": _Z5(1.7), "r": 1}),
    ("lvalue-q", {"char": _Z5(True), "r": 1}),
    ("lvalue-q", {"char": _Z5("1"), "r": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "char": {"f": 2, "values": {"1,0": 0.5}}, "r": 1}),
    # matrix tuples: none, or a count that differs from the matrix size
    ("eval-sigma", {"alphas": [], "w": [1, 1]}),
    ("decompose", {"alphas": []}),
    ("eval-sigma", {"alphas": [[[1, 0], [0, 1]]], "w": [1, 1]}),
    ("decompose", {"alphas": [[[1, 0], [0, 1]]] * 3}),
    ("eval-sigma", {"alpha": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "w": [1, 1, 1]}),
    ("decompose", {"alpha": [[2]]}),
    # force is a JSON boolean
    ("lvalue-quad", {"field": {"D": 3}, "r": 1, "force": "false"}),
    ("lvalue-quad", {"field": {"D": 5}, "r": 1, "force": 1}),
    ("lvalue-quad", {"field": {"D": 5}, "r": 1, "force": None}),
    ("s-coeffs", {"field": {"D": 3}, "rmax": 1, "force": "true"}),
    # pair: the test function's ring fields
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "zeta_order": True}}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "zeta_order": 0}}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": 2.7}}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": "5"}}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": 4}}),
    ("pair", {"combo": _ONE_CONE, "phi": {"n": 2, "sqrt": 1}}),
])
def test_rejects_malformed_job_fields(command, job, capsys):
    _schema_rejects(command, json.dumps(job), capsys)


def test_rejects_non_object_document_with_overrides(capsys):
    code, out = run_cli(["verify-cocycle", "--inline", "[1]", "--seed", "3"], capsys)
    assert code == 64
    assert json.loads(out)["error"]["code"] == 64
