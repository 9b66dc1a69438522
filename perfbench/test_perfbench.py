"""Self-tests of the benchmark: its oracles, its input generators, the
tracer's rebinding, and agreement between BENCHMARK.json and the code.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest
perfbench``.  Nothing here re-imports the library, because other tests in
the same process hold references to its modules.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import shintani  # noqa: E402
import shintani.cli  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_siegel_oracle_reproduces_known_zeta_values():
    assert oracles.quadratic_zeta(2, 1) == Fraction(1, 12)
    assert oracles.quadratic_zeta(5, 1) == Fraction(1, 30)
    assert oracles.quadratic_zeta(13, 1) == Fraction(1, 6)
    assert oracles.quadratic_zeta(41, 1) == Fraction(4, 3)
    assert oracles.quadratic_zeta(61, 1) == Fraction(11, 6)
    assert oracles.quadratic_zeta(5, 3) == Fraction(1, 60)
    assert oracles.quadratic_zeta(13, 2) == 0


def test_principal_character_oracle_matches_closed_form():
    from shintani.lvalues import DirichletChar, dirichlet_L_closed
    assert oracles.principal_dirichlet_L(1, 2) == Fraction(-1, 12)
    for f in (1, 2, 6, 12, 30):
        chi = DirichletChar.enumerate(f)[0]
        assert chi.is_trivial
        for r in range(1, 5):
            value = dirichlet_L_closed(chi, r).rational_part()
            assert value == oracles.principal_dirichlet_L(f, r)


def test_cocycle_oracles_reject_wrong_values():
    assert oracles.cocycle_relation_holds(1, [[1, 0, 0], [0, 0, 1], [1, 1, 1]])
    assert not oracles.cocycle_relation_holds(1, [[1, 1, 0]])
    assert oracles.decomposition_sound([[1, 0, 0]], ["1"])
    assert not oracles.decomposition_sound([[1, 0, 0]], ["0"])


def test_inputs_are_deterministic_per_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.specs(3) == wl.specs(3)
        assert wl.specs(3) != wl.specs(4)
    for wl in (workloads.LvalueQ, workloads.LvalueQuad):  # the seed orders a fixed pool
        assert sorted(wl.specs(3)) == sorted(wl.specs(4))


def test_generator_copy_draws_what_the_cli_draws():
    ours, theirs = random.Random(11), random.Random(11)
    for n in (2, 3, 3, 2, 3):
        assert workloads.random_invertible(ours, n) == shintani.cli.random_invertible(theirs, n)
        assert (workloads.random_degenerate_tuple(ours, n, n + 1)
                == shintani.cli.random_degenerate_tuple(theirs, n, n + 1))
        assert (workloads.random_nonzero_vector(ours, n)
                == shintani.cli.random_nonzero_vector(theirs, n))


def test_lvalue_q_pool_covers_every_character():
    pool = workloads.LvalueQ.specs(0)
    assert len(pool) == len(set(pool)) == 1112
    for f in range(1, 31):
        count = len(shintani.lvalues.DirichletChar.enumerate(f))
        assert {i for g, i, r in pool if g == f} == set(range(count))


def _bindings():
    """Every module global and class attribute of the package, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "shintani" or name.startswith("shintani."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("shintani"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def _cheap_specs():
    cocycle = next(s for s in workloads.Cocycle.specs(0) if len(s[0][0]) == 2)
    return [(workloads.Cocycle, cocycle), (workloads.LvalueQ, (5, 1, 2)),
            (workloads.LvalueQuad, (5, 1))]


def test_tracer_counts_inside_and_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed(shintani):
        assert _bindings() != before
        for wl, spec in _cheap_specs():
            assert wl.check(spec, wl.run(shintani, spec)) is None
    assert tracer.missing == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    metrics = tracer.layer_metrics()
    assert metrics["cocycle_core.kernel_setup.calls"] > 0
    assert metrics["cone_algebra.decompose.calls"] == 3
    assert metrics["lvalues.char_enum.calls"] == 1
    assert metrics["lvalues.field_ms"] > 0
    assert metrics["solomon_hu.lattice.candidates"] == metrics["linalg.solve.calls"] > 0

    # restored code no longer reaches the tracer
    counts = dict(tracer.calls)
    for wl, spec in _cheap_specs():
        wl.run(shintani, spec)
    assert dict(tracer.calls) == counts


def test_recorded_digests_match_the_library():
    table = json.loads(run.DIGESTS.read_text())
    for wl, spec in _cheap_specs()[1:]:
        assert table[wl.name][run.digest(wl.key(spec))] == run.digest(wl.run(shintani, spec))


def test_declared_metrics_are_the_reported_ones():
    declared = {m["name"] for m in BENCH["per_layer"]}
    traced = set(tracing.Tracer().layer_metrics())
    overhead = {"trace.ops_per_s", "trace.untraced_ops_per_s", "trace.slowdown"}
    assert declared == traced | overhead == set(tracing.MOVES)

    timed = run.Pass()
    timed.times_ns = [2_000_000, None, 6_000_000]
    timed.calibration_ns = [1_000_000] * 4
    metrics = run.end_to_end_metrics([timed], [0.5, 0.25, 0.75])
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    assert metrics["op_p50_ms"] == 4.0
    assert metrics["ops_per_s"] == 250.0
    assert metrics["setup_s"] == 0.5
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
