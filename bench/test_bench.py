"""Tests of the benchmark's own parts: the reference propagator, strict
output parsing, and complete tracing pinned by exact call counts.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

import halfline as hl  # noqa: E402
from halfline import cli  # noqa: E402
from halfline.fixtures import get_fixture  # noqa: E402


def _random_ab(rng, n):
    U = inputs.rand_unitary(rng, n)
    return 0.5 * (U + np.eye(n)), 0.5j * (U - np.eye(n))


def test_oracle_matches_free_closed_form():
    # zero pieces still go through expm, and gaps between them too
    rng = np.random.default_rng(7)
    n = 3
    pieces = ((0.2, 0.9, np.zeros((n, n))), (1.3, 2.0, np.zeros((n, n))))
    A, B = _random_ab(rng, n)
    ks = np.array([0.05, 0.7, 3.0, 10.0])
    J = oracle.jost(pieces, A, B, ks)
    closed_form = B[None] - 1j * ks[:, None, None] * A[None]   # J = B - ikA
    assert np.max(np.abs(J - closed_form)) < 1e-12


@pytest.mark.parametrize("fid", ["7.1", "7.2", "7.3"])
def test_oracle_s_zero_matches_fixtures(fid):
    fx = get_fixture(fid)
    assert np.allclose(oracle.s_zero((), fx.A, fx.B, fx.mu), fx.s0, atol=1e-12)


def test_oracle_agrees_with_package_on_random_potential():
    rng = np.random.default_rng(11)
    pieces = inputs.rand_potential(rng, 2, 3)
    A, B = _random_ab(rng, 2)
    pot = hl.Potential(n=2, pieces=pieces)
    bc = hl.BCPair(n=2, A=A, B=B)
    S_ref = oracle.smatrix(pieces, A, B, [0.4, 2.5])
    for k, S in zip((0.4, 2.5), S_ref):
        assert np.linalg.norm(hl.smatrix(pot, bc, k).S - S, 2) < 1e-10


def test_strict_json_rejects_nan_and_infinity():
    for text in ('{"residual": NaN}', '{"residual": Infinity}', '[-Infinity]'):
        with pytest.raises(checks.CheckFailed):
            checks.strict_json(text)
    assert checks.strict_json('{"residual": 1e-300}') == {"residual": 1e-300}


def _traced(tmp_path, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    tracer = Tracer()
    run.install(tracer)
    try:
        rc = cli.main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    return rc, tracer


def test_one_sweep_row_is_six_propagations(tmp_path):
    case = inputs.random_cases(3, 0)[2]       # n = 2, 20 pieces, generic
    config = dict(case.config, kgrid=[1.0, 1.0, 1])
    rc, tracer = _traced(tmp_path, ["sweep", "--format", "json"], config)
    assert rc == 0
    assert tracer.calls["solver.propagate"] == 6
    assert tracer.calls["scattering.smatrix"] == 1
    assert tracer.calls["scattering.jost_matrix"] == 3
    assert tracer.calls["cli.sweep"] == 1
    # 6 walks across the whole support of 20 pieces and their gaps
    assert tracer.counts["solver.propagate.segments"] > 6 * 20


def test_zero_energy_pipeline_on_one_piece_is_51_propagations():
    pot = hl.Potential(n=1, pieces=((0.0, 1.0, np.array([[-1.0]])),))
    tracer = Tracer()
    run.install(tracer)
    try:
        hl.zero_energy_pipeline(pot, hl.dirichlet(1))
    finally:
        tracer.uninstall()
    assert tracer.calls["solver.propagate"] == 51
    assert tracer.calls["scattering.jost_matrix_zero"] == 1


def test_sweep_pool_self_times_are_per_thread(tmp_path, monkeypatch):
    monkeypatch.setenv("HALFLINE_NUM_THREADS", "2")
    case = inputs.random_cases(3, 0)[2]
    config = dict(case.config, kgrid=[0.5, 5.0, 8])
    rc, tracer = _traced(tmp_path, ["sweep", "--format", "json"], config)
    assert rc == 0
    assert all(t >= 0.0 for t in tracer.self_time.values())
    assert tracer.calls["scattering.smatrix"] == 8


def test_uninstall_restores_every_binding():
    from halfline import lowenergy, scattering, solver
    before = (solver.propagate, scattering.jost_solution, lowenergy.jost_matrix_zero,
              cli.cmd_sweep)
    tracer = Tracer()
    run.install(tracer)
    assert lowenergy.jost_matrix_zero is not before[2]
    tracer.uninstall()
    after = (solver.propagate, scattering.jost_solution, lowenergy.jost_matrix_zero,
             cli.cmd_sweep)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
