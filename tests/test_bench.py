"""Tests for the benchmark harness bookkeeping."""
import hashlib
import json

import numpy as np
import pytest

from mmrom import bench
from mmrom.bench import (
    DEGREES,
    HALF_WIDTHS,
    REFERENCE_TABLES,
    TABLE_IDS,
    _check_cell,
    make_benchmark_problem,
    reproduce_table,
    run_residual_cell,
    run_rom_cell,
    solve_benchmark,
    write_results_csv,
)
from mmrom.problems import make_cart_pendulum, make_rl_linear, make_rl_vdp, make_test1
from mmrom.rom import build_rom, default_gain, reduced_dynamics
from mmrom.simulate import OMEGA0, R0, simulate_fom, simulate_rom, steady_state_rms


def test_reference_tables_well_formed():
    for table_id, spec in REFERENCE_TABLES.items():
        assert spec["kind"] in ("residual", "rom", "timing")
        if spec["kind"] == "timing":
            assert len(spec["values"]) == len(spec["dims"])
            continue
        assert len(spec["values"]) == len(spec["half_widths"])
        for row in spec["values"]:
            assert len(row) == len(spec["degrees"])
            for v in row:
                assert v is None or v > 0
        kind, tol = spec["criterion"]
        assert kind in ("absolute", "factor") and tol > 0


def test_reference_tables_keep_the_published_values():
    # any change to a reference value, grid, pass rule or W changes the digest
    digest = hashlib.sha256(json.dumps(REFERENCE_TABLES, sort_keys=True).encode()).hexdigest()
    assert digest == "33cf061ad361b9c91044b69b1d93d2e20c743a04ee27e105b1380e7b2b19e52a"


def test_check_cell_logic():
    assert _check_cell(1.0e-7, 2.0e-7, True, ("factor", 3.0))
    assert not _check_cell(1.0e-7, 9.0e-7, True, ("factor", 3.0))
    assert _check_cell(1.0e-12, 1.0e-16, True, ("absolute", 1e-10))
    assert not _check_cell(1.0e-9, 1.0e-16, True, ("absolute", 1e-10))
    # a dash entry passes exactly when the run also fails to converge
    assert _check_cell(None, None, False, ("factor", 3.0))
    assert not _check_cell(None, 1.0e-7, False, ("factor", 3.0))
    assert not _check_cell(1.0e-7, None, True, ("factor", 3.0))


@pytest.mark.parametrize("name, n, published", [
    ("test1", 2, lambda: make_test1(a=2.0)),
    ("cart_pendulum", 4, lambda: make_cart_pendulum(a1=2.0, a2=3.0, k=-2.0 / 3.0)),
    ("rl_linear", 100, lambda: make_rl_linear(n=100, a=2.0, kappa=1.1)),
    ("rl_vdp", 100, lambda: make_rl_vdp(n=100, mu=0.25, kappa=1.1)),
])
def test_benchmark_problems_take_the_published_parameters(name, n, published):
    # the constructors' defaults are the benchmark's parameters
    problem, expected = make_benchmark_problem(name, n), published()
    rng = np.random.default_rng(0)
    w, x, u = rng.standard_normal(2), rng.standard_normal(n), rng.standard_normal(1)
    assert np.array_equal(problem.generator.sl(w), expected.generator.sl(w))
    assert np.array_equal(problem.system.f(x, u), expected.system.f(x, u))
    with pytest.raises(ValueError, match="unknown benchmark problem 'generic'"):
        make_benchmark_problem("generic", n)


def test_run_residual_cell_test1():
    result = run_residual_cell(REFERENCE_TABLES["T1"], 1.0, 2)
    assert result.converged and result.passed
    assert result.value < 1e-10


def test_reproduce_runs_tables_at_published_n(reproduced):
    results = reproduced("T3-res-n1000")
    assert len(results) == 9
    assert all(r.n == 1000 and r.passed for r in results)
    with pytest.raises(ValueError):
        reproduce_table("T99")


def test_reproduce_records_failure_cause(monkeypatch):
    def broken(spec, half_width, M):
        raise TypeError("bad operand")

    monkeypatch.setattr(bench, "run_residual_cell", broken)
    results = reproduce_table("T1")
    assert len(results) == 3
    for r in results:
        assert not r.passed and not r.converged
        assert r.error.startswith("TypeError:") and "bad operand" in r.error


def test_reproduce_records_failure_cause_of_timing_rows(monkeypatch):
    # a timing row that raises is recorded like a residual or ROM cell, not left to end the table
    def broken(problem, half_width, M):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "solve_benchmark", broken)
    results = reproduce_table("T3-time")
    spec = REFERENCE_TABLES["T3-time"]
    assert [(r.half_width, r.M, r.n, r.reference) for r in results] == \
        [(1.0, 6, n, ref) for n, ref in zip(spec["dims"], spec["values"])]
    for r in results:
        assert not r.passed and not r.converged and r.value is None
        assert r.error == "RuntimeError: boom"


def test_write_results_csv(tmp_path):
    results = reproduce_table("T1")
    path = tmp_path / "results.csv"
    write_results_csv(path, results)
    rows = path.read_text().splitlines()
    assert rows[0] == "domain,M,n,value,reference,pass"
    assert len(rows) == 1 + len(results)


@pytest.fixture
def fresh_runs():
    """An empty cache of full-order and reduced runs, so that no test sees another test's run."""
    bench._rom_runs.cache_clear()
    yield bench._rom_runs
    bench._rom_runs.cache_clear()


def _fresh_fom(spec):
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    return simulate_fom(problem, omega0=OMEGA0, x0=np.zeros(spec["n"]))


def _fresh_rom_value(spec, half_width, M, fom):
    """A ROM cell's score with its own reduced run, as each cell integrated it before
    the run was shared."""
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    solution, _ = solve_benchmark(problem, half_width, M)
    run = simulate_rom(reduced_dynamics(problem, default_gain(problem)), problem.generator,
                       omega0=OMEGA0, r0=R0)
    return steady_state_rms(fom, build_rom(problem, solution, *run))["relative_rms"]


def test_rom_cell_scores_against_fresh_full_order_run(fresh_runs):
    spec = REFERENCE_TABLES["T3-rom-n2"]
    expected = _fresh_rom_value(spec, 1.0, 6, _fresh_fom(spec))
    first = run_rom_cell(spec, 1.0, 6)   # integrates the full-order model
    second = run_rom_cell(spec, 1.0, 6)  # reads it from the cache
    assert first.value == second.value == expected
    assert fresh_runs.cache_info().misses == 1


def test_reference_trajectory_per_problem(fresh_runs):
    runs = {}
    for table_id in ("T3-rom-n2", "T4-rom-n2"):
        spec = REFERENCE_TABLES[table_id]
        runs[table_id], _ = fresh_runs(spec["problem"], spec["n"])
        fresh = _fresh_fom(spec)
        for field in ("times", "outputs"):
            assert np.array_equal(getattr(runs[table_id], field), getattr(fresh, field))
        assert fresh_runs(spec["problem"], spec["n"])[0] is runs[table_id]
    linear, vdp = runs["T3-rom-n2"].outputs, runs["T4-rom-n2"].outputs
    assert linear.shape != vdp.shape or not np.array_equal(linear, vdp)


def test_reference_trajectory_is_read_only(fresh_runs):
    fom, _ = fresh_runs("rl_linear", 2)
    for array in (fom.times, fom.outputs):
        with pytest.raises(ValueError):
            array[0] = 0.0


def _count_runs(monkeypatch, name, run):
    """Replace bench's ``name`` by ``run``, recording each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(bench, name, counted)
    return calls


def test_reproduce_integrates_full_order_model_once(fresh_runs, monkeypatch):
    calls = _count_runs(monkeypatch, "simulate_fom", simulate_fom)
    results = reproduce_table("T3-rom-n2")
    assert len(calls) == 1
    assert len(results) == 9 and all(r.passed and r.error is None for r in results)


def test_failed_full_order_run_is_not_cached(fresh_runs, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("integration failed: step size too small")

    calls = _count_runs(monkeypatch, "simulate_fom", broken)
    results = reproduce_table("T3-rom-n2")
    assert len(calls) == len(results) == 9  # every cell retries, and records its own cause
    assert all(r.error == "RuntimeError: integration failed: step size too small"
               for r in results)


def test_reproduce_integrates_reduced_model_once(fresh_runs, monkeypatch):
    calls = _count_runs(monkeypatch, "simulate_rom", simulate_rom)
    results = reproduce_table("T3-rom-n2")
    assert len(calls) == 1
    assert len(results) == 9 and all(r.passed and r.error is None for r in results)


def test_reduced_run_is_shared_read_only(fresh_runs):
    spec = REFERENCE_TABLES["T3-rom-n2"]
    first = run_rom_cell(spec, 1.0, 2)
    _, run = fresh_runs(spec["problem"], spec["n"])
    second = run_rom_cell(spec, 3.0, 6)
    assert fresh_runs(spec["problem"], spec["n"])[1] is run
    assert fresh_runs.cache_info().misses == 1
    assert first.value != second.value
    for array in run:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_failed_reduced_run_is_not_cached(fresh_runs, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("integration failed: step size too small")

    calls = _count_runs(monkeypatch, "simulate_rom", broken)
    results = reproduce_table("T3-rom-n2")
    assert len(calls) == len(results) == 9  # every cell retries, and records its own cause
    assert all(r.error == "RuntimeError: integration failed: step size too small"
               for r in results)


@pytest.mark.filterwarnings("ignore:reduced state left the expansion domain")
@pytest.mark.parametrize("table_id", ["T3-rom-n2", "T4-rom-n2"])
def test_shared_reduced_run_scores_as_a_fresh_run_per_cell(fresh_runs, table_id):
    spec = REFERENCE_TABLES[table_id]
    fom, _ = fresh_runs(spec["problem"], spec["n"])
    for r in reproduce_table(table_id):
        assert r.value == _fresh_rom_value(spec, r.half_width, r.M, fom)


def test_rom_cells_count_domain_excursions():
    # the Van der Pol reduced state leaves the hw = 1 and hw = 2 boxes; the linear one never does
    with pytest.warns(UserWarning, match="left the expansion domain"):
        vdp = reproduce_table("T4-rom-n2")
    assert [r.half_width for r in vdp if r.outside_domain > 0] == [1.0] * 3 + [2.0] * 3
    assert all(r.outside_domain == 0 for r in vdp if r.half_width == 3.0)
    assert all(r.outside_domain == 0 for r in reproduce_table("T3-rom-n2"))
