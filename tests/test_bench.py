"""Tests for the benchmark harness bookkeeping."""
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
from mmrom.rom import build_rom, default_gain
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


def test_check_cell_logic():
    assert _check_cell(1.0e-7, 2.0e-7, True, ("factor", 3.0))
    assert not _check_cell(1.0e-7, 9.0e-7, True, ("factor", 3.0))
    assert _check_cell(1.0e-12, 1.0e-16, True, ("absolute", 1e-10))
    assert not _check_cell(1.0e-9, 1.0e-16, True, ("absolute", 1e-10))
    # a dash entry passes exactly when the run also fails to converge
    assert _check_cell(None, None, False, ("factor", 3.0))
    assert not _check_cell(None, 1.0e-7, False, ("factor", 3.0))
    assert not _check_cell(1.0e-7, None, True, ("factor", 3.0))


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


def test_write_results_csv(tmp_path):
    results = reproduce_table("T1")
    path = tmp_path / "results.csv"
    write_results_csv(path, results)
    rows = path.read_text().splitlines()
    assert rows[0] == "domain,M,n,value,reference,pass"
    assert len(rows) == 1 + len(results)


@pytest.fixture
def fresh_reference():
    """An empty full-order cache, so that no test sees another test's run."""
    bench._reference_trajectory.cache_clear()
    yield bench._reference_trajectory
    bench._reference_trajectory.cache_clear()


def _fresh_fom(spec):
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    return simulate_fom(problem, omega0=OMEGA0, x0=np.zeros(spec["n"]))


def test_rom_cell_scores_against_fresh_full_order_run(fresh_reference):
    spec = REFERENCE_TABLES["T3-rom-n2"]
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    solution, _ = solve_benchmark(problem, 1.0, 6)
    rom = build_rom(problem, solution, default_gain(problem))
    red = simulate_rom(rom, problem.generator, omega0=OMEGA0, r0=R0)
    expected = steady_state_rms(_fresh_fom(spec), red)["relative_rms"]
    first = run_rom_cell(spec, 1.0, 6)   # integrates the full-order model
    second = run_rom_cell(spec, 1.0, 6)  # reads it from the cache
    assert first.value == second.value == expected
    assert fresh_reference.cache_info().misses == 1


def test_reference_trajectory_per_problem(fresh_reference):
    runs = {}
    for table_id in ("T3-rom-n2", "T4-rom-n2"):
        spec = REFERENCE_TABLES[table_id]
        runs[table_id] = fresh_reference(spec["problem"], spec["n"])
        fresh = _fresh_fom(spec)
        for field in ("times", "states", "outputs"):
            assert np.array_equal(getattr(runs[table_id], field), getattr(fresh, field))
        assert fresh_reference(spec["problem"], spec["n"]) is runs[table_id]
    linear, vdp = runs["T3-rom-n2"].outputs, runs["T4-rom-n2"].outputs
    assert linear.shape != vdp.shape or not np.array_equal(linear, vdp)


def test_reference_trajectory_is_read_only(fresh_reference):
    fom = fresh_reference("rl_linear", 2)
    for array in (fom.times, fom.states, fom.outputs):
        with pytest.raises(ValueError):
            array[0] = 0.0


def _count_full_order_runs(monkeypatch, fom):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fom(*args, **kwargs)

    monkeypatch.setattr(bench, "simulate_fom", counted)
    return calls


def test_reproduce_integrates_full_order_model_once(fresh_reference, monkeypatch):
    calls = _count_full_order_runs(monkeypatch, simulate_fom)
    results = reproduce_table("T3-rom-n2")
    assert len(calls) == 1
    assert len(results) == 9 and all(r.passed and r.error is None for r in results)


def test_failed_full_order_run_is_not_cached(fresh_reference, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("integration failed: step size too small")

    calls = _count_full_order_runs(monkeypatch, broken)
    results = reproduce_table("T3-rom-n2")
    assert len(calls) == len(results) == 9  # every cell retries, and records its own cause
    assert all(r.error == "RuntimeError: integration failed: step size too small"
               for r in results)


def test_rom_cells_count_domain_excursions():
    # the Van der Pol reduced state leaves the hw = 1 and hw = 2 boxes; the linear one never does
    with pytest.warns(UserWarning, match="left the expansion domain"):
        vdp = reproduce_table("T4-rom-n2")
    assert [r.half_width for r in vdp if r.outside_domain > 0] == [1.0] * 3 + [2.0] * 3
    assert all(r.outside_domain == 0 for r in vdp if r.half_width == 3.0)
    assert all(r.outside_domain == 0 for r in reproduce_table("T3-rom-n2"))
