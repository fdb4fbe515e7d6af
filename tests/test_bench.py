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
    reproduce_table,
    run_residual_cell,
    write_results_csv,
)


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


def test_reproduce_runs_tables_at_published_n():
    results = reproduce_table("T3-res-n1000")
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
