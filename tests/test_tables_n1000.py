"""The n=1000 Van der Pol ladder cells whose Newton iterates pass through
large excursions of |F|_1 on their way to the published values."""
import pytest

from mmrom.bench import REFERENCE_TABLES, run_residual_cell


@pytest.mark.parametrize("half_width,M,value", [(2.0, 4, 0.0405606), (3.0, 2, 0.0381314)])
def test_t4_res_n1000_cell_converges_to_published_value(half_width, M, value):
    result = run_residual_cell(REFERENCE_TABLES["T4-res-n1000"], half_width, M)
    assert result.converged and result.passed
    assert result.value == pytest.approx(value, rel=1e-5)
