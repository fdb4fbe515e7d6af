"""Tests for the coefficient file format and problem fingerprints."""
import numpy as np
import pytest

from mmrom.persist import problem_fingerprint, read_coefficients, write_coefficients
from mmrom.quadrature import BoxDomain


def _write(tmp_path, c, n=2, d=2, M=2, domain=None, fingerprint="test"):
    domain = domain or BoxDomain.cube(1.0, d=d)
    path = tmp_path / "coefficients.txt"
    write_coefficients(path, c, n=n, d=d, M=M, domain=domain, fingerprint=fingerprint)
    return path


def test_bit_exact_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    c = rng.normal(size=2 * 5)
    # include values that expose any precision loss in formatting
    c[0] = np.nextafter(1.0, 2.0)
    c[1] = 1e-300
    c[2] = -0.1
    path = _write(tmp_path, c)
    data = read_coefficients(path)
    assert data["c"].shape == c.shape
    assert np.array_equal(data["c"], c)  # bit-exact, not merely close


def test_header_metadata_round_trip(tmp_path):
    c = np.arange(1.0, 11.0)
    dom = BoxDomain(lo=[-2.0, -0.5], hi=[1.0, 0.5])
    path = _write(tmp_path, c, n=2, d=2, M=2, domain=dom, fingerprint="abc123")
    data = read_coefficients(path)
    assert data["n"] == 2 and data["d"] == 2 and data["M"] == 2
    assert data["fingerprint"] == "abc123"
    assert np.allclose(data["domain"].lo, dom.lo)
    assert np.allclose(data["domain"].hi, dom.hi)


def test_file_is_commented_text(tmp_path):
    path = _write(tmp_path, np.arange(1.0, 11.0))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == 10
    assert float(body[0]) == 1.0


def test_length_mismatch_rejected(tmp_path):
    path = _write(tmp_path, np.arange(1.0, 11.0))
    text = path.read_text().splitlines()
    del text[-1]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        read_coefficients(path)


def test_future_format_rejected(tmp_path):
    path = _write(tmp_path, np.arange(1.0, 11.0))
    text = path.read_text()
    assert text.startswith("# format: 1\n")
    path.write_text(text.replace("# format: 1", "# format: 2", 1))
    with pytest.raises(ValueError, match="format 2"):
        read_coefficients(path)


def test_fingerprint_depends_on_name_and_params():
    a = problem_fingerprint("rl_linear", {"n": 2, "a": 2.0})
    b = problem_fingerprint("rl_linear", {"n": 3, "a": 2.0})
    c = problem_fingerprint("rl_vdp", {"n": 2, "a": 2.0})
    assert a != b and a != c
    assert a == problem_fingerprint("rl_linear", {"a": 2.0, "n": 2})  # order-free
