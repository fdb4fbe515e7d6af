"""Tests for YAML configuration validation and object construction."""
import numpy as np
import pytest
import yaml

from mmrom.config import (
    ConfigError,
    build_domain,
    build_gain,
    build_problem,
    build_simulation,
    build_solver_options,
    dump_config,
    load_config,
    validate_config,
)


def base_config():
    return {
        "problem": {"name": "rl_linear", "params": {"n": 2, "a": 2.0, "kappa": 1.1}},
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "degree": 2,
    }


def test_valid_config_passes():
    assert validate_config(base_config()) is not None


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c.update({"degrees": 2}), "degrees"),
    (lambda c: c["problem"].update({"name": "no_such"}), "no_such"),
    (lambda c: c["problem"]["params"].update({"alpha": 1.0}), "alpha"),
    (lambda c: c.pop("domain"), "domain"),
    (lambda c: c.update({"degree": 0}), "degree"),
    (lambda c: c.update({"solver": {"tol": 1e-7}}), "tol"),
    (lambda c: c.update({"solver": {"damping": 0.5}}), "damping"),
    (lambda c: c.update({"output_dir": "runs"}), "output_dir"),
    (lambda c: c.update({"simulation": {"method": "fixed_rk4"}}), "method"),
    (lambda c: c.update({"solver": {"backend": "auto"}}), "backend"),
    (lambda c: c.update({"solver": {"rank_cutoff": 1e-10}}), "rank_cutoff"),
    (lambda c: c.update({"quadrature": 12}), "quadrature"),
    (lambda c: c.update({"rom": {"mu": 0.5}}), "mu"),
    (lambda c: c.update({"rom": {"margin": 0.5}}), "margin"),
    (lambda c: c.update({"simulation": {"abs_tol": 1e-9}}), "abs_tol"),
    (lambda c: c.update({"simulation": {"rel_tol": 1e-9}}), "rel_tol"),
    (lambda c: c.update({"simulation": {"steady_window_fraction": 0.4}}), "steady_window_fraction"),
    (lambda c: c["domain"].pop("hi"), "hi"),
])
def test_invalid_configs_rejected_with_field_name(mutate, fragment):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert fragment in str(exc.value)


def test_load_and_dump_round_trip(tmp_path):
    cfg = base_config()
    path = tmp_path / "run.yaml"
    path.write_text(dump_config(cfg))
    loaded = load_config(path)
    assert loaded == cfg


def test_build_problem_builtins():
    prob = build_problem(base_config())
    assert prob.system.n == 2
    rows, cols = prob.system.jacobian_pattern
    assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    cfg = base_config()
    cfg["problem"] = {"name": "test1", "params": {"a": 3.0}}
    assert build_problem(cfg).params["a"] == 3.0


def test_build_problem_generic_tables():
    cfg = base_config()
    cfg["problem"] = {
        "name": "generic",
        "generic": {
            "d": 2, "n": 1, "m": 1, "p": 1,
            "s": [[[[0, 1], 2.0]], [[[1, 0], -2.0]]],
            "l": [[[[1, 0], 1.0]]],
            "f": [[[[1, 0], -1.0], [[0, 1], 1.0]]],
            "h": [[[[1], 1.0]]],
        },
    }
    validate_config(cfg)
    prob = build_problem(cfg)
    assert prob.system.n == 1
    assert np.allclose(prob.generator.sl(np.array([0.5, 1.0])), [2.0, -1.0, 0.5])


def test_build_domain_and_solver_and_sim():
    cfg = base_config()
    cfg["solver"] = {"max_iter": 50}
    cfg["simulation"] = {"t_end": 10.0, "omega0": [0.2, 0.0], "x0": [0.0, 0.0]}
    dom = build_domain(cfg)
    assert np.allclose(dom.lo, [-1, -1])
    opts = build_solver_options(cfg)
    assert opts.max_iter == 50
    t_span, omega0, r0, x0 = build_simulation(cfg, build_problem(cfg))
    assert t_span == (0.0, 10.0)
    assert np.allclose(omega0, [0.2, 0.0])
    assert np.allclose(r0, [0.0, 1.0])  # default
    assert np.array_equal(x0, [0.0, 0.0])


def test_build_gain_variants():
    cfg = base_config()
    prob = build_problem(cfg)
    assert build_gain(cfg, prob).kind == "chain_linear"  # auto on the ladder

    cfg["rom"] = {"gain": "chain_linear", "c": 5.0}
    assert build_gain(cfg, prob).c == 5.0

    cfg["rom"] = {"gain": "constant"}
    with pytest.raises(ConfigError):
        build_gain(cfg, prob)  # constant gain needs an explicit matrix

    cfg["rom"] = {"gain": "constant", "G": [[0.0], [10.0]]}
    g = build_gain(cfg, prob)
    assert np.allclose(g.matrix(np.zeros(2)), [[0.0], [10.0]])


def test_chain_vdp_gain_needs_problem_mu():
    cfg = base_config()
    cfg["rom"] = {"gain": "chain_vdp"}
    with pytest.raises(ConfigError, match="mu"):
        build_gain(cfg, build_problem(cfg))  # rl_linear has no mu
