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
    load_config,
    validate_config,
)
from mmrom.problems import CHAIN_GAIN_C, linearize


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
    (lambda c: c.update({"rom": {"c": 3.0}}), "'c'"),
    (lambda c: c.update({"degree": True}), "degree: must be a positive integer"),
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
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    loaded = load_config(path)
    assert loaded == cfg


def test_build_problem_builtins():
    prob = build_problem(base_config())
    assert prob.system.n == 2
    rows, cols = prob.system.jacobian_pattern
    assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    cfg = base_config()
    cfg["problem"] = {"name": "test1", "params": {"a": 3.0}}
    S, _, _ = linearize(build_problem(cfg))
    assert np.array_equal(S, [[0.0, 3.0], [-3.0, 0.0]])


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
    r = np.array([0.3, -0.2])
    # without rom.G, the ladder's own chain gain (0, c)
    assert build_gain(cfg, prob) is prob.gain
    assert np.array_equal(build_gain(cfg, prob)(r), [[0.0], [CHAIN_GAIN_C]])

    cfg["rom"] = {"G": [[0.0], [5.0]]}  # an explicit constant matrix overrides it
    assert np.array_equal(build_gain(cfg, prob)(r), [[0.0], [5.0]])

    cfg["rom"] = {"G": [[0.0, 5.0]]}
    with pytest.raises(ConfigError, match="G needs shape"):
        build_gain(cfg, prob)


@pytest.mark.parametrize("kind,problem", [
    ("chain_linear", {"name": "rl_linear", "params": {"n": 2}}),
    ("chain_vdp", {"name": "rl_vdp", "params": {"n": 2, "mu": 0.25}}),
], ids=["chain_linear", "chain_vdp"])
def test_removed_gain_kinds_rejected(kind, problem):
    # a built-in problem states its own gain; the config names no gain kind
    cfg = base_config()
    cfg["problem"] = problem
    cfg["rom"] = {"gain": kind}
    with pytest.raises(ConfigError, match="rom: unknown key 'gain'"):
        validate_config(cfg)

