"""Run configuration: YAML schema, validation, and object construction."""
from __future__ import annotations

import inspect
from contextlib import contextmanager

import numpy as np
import yaml

from .newton import SolverOptions
from .problems import BUILTINS, Problem, generator_from_tables, system_from_tables
from .quadrature import BoxDomain
from .rom import default_gain
from .simulate import OMEGA0, R0, T_SPAN


class ConfigError(ValueError):
    """Invalid or unknown configuration content; message names the field."""


_SCHEMA = {
    "problem": {"name", "params", "generic"},
    "domain": {"lo", "hi"},
    "degree": None,
    "solver": {"tol_F_l1", "max_iter"},
    "rom": {"G"},
    "simulation": {"t_start", "t_end", "omega0", "r0", "x0"},
}


@contextmanager
def _section(name: str):
    """Turn a ValueError or TypeError from building config[name] into a ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _check_keys(mapping: dict, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _require(mapping: dict, required, where: str) -> None:
    missing = [key for key in sorted(required) if key not in mapping]
    if missing:
        raise ConfigError(f"{where}: missing required keys {', '.join(missing)}")


def validate_config(cfg: dict) -> dict:
    _check_keys(cfg, _SCHEMA, "config")
    _require(cfg, ("problem", "domain", "degree"), "config")
    for key, allowed in _SCHEMA.items():
        if allowed is not None and key in cfg:
            _check_keys(cfg[key], allowed, key)
    _require(cfg["domain"], _SCHEMA["domain"], "domain")
    prob = cfg["problem"]
    name = prob.get("name")
    if name is None:
        raise ConfigError("problem.name: missing")
    if name == "generic":
        _check_keys(prob, {"name", "generic"}, "problem")
        if "generic" not in prob:
            raise ConfigError("problem.generic: required for generic problems")
        required = {"d", "n", "m", "p", "s", "l", "f", "h"}
        _check_keys(prob["generic"], required, "problem.generic")
        _require(prob["generic"], required, "problem.generic")
    elif name in BUILTINS:
        _check_keys(prob, {"name", "params"}, "problem")
        _check_keys(prob.get("params", {}), inspect.signature(BUILTINS[name]).parameters,
                    f"problem.params ({name})")
    else:
        raise ConfigError(
            f"problem.name: unknown builtin {name!r}; expected one of "
            f"{sorted(BUILTINS) + ['generic']}"
        )
    if type(cfg["degree"]) is not int or cfg["degree"] < 1:
        raise ConfigError("degree: must be a positive integer")
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    return validate_config(cfg)


def _tables_from_config(raw):
    # per component: list of [exponent-list, coefficient] pairs
    tables = []
    for comp in raw:
        tables.append({tuple(int(e) for e in exps): float(coef) for exps, coef in comp})
    return tables


def build_problem(cfg: dict) -> Problem:
    prob = cfg["problem"]
    name = prob["name"]
    with _section("problem"):
        if name in BUILTINS:
            return BUILTINS[name](**prob.get("params", {}))
        g = prob["generic"]
        gen = generator_from_tables(
            d=int(g["d"]), m=int(g["m"]),
            s_tables=_tables_from_config(g["s"]),
            l_tables=_tables_from_config(g["l"]),
        )
        sys = system_from_tables(
            n=int(g["n"]), m=int(g["m"]), p=int(g["p"]),
            f_tables=_tables_from_config(g["f"]),
            h_tables=_tables_from_config(g["h"]),
        )
        return Problem(generator=gen, system=sys)


def build_domain(cfg: dict) -> BoxDomain:
    dom = cfg["domain"]
    with _section("domain"):
        return BoxDomain(lo=np.asarray(dom["lo"], dtype=float),
                         hi=np.asarray(dom["hi"], dtype=float))


def build_solver_options(cfg: dict) -> SolverOptions:
    raw = cfg.get("solver", {})
    with _section("solver"):
        return SolverOptions(**raw)


def _vector(raw: dict, key: str, default, size: int) -> np.ndarray:
    value = np.asarray(raw.get(key, default), dtype=float)
    if value.shape != (size,):
        raise ValueError(f"{key} needs {size} entries, got shape {value.shape}")
    return value


def build_simulation(cfg: dict, problem: Problem):
    """The span and the initial generator, reduced and full-order states of
    the ROM experiment, each checked against the problem's dimensions."""
    raw = cfg.get("simulation", {})
    d, n = problem.generator.d, problem.system.n
    with _section("simulation"):
        t_span = (float(raw.get("t_start", T_SPAN[0])), float(raw.get("t_end", T_SPAN[1])))
        if not t_span[0] < t_span[1]:
            raise ValueError(f"require t_start < t_end, got {t_span}")
        omega0 = _vector(raw, "omega0", OMEGA0, d)
        r0 = _vector(raw, "r0", R0, d)
        x0 = _vector(raw, "x0", np.zeros(n), n)
    return t_span, omega0, r0, x0


def build_gain(cfg: dict, problem: Problem) -> callable:
    """The constant (d, m) matrix ``rom.G`` when given; default_gain otherwise."""
    raw = cfg.get("rom", {})
    if "G" not in raw:
        return default_gain(problem)
    with _section("rom"):
        G = np.asarray(raw["G"], dtype=float)
        shape = (problem.generator.d, problem.generator.m)
        if G.shape != shape:
            raise ValueError(f"G needs shape {shape}, got {G.shape}")
    return lambda r: G
