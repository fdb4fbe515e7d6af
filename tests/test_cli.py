"""End-to-end tests of the command-line interface."""
import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import mmrom
from mmrom import bench, cli
from mmrom.basis import basis_count
from mmrom.cli import EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, main
from mmrom.config import fingerprint
from mmrom.persist import read_coefficients, write_coefficients
from mmrom.quadrature import BoxDomain


def write_yaml(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.fixture
def ladder_config(tmp_path):
    cfg = {
        "problem": {"name": "rl_linear", "params": {"n": 2, "a": 2.0, "kappa": 1.1}},
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "degree": 2,
    }
    return cfg, write_yaml(tmp_path, cfg)


def test_solve_writes_outputs(tmp_path, ladder_config):
    _, cfg_path = ladder_config
    out = tmp_path / "out"
    code = main(["--out", str(out), "--quiet", "solve", "--config", cfg_path])
    assert code == EXIT_OK
    data = read_coefficients(out / "coefficients.txt")
    assert data["n"] == 2 and data["M"] == 2
    log = (out / "convergence.csv").read_text().splitlines()
    assert log[0] == "iteration,F_l1"
    assert len(log) > 2  # initial residual plus at least one step


def test_solve_then_residual(tmp_path, ladder_config):
    _, cfg_path = ladder_config
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    code = main([
        "--out", str(out), "--quiet", "residual",
        "--config", cfg_path, "--coefficients", str(out / "coefficients.txt"),
    ])
    assert code == EXIT_OK
    rows = (out / "residual.csv").read_text().splitlines()
    assert rows[0] == "domain,M,n,weighted_norm"
    norm = float(rows[1].split(",")[-1])
    assert 0 < norm < 1e-2


@pytest.mark.parametrize("lo, hi, label", [
    ([-1.0, -1.0], [1.0, 1.0], "[-1,1]^2"),
    ([-1.0, -2.0], [1.0, 2.0], "[-1,1]x[-2,2]"),
], ids=["cube", "box"])
def test_residual_csv_names_every_side_of_the_domain(tmp_path, ladder_config, lo, hi, label):
    cfg, _ = ladder_config
    cfg["domain"] = {"lo": lo, "hi": hi}
    cfg_path = write_yaml(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    assert main(["--out", str(out), "--quiet", "residual", "--config", cfg_path,
                 "--coefficients", str(out / "coefficients.txt")]) == EXIT_OK
    rows = list(csv.reader((out / "residual.csv").read_text().splitlines()))
    assert rows[1][:3] == [label, "2", "2"]


def test_residual_fingerprint_mismatch(tmp_path, ladder_config):
    cfg, cfg_path = ladder_config
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    other = dict(cfg)
    other["problem"] = {"name": "rl_vdp", "params": {"n": 2, "mu": 0.25, "kappa": 1.1}}
    other_path = write_yaml(tmp_path, other, name="other.yaml")
    code = main([
        "--out", str(out), "--quiet", "residual",
        "--config", other_path, "--coefficients", str(out / "coefficients.txt"),
    ])
    assert code == EXIT_CONFIG_ERROR


def _generic_config(a, b):
    """omega' = (omega_2, -omega_1), u = omega_2, f = a x + b u, y = x."""
    return {
        "problem": {"name": "generic", "generic": {
            "d": 2, "n": 1, "m": 1, "p": 1,
            "s": [[[[0, 1], 1.0]], [[[1, 0], -1.0]]],
            "l": [[[[0, 1], 1.0]]],
            "f": [[[[1, 0], a], [[0, 1], b]]],
            "h": [[[[1], 1.0]]],
        }},
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "degree": 2,
    }


def _generic_problem(**tables):
    """The problem section of _generic_config(-1, 1) with some tables replaced."""
    problem = _generic_config(-1.0, 1.0)["problem"]
    problem["generic"].update(tables)
    return problem


# omega' = (omega_2 - omega_1^3, -omega_1), v = omega_1: a centre at the origin whose cubic
# term damps it only at second order, so a zero gain leaves the reduced model marginal
CUBIC_CENTRE = {"s": [[[[0, 1], 1.0], [[3, 0], -1.0]], [[[1, 0], -1.0]]],
                "l": [[[[1, 0], 1.0]]]}
# v = omega_1^2 has L = 0, so no constant gain moves the generator's imaginary poles
UNDETECTABLE = {"l": [[[[2, 0], 1.0]]]}
# x' = -x ignores u, so the invariant manifold and the output are identically zero
ZERO_OUTPUT = {"f": [[[[1, 0], -1.0]]]}


def test_residual_fingerprint_tells_generic_problems_apart(tmp_path, capsys):
    solved_path = write_yaml(tmp_path, _generic_config(-1.0, 1.0), name="solved.yaml")
    other_path = write_yaml(tmp_path, _generic_config(-3.0, 5.0), name="other.yaml")
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", solved_path]) == EXIT_OK
    coeffs = str(out / "coefficients.txt")
    assert main(["--out", str(out), "--quiet", "residual",
                 "--config", solved_path, "--coefficients", coeffs]) == EXIT_OK
    capsys.readouterr()
    code = main(["--out", str(out), "--quiet", "residual",
                 "--config", other_path, "--coefficients", coeffs])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("stray", ["params", "generic"])
def test_problem_section_rejects_the_other_kinds_key(tmp_path, capsys, stray):
    # params belong to a built-in problem, generic tables to a generic one
    cfg = _generic_config(-1.0, 1.0)
    if stray == "params":
        cfg["problem"]["params"] = {"a": 3.0}
    else:
        cfg["problem"] = {"name": "rl_linear", "params": {"n": 2},
                          "generic": cfg["problem"]["generic"]}
    code = main(["--quiet", "validate", "--config", write_yaml(tmp_path, cfg)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"config error: problem: unknown key {stray!r}"]


def test_residual_fingerprint_ignores_spelling_and_term_order(tmp_path):
    solved_path = write_yaml(tmp_path, _generic_config(-1.0, 1.0), name="solved.yaml")
    same = _generic_config(-1, 1)  # integers, and the f terms listed in reverse
    same["problem"]["generic"]["f"][0].reverse()
    same_path = write_yaml(tmp_path, same, name="same.yaml")
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", solved_path]) == EXIT_OK
    assert main(["--out", str(out), "--quiet", "residual", "--config", same_path,
                 "--coefficients", str(out / "coefficients.txt")]) == EXIT_OK


def test_builtin_fingerprint_unchanged(ladder_config):
    # coefficient files written by earlier versions carry this line and must still load
    cfg, _ = ladder_config
    assert fingerprint(cfg) == "rl_linear:238817095c6c"


def test_residual_malformed_coefficients_exit_code(tmp_path, ladder_config, capsys):
    _, cfg_path = ladder_config
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    coeff_path = out / "coefficients.txt"
    lines = coeff_path.read_text().splitlines()
    coeff_path.write_text("\n".join(lines[:-3]) + "\n")
    code = main([
        "--out", str(out), "--quiet", "residual",
        "--config", cfg_path, "--coefficients", str(coeff_path),
    ])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "expected 10" in err[0]


def test_solve_not_converged_exit_code(tmp_path, ladder_config):
    cfg, _ = ladder_config
    cfg["solver"] = {"max_iter": 1}
    cfg_path = write_yaml(tmp_path, cfg, name="capped.yaml")
    out = tmp_path / "out"
    code = main(["--out", str(out), "--quiet", "solve", "--config", cfg_path])
    assert code == EXIT_NOT_CONVERGED
    assert (out / "coefficients.txt").exists()  # partial result still written


def test_solve_and_reproduce_print_why_newton_stopped(tmp_path, ladder_config, capsys):
    cfg, _ = ladder_config
    cfg["solver"] = {"max_iter": 1}
    cfg_path = write_yaml(tmp_path, cfg, name="capped.yaml")
    assert main(["--out", str(tmp_path / "capped"), "solve", "--config", cfg_path]) \
        == EXIT_NOT_CONVERGED
    assert "(stop max_iter)" in capsys.readouterr().out
    assert main(["--out", str(tmp_path), "reproduce", "T1"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "domain [" in line]
    assert len(lines) == 3 and all(line.endswith("pass  stop=tol") for line in lines)
    assert (tmp_path / "T1.csv").read_text().splitlines()[0] == "domain,M,n,value,reference,pass"


def test_unknown_config_key_exit_code(tmp_path, ladder_config):
    cfg, _ = ladder_config
    cfg["solver"] = {"tolerance": 1e-7}
    cfg_path = write_yaml(tmp_path, cfg, name="bad.yaml")
    code = main(["--quiet", "solve", "--config", cfg_path])
    assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("text", [
    "problem: {name: rl_linear\n",  # YAML syntax error
    yaml.safe_dump({"problem": {"name": "rl_linear", "params": {"n": 1}},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "rl_linear"}, "solver": {"max_iter": 0},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "rl_linear"},
                    "domain": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "generic", "generic": {"d": 2}},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "rl_linear"},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": True}),
    yaml.safe_dump({"problem": {"name": "rl_linear"}, "solver": {"max_iter": True},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "rl_linear"}, "solver": {"tol_F_l1": float("nan")},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "rl_linear"}, "solver": {"tol_F_l1": float("inf")},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": {"name": "rl_linear"}, "solver": {"tol_F_l1": True},
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": _generic_problem(f=[[[[1], -1.0], [[0, 1], 1.0]]]),
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
    yaml.safe_dump({"problem": _generic_problem(f=[[[[1, 0, 0], -1.0], [[0, 1], 1.0]]]),
                    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "degree": 2}),
], ids=["yaml_syntax", "ladder_n1", "max_iter0", "domain_length", "generic_missing_tables",
        "degree_bool", "max_iter_bool", "tol_nan", "tol_inf", "tol_bool",
        "exponent_too_short", "exponent_too_long"])
def test_invalid_config_values_exit_code(tmp_path, capsys, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    code = main(["--out", str(tmp_path / "out"), "--quiet", "solve", "--config", str(path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def _coefficients_without_problem_line(tmp_path, n, d, sides=None):
    """A coefficient file for n states over d generator dimensions whose header
    names no problem, so nothing but n and d ties it to a configuration.  Its
    domain has ``sides`` entries per bound, d unless given."""
    path = tmp_path / "coefficients.txt"
    write_coefficients(path, np.ones(n * basis_count(d, 2)), n=n, d=d, M=2,
                       domain=BoxDomain.cube(1.0, d=sides or d), fingerprint="")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("# problem:")) + "\n")
    return str(path)


@pytest.mark.parametrize("update,command", [
    ({"simulation": {"x0": [0.0, 0.0, 0.0]}}, ["rom"]),
    ({"rom": {"G": [[1.0]]}}, ["rom"]),
    ({"rom": {"G": [[1.0, 2.0]]}}, ["rom"]),
    ({"simulation": {"omega0": [0.1]}}, ["rom"]),
    ({"simulation": {"r0": [0.0, 1.0, 0.0]}}, ["rom"]),
    ({"simulation": {"t_start": 5.0, "t_end": 5.0}}, ["rom"]),
    ({"simulation": {"t_end": -1.0}}, ["rom"]),
    ({"domain": {"lo": [-1.0, -1.0]}}, ["solve"]),
    ({}, ["residual", "--subdomain", "0", "--coefficients", (2, 2)]),
    ({}, ["residual", "--coefficients", (3, 2)]),
    ({}, ["residual", "--coefficients", (2, 3)]),
    ({}, ["residual", "--coefficients", (2, 2, 1)]),
    ({}, ["residual", "--coefficients", (2, 2, 3)]),
    ({"rom": {"gain": "chain_linear"}}, ["rom"]),
    ({"rom": {"gain": "chain_vdp"},
      "problem": {"name": "rl_vdp", "params": {"n": 2, "mu": 0.25, "kappa": 1.1}}}, ["rom"]),
    ({"rom": {"c": 3.0}}, ["rom"]),
    ({"rom": {"G": [[0.0], [0.0]]}}, ["rom"]),
    ({"rom": {"G": [[0.0], [0.0]]}, "problem": _generic_problem(**CUBIC_CENTRE)}, ["rom"]),
    ({"problem": _generic_problem(**UNDETECTABLE)}, ["rom"]),
    ({"problem": _generic_problem(**ZERO_OUTPUT)}, ["rom"]),
    ({}, ["residual", "--subdomain", "inf", "--coefficients", (2, 2)]),
], ids=["x0_length", "G_broadcasts", "G_shape", "omega0_length", "r0_length", "t_end_equal",
        "t_end_before", "domain_without_hi", "subdomain_zero", "coefficients_n", "coefficients_d",
        "coefficients_domain_1_bound", "coefficients_domain_3_bounds",
        "gain_chain_linear", "gain_chain_vdp", "rom_c", "G_unstable", "G_zero_on_cubic_centre",
        "rom_undetectable_generator", "rom_zero_output", "subdomain_inf"])
def test_inconsistent_inputs_exit_code(tmp_path, ladder_config, capsys, update, command):
    cfg, _ = ladder_config
    cfg.update(update)
    argv = [_coefficients_without_problem_line(tmp_path, *arg) if isinstance(arg, tuple) else arg
            for arg in command]
    cfg_path = write_yaml(tmp_path, cfg, name="bad.yaml")
    code = main(["--out", str(tmp_path / "out"), "--quiet", *argv, "--config", cfg_path])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


# x' = -x + u with an infinite coefficient on x
INFINITE_F = {"f": [[[[1, 0], -np.inf], [[0, 1], 1.0]]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("update, command, line", [
    ({"domain": {"lo": [-np.inf, -np.inf], "hi": [np.inf, np.inf]}}, "solve",
     "domain: inf is not a finite number"),  # hi sorts before lo
    ({"domain": {"lo": [-1e200, -1e200], "hi": [1e200, 1e200]}}, "solve",
     "degree: non-finite advection matrix"),
    ({"degree": 200}, "solve", "degree: require 1 <= q <= 256, got q=401"),
    ({"problem": _generic_problem(**INFINITE_F)}, "validate", "problem: -inf is not a finite"),
    ({"problem": _generic_problem(**INFINITE_F)}, "solve", "problem: -inf is not a finite"),
    ({"problem": {"name": "rl_linear", "params": {"n": 2, "kappa": np.inf}}}, "solve",
     "problem: inf is not a finite number"),
    ({"problem": {"name": "cart_pendulum", "params": {"a1": np.inf}}}, "validate",
     "problem: inf is not a finite number"),
    ({"out": "a-file"}, "solve", "[Errno 17] File exists"),
], ids=["domain_inf", "domain_1e200", "degree_200", "f_inf_validate", "f_inf_solve",
        "kappa_inf", "a1_inf", "out_is_a_file"])
def test_refused_inputs_exit_code_and_cause(tmp_path, ladder_config, capsys, update, command,
                                            line):
    # each of these once ended in a traceback or as "not converged", both exit 1
    cfg, _ = ladder_config
    out = tmp_path / update.get("out", "out")
    if "out" in update:  # --out names an existing file
        out.write_text("")
    cfg.update({key: value for key, value in update.items() if key != "out"})
    code = main(["--out", str(out), "--quiet", command, "--config", write_yaml(tmp_path, cfg)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {line}")


def _coupled_two_apart(n):
    """_generic_config's generator driving x_i' = -x_i + 0.5 x_{i+2}, u on x_1: the
    states are coupled two apart, so the Jacobian is one dense block of size nN."""
    def term(i, coef):
        exps = [0] * (n + 1)
        exps[i] = 1
        return [exps, coef]

    f = [[term(i, -1.0)] + ([term(i + 2, 0.5)] if i + 2 < n else []) for i in range(n)]
    f[0].append(term(n, 1.0))
    return _generic_problem(n=n, f=f, h=[[[[1] + [0] * (n - 1), 1.0]]])


def test_a_dense_jacobian_past_the_budget_is_refused_before_the_assembly(tmp_path, capsys):
    # (60 * 230)^2 doubles are 1.5 GB: once a MemoryError traceback after the assembly
    cfg = {"problem": _coupled_two_apart(60), "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
           "degree": 20}
    code = main(["--out", str(tmp_path / "out"), "--quiet", "solve",
                 "--config", write_yaml(tmp_path, cfg)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: degree: ")
    assert "dense Jacobian" in err[0] and "bytes, above the 1073741824-byte budget" in err[0]


@pytest.mark.parametrize("degree", [20000, 10**9])
def test_a_vast_degree_is_refused_at_once(tmp_path, ladder_config, capsys, degree):
    # once 16 s or more in generate_basis at 20000, and no end at 10^9
    cfg, _ = ladder_config
    cfg["degree"] = degree
    start = time.perf_counter()
    code = main(["--out", str(tmp_path / "out"), "--quiet", "solve",
                 "--config", write_yaml(tmp_path, cfg)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: degree: ")


def test_a_degree_past_the_budget_allocates_nothing(tmp_path, ladder_config):
    # degree 100 once asked for a 6.1 GiB table; the child reports its own peak RSS
    cfg, _ = ladder_config
    cfg["degree"] = 100
    script = (
        "import resource, sys\n"
        "from mmrom.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"  # KiB on Linux
        "sys.exit(code)\n"
    )
    src = str(Path(mmrom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", script, "--out", str(tmp_path / "out"),
                          "--quiet", "solve", "--config", write_yaml(tmp_path, cfg)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5.0
    assert run.returncode == EXIT_CONFIG_ERROR
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: degree: ")
    assert "above the 1073741824-byte budget" in err[0]
    assert int(run.stdout) < 300 * 1024


def test_residual_refuses_a_vast_degree_header_at_once(tmp_path, ladder_config, capsys):
    # the header's N no longer matches: once 29.5 s in basis_count before this exit
    _, cfg_path = ladder_config
    path = Path(_coefficients_without_problem_line(tmp_path, 2, 2))
    path.write_text(path.read_text().replace("# M: 2\n", "# M: 200000000\n"))
    start = time.perf_counter()
    code = main(["--out", str(tmp_path / "out"), "--quiet", "residual",
                 "--config", cfg_path, "--coefficients", str(path)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path}: header N=5 inconsistent")


@pytest.mark.parametrize("update, line", [
    ({"simulation": {"omega0": [0.1]}}, "simulation: omega0 needs 2 entries"),
    ({"rom": {"G": [[1.0, 2.0]]}}, "rom: G needs shape (2, 1)"),
], ids=["omega0_length", "G_shape"])
def test_rom_keeps_the_section_of_a_config_error(tmp_path, ladder_config, capsys, update, line):
    # bench.rom_experiment runs under the rom section; an error that names its own
    # section passes through it, so it is neither renamed nor prefixed twice
    cfg, _ = ladder_config
    cfg.update(update)
    code = main(["--out", str(tmp_path / "out"), "--quiet", "rom",
                 "--config", write_yaml(tmp_path, cfg)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {line}")


def test_residual_names_a_missing_header_field(tmp_path, ladder_config, capsys):
    _, cfg_path = ladder_config
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    coeff_path = out / "coefficients.txt"
    lines = coeff_path.read_text().splitlines()
    coeff_path.write_text("\n".join(line for line in lines if not line.startswith("# N:")))
    capsys.readouterr()
    code = main(["--out", str(out), "--quiet", "residual", "--config", cfg_path,
                 "--coefficients", str(coeff_path)])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {coeff_path}: missing header field N"]


def _count_calls(monkeypatch, module, name):
    """Replace module's ``name`` by a wrapper that records each call."""
    run, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_rom_refuses_a_zero_output_before_the_solve(tmp_path, monkeypatch, capsys):
    # the full-order run already shows that the output cannot be scored, so no Newton solve
    calls = _count_calls(monkeypatch, cli, "solve_invariance")
    cfg_path = write_yaml(tmp_path, {**_generic_config(-1.0, 1.0),
                                     "problem": _generic_problem(**ZERO_OUTPUT)})
    code = main(["--out", str(tmp_path / "out"), "--quiet", "rom", "--config", cfg_path])
    assert code == EXIT_CONFIG_ERROR and calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: rom: degenerate signal")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_residual_on_an_overflowing_subdomain_reports_only_the_cause(tmp_path, ladder_config,
                                                                     capsys):
    # W = [-1e200, 1e200]^2 overflows the rule's weights and the basis powers;
    # the finiteness check names the cause, with no numpy warning before it
    _, cfg_path = ladder_config
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    capsys.readouterr()
    with pytest.warns(UserWarning, match="beyond the solve domain"):
        code = main(["--out", str(out), "--quiet", "residual", "--config", cfg_path,
                     "--coefficients", str(out / "coefficients.txt"), "--subdomain", "1e200"])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: residual: non-finite")


def test_residual_of_a_zero_manifold_is_a_config_error(tmp_path, capsys):
    # solve finds pi = 0 exactly, and a weighted norm over all-zero blocks is undefined
    cfg_path = write_yaml(tmp_path, {**_generic_config(-1.0, 1.0),
                                     "problem": _generic_problem(**ZERO_OUTPUT)})
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", "--config", cfg_path]) == EXIT_OK
    assert not read_coefficients(out / "coefficients.txt")["c"].any()
    code = main(["--out", str(out), "--quiet", "residual", "--config", cfg_path,
                 "--coefficients", str(out / "coefficients.txt")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: residual: all coefficient blocks")


def test_reproduce_prints_domain_excursions(tmp_path, monkeypatch, capsys):
    cells = [bench.CellResult(half_width=hw, M=2, n=2, value=0.1, reference=0.1, passed=True,
                              converged=True, seconds=1.0, outside_domain=count)
             for hw, count in ((1.0, 558), (3.0, 0))]
    monkeypatch.setattr(bench, "reproduce_table", lambda table: cells)
    assert main(["--out", str(tmp_path), "reproduce", "T4-rom-n2"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "domain [" in line]
    assert lines[0].endswith("pass  outside_domain=558")
    assert lines[1].endswith("pass")
    assert (tmp_path / "T4-rom-n2.csv").read_text().splitlines()[0] == \
        "domain,M,n,value,reference,pass"


def test_reproduce_prints_newton_iterations_and_last_digit_deviation(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "reproduce", "T2"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "domain [" in line]
    rows = list(csv.DictReader((tmp_path / "T2.csv").read_text().splitlines()))
    problem = bench.make_benchmark_problem("cart_pendulum", 4)
    assert len(lines) == len(rows) == len(bench.DEGREES)
    for line, row, M in zip(lines, rows, bench.DEGREES):
        solution, _ = bench.solve_benchmark(problem, 1.0, M)
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        assert fields["M"] == str(M)
        assert fields["iterations"] == str(solution.iterations)
        value, reference = float(row["value"]), float(row["reference"])
        unit = 10.0 ** (np.floor(np.log10(reference)) - 4)
        assert float(fields["digits"]) == pytest.approx((value - reference) / unit, abs=0.005)


def test_missing_config_file_exit_code(tmp_path):
    code = main(["--quiet", "solve", "--config", str(tmp_path / "nope.yaml")])
    assert code == EXIT_CONFIG_ERROR


def test_rom_pipeline(tmp_path, ladder_config):
    cfg, _ = ladder_config
    cfg["simulation"] = {"t_end": 50.0}
    cfg_path = write_yaml(tmp_path, cfg, name="rom.yaml")
    out = tmp_path / "out"
    code = main(["--out", str(out), "--quiet", "rom", "--config", cfg_path])
    assert code == EXIT_OK
    for name in ("fom_output.csv", "rom_output.csv", "output_error.csv", "rms_summary.csv"):
        assert (out / name).exists()
    header, row = (out / "rms_summary.csv").read_text().splitlines()
    assert header == "rms_error,amplitude,relative_rms"
    rel = float(row.split(",")[2])
    assert 0 < rel < 0.1


def test_rom_integrates_through_the_one_rom_experiment(tmp_path, ladder_config, monkeypatch):
    # mmrom rom runs bench.rom_experiment: one full-order and one reduced integration
    calls = [_count_calls(monkeypatch, bench, name) for name in ("simulate_fom", "simulate_rom")]
    _, cfg_path = ladder_config
    assert main(["--out", str(tmp_path / "out"), "--quiet", "rom", "--config", cfg_path]) == EXIT_OK
    assert [len(c) for c in calls] == [1, 1]


def test_rom_that_does_not_converge_writes_nothing(tmp_path, ladder_config, capsys):
    cfg, _ = ladder_config
    cfg["solver"] = {"max_iter": 1}
    cfg_path = write_yaml(tmp_path, cfg, name="capped.yaml")
    out = tmp_path / "out"
    assert main(["--out", str(out), "rom", "--config", cfg_path]) == EXIT_NOT_CONVERGED
    assert "invariance solve did not converge" in capsys.readouterr().out
    assert not any((out / name).exists() for name in
                   ("fom_output.csv", "rom_output.csv", "output_error.csv", "rms_summary.csv"))


@pytest.mark.filterwarnings("ignore:reduced state left the expansion domain")
@pytest.mark.parametrize("name, table_id", [("rl_linear", "T3-rom-n2"), ("rl_vdp", "T4-rom-n2")])
def test_rom_scores_as_the_table_cell(tmp_path, name, table_id):
    # the constant ladder gain and the Van der Pol state-dependent one, at hw = 1 and M = 4
    cfg_path = write_yaml(tmp_path, {"problem": {"name": name, "params": {"n": 2}},
                                     "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                                     "degree": 4})
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "rom", "--config", cfg_path]) == EXIT_OK
    summary = next(csv.DictReader((out / "rms_summary.csv").read_text().splitlines()))
    cell = bench.run_rom_cell(bench.REFERENCE_TABLES[table_id], 1.0, 4)
    assert summary["relative_rms"] == f"{cell.value:.17g}"


def test_rom_output_error_is_the_scored_error(tmp_path, ladder_config):
    # output_error.csv holds the pointwise error that rms_summary.csv scores: same grid, same RMS
    _, cfg_path = ladder_config
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "rom", "--config", cfg_path]) == EXIT_OK
    error = np.loadtxt(out / "output_error.csv", delimiter=",", skiprows=1)
    summary = next(csv.DictReader((out / "rms_summary.csv").read_text().splitlines()))
    assert error.shape == (2000, 2)
    assert error[0, 0] == 30.0 and error[-1, 0] == 50.0  # the last 40 % of the 50 s span
    assert np.sqrt(np.mean(error[:, 1] ** 2)) == float(summary["rms_error"])


def test_validate_reports_assumptions(tmp_path, ladder_config, capsys):
    _, cfg_path = ladder_config
    assert main(["validate", "--config", cfg_path]) == EXIT_OK
    text = capsys.readouterr().out
    assert "necessary condition: pass" in text
    assert "asymptotic stability" in text


def test_validate_notes_limit_cycle_generator(tmp_path, capsys):
    cfg = {
        "problem": {"name": "rl_vdp", "params": {"n": 2, "mu": 0.25, "kappa": 1.1}},
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "degree": 2,
    }
    cfg_path = write_yaml(tmp_path, cfg)
    assert main(["validate", "--config", cfg_path]) == EXIT_OK
    text = capsys.readouterr().out
    assert "limit cycle" in text


def test_reproduce_small_table(tmp_path):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--quiet", "reproduce", "T1"])
    assert code == EXIT_OK
    rows = (out / "T1.csv").read_text().splitlines()
    assert rows[0].startswith("domain")
    assert len(rows) == 4  # header + three degree columns


def test_reproduce_several_tables_matches_one_table_runs(tmp_path, capsys):
    codes, stdout = [], []
    for table in ("T1", "T2"):
        codes.append(main(["--out", str(tmp_path / "one"), "reproduce", table]))
        stdout.append(capsys.readouterr().out)
    code = main(["--out", str(tmp_path / "both"), "reproduce", "T1", "T2"])
    assert code == max(codes)
    assert capsys.readouterr().out == "".join(stdout).replace(
        str(tmp_path / "one"), str(tmp_path / "both"))
    for table in ("T1", "T2"):
        assert (tmp_path / "both" / f"{table}.csv").read_bytes() == \
            (tmp_path / "one" / f"{table}.csv").read_bytes()


def test_reproduce_several_tables_fails_when_any_table_fails(tmp_path, monkeypatch):
    def cells(table):
        return [bench.CellResult(half_width=1.0, M=2, n=2, value=0.1, reference=0.1,
                                 passed=table == "T2", converged=True, seconds=1.0)]
    monkeypatch.setattr(bench, "reproduce_table", cells)
    assert main(["--out", str(tmp_path), "--quiet", "reproduce", "T1", "T2"]) == \
        EXIT_NOT_CONVERGED
    assert sorted(p.name for p in tmp_path.iterdir()) == ["T1.csv", "T2.csv"]
    assert main(["--out", str(tmp_path), "--quiet", "reproduce", "T2"]) == EXIT_OK
