"""Command-line front end: solve, residual, rom, reproduce, validate."""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import bench
from .assembly import assemble_operators, check_solve_size
from .basis import generate_basis
from .config import (
    ConfigError,
    build_domain,
    build_gain,
    build_problem,
    build_simulation,
    build_solver_options,
    fingerprint,
    load_config,
    section,
)
from .newton import solve_invariance
from .persist import read_coefficients, write_coefficients
from .problems import check_assumptions
from .quadrature import BoxDomain
from .residuals import residual_norm
from .rom import build_rom
from .simulate import steady_state_rms

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG_ERROR = 2


def _say(args, *msg):
    if not args.quiet:
        print(*msg)


def _solve_from_config(cfg, problem):
    """Newton solution of the configured domain and degree; it records both."""
    domain = build_domain(cfg, problem)
    d, M = problem.generator.d, cfg["degree"]
    # a degree past the memory budget or the Gauss rules, or an overflowing box, is named unwarned
    with section("degree"), np.errstate(over="ignore", invalid="ignore"):
        check_solve_size(problem, d, M)
        ops = assemble_operators(problem, generate_basis(d, M), domain)
    return solve_invariance(problem, ops, build_solver_options(cfg))


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    solution = _solve_from_config(cfg, problem)
    coeff_path = out / "coefficients.txt"
    write_coefficients(
        coeff_path, solution.c, n=problem.system.n, d=solution.basis.d, M=solution.basis.M,
        domain=solution.domain, fingerprint=fingerprint(cfg),
    )
    log_path = out / "convergence.csv"
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "F_l1"])
        for i, r in enumerate(solution.residual_history):
            writer.writerow([i, f"{r:.17g}"])
    _say(args, f"wrote {coeff_path} and {log_path}")
    if not solution.converged:
        _say(args, f"did NOT converge within {solution.iterations} iterations "
                   f"(stop {solution.stop_reason}); "
                   f"final |F|_1 = {solution.residual_history[-1]:.3e}")
        return EXIT_NOT_CONVERGED
    _say(args, f"converged in {solution.iterations} iterations "
               f"(stop {solution.stop_reason}, backend {solution.backend_used}); "
               f"final |F|_1 = {solution.residual_history[-1]:.3e}")
    return EXIT_OK


def cmd_residual(args) -> int:
    cfg = load_config(args.config)
    with section(args.coefficients):
        data = read_coefficients(args.coefficients)
        basis = generate_basis(data["d"], data["M"])
    problem = build_problem(cfg)
    if data["fingerprint"] and data["fingerprint"] != fingerprint(cfg):
        raise ConfigError("coefficient file fingerprint does not match the configured problem")
    if (data["n"], data["d"]) != (problem.system.n, problem.generator.d):
        raise ConfigError(f"{args.coefficients}: n = {data['n']}, d = {data['d']} do not match "
                          f"the configured n = {problem.system.n}, d = {problem.generator.d}")
    with section("--subdomain"):
        W = BoxDomain.cube(args.subdomain, d=data["d"])
    # all-zero coefficients or dynamics not finite on W; an overflowing W as well, unwarned
    with section("residual"), np.errstate(over="ignore", invalid="ignore"):
        report = residual_norm(problem, basis, data["c"], W=W, solve_domain=data["domain"])
    sides = [f"[{lo:g},{hi:g}]" for lo, hi in zip(data["domain"].lo, data["domain"].hi)]
    label = f"{sides[0]}^{data['d']}" if len(set(sides)) == 1 else "x".join(sides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "residual.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "M", "n", "weighted_norm"])
        writer.writerow([label, data["M"], data["n"], f"{report.weighted_norm:.17g}"])
    _say(args, f"weighted residual norm over W=[-{args.subdomain:g},{args.subdomain:g}]^"
               f"{data['d']}: {report.weighted_norm:.6e}")
    for i, v in enumerate(report.per_component_norms):
        _say(args, f"  component {i + 1}: {v:.6e}")
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_rom(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    with section("rom"):  # before the solve: no stabilizing gain, or an unscorable output
        fom_traj, reduced = bench.rom_experiment(problem, build_gain(cfg, problem),
                                                 *build_simulation(cfg, problem))
    solution = _solve_from_config(cfg, problem)
    if not solution.converged:
        _say(args, "invariance solve did not converge; cannot build the reduced model")
        return EXIT_NOT_CONVERGED
    rom_traj = build_rom(problem, solution, *reduced)
    metrics = steady_state_rms(fom_traj, rom_traj)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fom_traj.to_csv(out / "fom_output.csv", label="y")
    rom_traj.to_csv(out / "rom_output.csv", label="yr")
    error = np.column_stack([metrics["grid"], np.abs(metrics["error"])])
    np.savetxt(out / "output_error.csv", error,
               delimiter=",", header="t,abs_error", comments="", fmt="%.17g")
    with open(out / "rms_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rms_error", "amplitude", "relative_rms"])
        writer.writerow([f"{metrics['rms_error']:.17g}",
                         f"{metrics['amplitude']:.17g}",
                         f"{metrics['relative_rms']:.17g}"])
    _say(args, f"relative steady-state RMS: {metrics['relative_rms']:.6e}")
    _say(args, f"wrote trajectories and summary to {out}")
    return EXIT_OK


def _reproduce(args, table) -> bool:
    """Run one table, write <table>.csv and print its cells; True if every cell passed."""
    results = bench.reproduce_table(table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{table}.csv"
    bench.write_results_csv(path, results)
    timing = bench.REFERENCE_TABLES[table]["kind"] == "timing"
    for r in results:
        val = "not-converged" if r.value is None else f"{r.value:.4e}"
        if r.error is not None:
            val = f"error ({r.error})"
        ref = "-" if r.reference is None else f"{r.reference:.4e}"
        digits = ""
        if r.value is not None and r.reference is not None and not timing:
            # deviation in units of the fifth significant digit, the last one published
            unit = 10.0 ** (np.floor(np.log10(r.reference)) - 4)
            digits = f"  digits={(r.value - r.reference) / unit:+.2f}"
        outside = f"  outside_domain={r.outside_domain}" if r.outside_domain else ""
        stop = f"  stop={r.stop_reason}" if r.stop_reason else ""  # none when the cell raised
        _say(args, f"  domain [-{r.half_width:g},{r.half_width:g}]^2  M={r.M}  n={r.n}  "
                   f"value={val}  reference={ref}  iterations={r.iterations}{digits}  "
                   f"{'pass' if r.passed else 'FAIL'}{outside}{stop}")
    _say(args, f"wrote {path}")
    return all(r.passed for r in results)


def cmd_reproduce(args) -> int:
    passed = [_reproduce(args, table) for table in args.table]
    return EXIT_OK if all(passed) else EXIT_NOT_CONVERGED


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    report = check_assumptions(build_problem(cfg))
    det = report["details"]
    _say(args, "generator eigenvalues:", np.round(det["generator_eigenvalues"], 6))
    _say(args, "system eigenvalues (extremes):",
         np.round(np.sort_complex(det["system_eigenvalues"])[[0, -1]], 6))
    _say(args, f"neutral-stability necessary condition: "
               f"{'pass' if report['A1_necessary'] else 'FAIL'}")
    if not report["A1_necessary"]:
        _say(args, "  note: the necessary condition checks the linearization only; "
                   "generators persistent on a limit cycle rather than around the "
                   "equilibrium (e.g. Van der Pol) fail it by construction")
    _say(args, f"asymptotic stability of the system linearization: "
               f"{'pass' if report['A2'] else 'FAIL'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmrom",
        description="Galerkin solver for invariance PDEs and moment-matching "
                    "reduced-order models",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the invariance equation")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_res = sub.add_parser("residual", help="evaluate residual norms of a coefficient file")
    p_res.add_argument("--config", required=True)
    p_res.add_argument("--coefficients", required=True)
    p_res.add_argument("--subdomain", type=float, default=0.7,
                       help="half-width of the evaluation box W")
    p_res.set_defaults(func=cmd_residual)

    p_rom = sub.add_parser("rom", help="build and simulate the reduced-order model")
    p_rom.add_argument("--config", required=True)
    p_rom.set_defaults(func=cmd_rom)

    p_rep = sub.add_parser("reproduce", help="reproduce published benchmark tables")
    p_rep.add_argument("table", nargs="+", choices=bench.TABLE_IDS, metavar="table",
                       help=f"one or more of {', '.join(bench.TABLE_IDS)}")
    p_rep.set_defaults(func=cmd_reproduce)

    p_val = sub.add_parser("validate", help="report stability assumption checks")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
