"""Command-line entry point.

Exposes the named example scenarios, detection pipelines for scenario
files, the randomized theorem suite, and the optomechanics benchmarks.
Results go to --out as CSV or JSON; a one-line summary always goes to
stdout. Identical command, inputs, and seed produce byte-identical output
files.

Exit codes: 0 success, 1 computation failure (optimizer breakdown,
instability where a steady state is required, a failing property suite),
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import gaussian, protocol
from .measures import DiscordConfig, ReeConfig


class UsageError(Exception):
    """Bad inputs discovered after flag parsing (missing file, bad JSON)."""


# ---------------------------------------------------------------------------
# shared helpers


def _resolve_format(args, default: str, allowed: tuple) -> str:
    fmt = getattr(args, "format", None)
    if fmt is None and getattr(args, "out", None):
        ext = os.path.splitext(args.out)[1].lower()
        if ext == ".csv":
            fmt = "csv"
        elif ext == ".json":
            fmt = "json"
    if fmt is None:
        fmt = default
    if fmt not in allowed:
        raise UsageError(
            f"format {fmt!r} is not supported here (allowed: {', '.join(allowed)})"
        )
    return fmt


def _write_out(args, payload: str | None) -> None:
    if payload is None or not getattr(args, "out", None):
        return
    if not payload.endswith("\n"):
        payload += "\n"
    with open(args.out, "w") as fh:
        fh.write(payload)


# (flag, argparse attribute, ReeConfig field) of each REE override
_REE_FLAGS = (
    ("--seed", "seed", "seed"),
    ("--gap-tol", "gap_tol", "gap_tol"),
    ("--bracket-tol", "bracket_tol", "bracket_tol"),
    ("--ree-max-iter", "ree_max_iter", "max_iter"),
)


def _ree_config(args, cfg: ReeConfig, flags=_REE_FLAGS) -> ReeConfig:
    """`cfg` with each field that a given flag overrides replaced; a value
    the config rejects is a usage error that names its flag."""
    for flag, attr, field in flags:
        value = getattr(args, attr)
        if value is not None:
            try:
                cfg = replace(cfg, **{field: value})
            except ValueError as exc:
                raise UsageError(f"{flag}: {exc}") from None
    return cfg


def _discord_config(args) -> DiscordConfig:
    try:
        return DiscordConfig(seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"--seed: {exc}") from None


def _load_scenario(path: str):
    try:
        return protocol.load_scenario(path)
    except FileNotFoundError:
        raise UsageError(f"scenario file not found: {path}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad scenario file {path}: {exc}") from None


def _load_params(path: str | None) -> gaussian.OptomechParams:
    if path is None:
        return gaussian.OptomechParams.membrane_defaults()
    try:
        return gaussian.load_params(path)
    except FileNotFoundError:
        raise UsageError(f"parameter file not found: {path}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad parameter file {path}: {exc}") from None


def _detection_summary(report: protocol.DetectionReport) -> str:
    return (
        f"scenario={report.scenario} verdict={report.verdict} "
        f"gain={report.gain:.6g} times={len(report.times)} "
        f"diagnostics={len(report.diagnostics)}"
    )


# ---------------------------------------------------------------------------
# command handlers


def _cmd_detection(args) -> int:
    fmt = _resolve_format(args, "json", ("csv", "json"))
    scenario = args.source(args)
    report = args.runner(scenario, _ree_config(args, ReeConfig()), _discord_config(args))
    print(_detection_summary(report))
    _write_out(args, report.to_csv() if fmt == "csv" else report.to_json())
    return 0


def _cmd_theorem_suite(args) -> int:
    _resolve_format(args, "json", ("json",))
    if args.seed < 0:
        raise UsageError(f"--seed: seed must be a non-negative integer, got {args.seed}")
    # all flags but --seed: it draws the trials, the optimizer keeps its own seed
    ree_cfg = _ree_config(args, protocol.SUITE_REE_CONFIG, _REE_FLAGS[1:])
    report = protocol.theorem_property_suite(args.seed, args.trials,
                                             ree_config=ree_cfg)
    print(
        f"passed={report.passed} closed={report.closed_trials} "
        f"open={report.open_trials} max_discord={report.max_discord_seen:.6g} "
        f"failures={len(report.failures)}"
    )
    _write_out(args, report.to_json())
    if not report.passed and not args.out:
        # dump the violating trials so the run can be replayed
        print(report.to_json(), file=sys.stderr)
    return 0 if report.passed else 1


def _transient_summary(bench: gaussian.TransientBenchmark) -> str:
    powers = ",".join(f"{s.power_b * 1e3:g}" for s in bench.series)
    max_ab = max(max(s.e_ab) for s in bench.series)
    max_abc = max(max(s.e_abc) for s in bench.series)
    steady = sum(1 for s in bench.series if s.reached_steady)
    return (
        f"powers_mW={powers} samples={len(bench.series[0].times)} "
        f"max_E_ab={max_ab:.6g} max_E_abc={max_abc:.6g} "
        f"steady={steady}/{len(bench.series)}"
    )


def _samples(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def _cmd_optomech_dynamics(args) -> int:
    _resolve_format(args, "csv", ("csv",))
    params = _load_params(args.params)
    if args.pb_mw is not None:
        params = replace(params, power_b=args.pb_mw * 1e-3)
    if args.delta_b_omega_c is not None:
        params = replace(params, detuning_b=args.delta_b_omega_c * params.omega_c)
    t_max = args.t_max_omega_c / params.omega_c
    bench = gaussian.reproduce_fig4((params.power_b,), params=params,
                                    t_max=t_max, n_samples=_samples(args))
    print(_transient_summary(bench))
    _write_out(args, bench.to_csv())
    return 0


def _cmd_fig4(args) -> int:
    _resolve_format(args, "csv", ("csv",))
    if args.pb_mw is not None:
        powers = (args.pb_mw * 1e-3,)
    else:
        powers = gaussian.FIG4_POWERS_B_W
    t_max = None if args.t_max_omega_c is None else \
        args.t_max_omega_c / gaussian.OptomechParams.membrane_defaults().omega_c
    bench = gaussian.reproduce_fig4(powers, t_max=t_max, n_samples=_samples(args))
    print(_transient_summary(bench))
    _write_out(args, bench.to_csv())
    return 0


def _sweep_summary(table: gaussian.SweepTable) -> str:
    stable = [pt for pt in table.points if pt.stable]
    max_ab = max((pt.e_ab for pt in stable), default=float("nan"))
    max_abc = max((pt.e_abc for pt in stable), default=float("nan"))
    return (
        f"points={len(table.points)} stable={len(stable)} "
        f"unstable={len(table.points) - len(stable)} "
        f"max_E_ab={max_ab:.6g} max_E_abc={max_abc:.6g}"
    )


def _grid(lo: float, hi: float, steps: int):
    if steps < 1:
        raise UsageError(f"grid needs at least one step, got {steps}")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _cmd_optomech_sweep(args) -> int:
    _resolve_format(args, "csv", ("csv",))
    params = _load_params(args.params)
    powers = [p * 1e-3 for p in _grid(args.pb_mw_min, args.pb_mw_max, args.pb_steps)]
    detunings = [d * params.omega_c for d in
                 _grid(args.delta_b_omega_c_min, args.delta_b_omega_c_max,
                       args.delta_b_steps)]
    table = gaussian.sweep_steady_state(params, powers, detunings)
    print(_sweep_summary(table))
    _write_out(args, table.to_csv())
    return 0


def _cmd_fig5(args) -> int:
    _resolve_format(args, "csv", ("csv",))
    table = gaussian.sweep_steady_state()
    print(_sweep_summary(table))
    _write_out(args, table.to_csv())
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(sub, formats=("csv", "json")) -> None:
    sub.add_argument("--out", help="write the full result to this file")
    sub.add_argument("--format", choices=formats,
                     help="output format (default: from --out extension)")


def _add_detection_flags(sub) -> None:
    _add_output_flags(sub)
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the optimizer restarts; in theorem-suite, "
                          "for the random trials (default 0)")
    sub.add_argument("--gap-tol", type=float, default=None,
                     help="override the REE convergence gap target")
    sub.add_argument("--bracket-tol", type=float, default=None,
                     help="override the acceptable REE bracket width")
    sub.add_argument("--ree-max-iter", type=int, default=None,
                     help="override the REE outer iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonclassicality",
        description="Mediated-entanglement detection toolkit: scenario "
                    "pipelines, property suites, and optomechanics benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gain-example",
                       help="two-qubit-probes example where certified gain appears")
    p.add_argument("--times", type=int, default=5,
                   help="number of sample times across the drive window (default 5)")
    _add_detection_flags(p)
    p.set_defaults(handler=_cmd_detection, runner=protocol.run_detection,
                   source=lambda a: protocol.scenario_gain_example(a.times))

    p = sub.add_parser("counterexample",
                       help="discord-free mediator whose probes stay separable")
    p.add_argument("--times", type=int, default=20,
                   help="number of sample times (default 20)")
    _add_detection_flags(p)
    p.set_defaults(handler=_cmd_detection, runner=protocol.run_detection,
                   source=lambda a: protocol.scenario_counterexample(a.times))

    p = sub.add_parser("detect", help="run the full pipeline on a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    _add_detection_flags(p)
    p.set_defaults(handler=_cmd_detection, runner=protocol.run_detection,
                   source=lambda a: _load_scenario(a.scenario))

    p = sub.add_parser("sec-detect",
                       help="pipeline without the breaking step (flags correlations)")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    _add_detection_flags(p)
    p.set_defaults(handler=_cmd_detection, runner=protocol.sec_detection,
                   source=lambda a: _load_scenario(a.scenario))

    p = sub.add_parser("theorem-suite",
                       help="randomized no-gain property test on classical mediators")
    p.add_argument("--trials", type=int, default=50,
                   help="closed and open trials each (default 50)")
    _add_detection_flags(p)
    p.set_defaults(handler=_cmd_theorem_suite)

    p = sub.add_parser("optomech-dynamics",
                       help="transient entanglement for one optomechanical workpoint")
    p.add_argument("--params", help="parameter JSON file (default: standard workpoint)")
    p.add_argument("--pb-mw", type=float, default=None,
                   help="override right-laser power, in mW")
    p.add_argument("--delta-b-omega-c", type=float, default=None,
                   help="override right-laser detuning, in units of omega_c")
    p.add_argument("--t-max-omega-c", type=float, default=60.0,
                   help="horizon in units of 1/omega_c (default 60)")
    p.add_argument("--samples", type=int, default=400,
                   help="number of stored samples (default 400)")
    _add_output_flags(p, formats=("csv",))
    p.set_defaults(handler=_cmd_optomech_dynamics)

    p = sub.add_parser("optomech-sweep",
                       help="steady-state stability/entanglement over a power-detuning grid")
    p.add_argument("--params", help="parameter JSON file (default: standard workpoint)")
    p.add_argument("--pb-mw-min", type=float, default=2.5)
    p.add_argument("--pb-mw-max", type=float, default=100.0)
    p.add_argument("--pb-steps", type=int, default=40)
    p.add_argument("--delta-b-omega-c-min", type=float, default=-2.0)
    p.add_argument("--delta-b-omega-c-max", type=float, default=2.0)
    p.add_argument("--delta-b-steps", type=int, default=40)
    _add_output_flags(p, formats=("csv",))
    p.set_defaults(handler=_cmd_optomech_sweep)

    p = sub.add_parser("fig4",
                       help="standard four-power transient benchmark series")
    p.add_argument("--pb-mw", type=float, default=None,
                   help="run a single right-laser power, in mW, instead of all four")
    p.add_argument("--t-max-omega-c", type=float, default=None,
                   help="horizon in units of 1/omega_c (default 60)")
    p.add_argument("--samples", type=int, default=400,
                   help="number of stored samples per power (default 400)")
    _add_output_flags(p, formats=("csv",))
    p.set_defaults(handler=_cmd_fig4)

    p = sub.add_parser("fig5", help="standard 40x40 steady-state sweep")
    _add_output_flags(p, formats=("csv",))
    p.set_defaults(handler=_cmd_fig5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage text
        code = exc.code
        return 0 if code is None else int(code)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
