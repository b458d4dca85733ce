"""The benchmark's workloads: fixed input pools, the ops, output checks.

Every op goes through the package's public API. Inputs are fixed pools
drawn from a documented pool seed; the workload seed only orders the ops
of a pass. Why fixed pools: REE cost and bracket width depend strongly on
the state and on the optimizer's random starts. On 8 relocation states,
changing only ``ReeConfig.seed`` moved the widest bracket between 0.13
and 0.31 bits and the median op time between 1.6 and 2.0 s, so a run of
a few freshly drawn states per seed cannot hold any useful bound. A fixed
pool makes every run do the same work: timings differ only by machine
noise, and bracket widths repeat exactly. ``--held-out`` swaps in a second
pool drawn the same way from another seed, for confirming a claim on
inputs the change was not tuned on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
from scipy import ndimage
from scipy.linalg import expm

# Ops call through the modules, not through names bound here, so that the
# traced run's wrappers (installed on the package's modules) see them.
from nonclassicality import gaussian, measures, protocol
from nonclassicality import (
    Bipartition,
    DensityMatrix,
    DiscordConfig,
    OptomechParams,
    ReeConfig,
    SystemDims,
    build_drift_diffusion,
    derive_params,
    initial_covariance,
    wishart_state,
)
from nonclassicality.gaussian import FIG4_POWERS_B_W

POOL_SEED = 42
HELD_OUT_POOL_SEED = 1042


def _config(cls, **budget):
    """`cls(**budget)` without the fields `cls` does not have (any more).

    A later version may drop an optimizer stage together with its budget
    field; the benchmark must still run on it, and a budget for a stage
    that no longer exists has nothing to set.
    """
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in budget.items() if k in known})


# The theorem suite's own REE budget, which criterion 4 also uses.
SUITE_REE = _config(ReeConfig, max_iter=40, descent_iters=60, dykstra_iters=30,
                    admm_iters=400)
# Smoke-test budgets: enough to run every code path, not to converge.
TINY_REE = _config(ReeConfig, max_iter=3, product_starts=4, product_rounds=5,
                   weight_iters=5, descent_iters=3, dykstra_iters=5, admm_iters=30)
TINY_DISCORD = _config(DiscordConfig, grid=4, refine_maxiter=20, unitary_starts=1)

TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))
QUTRIT_MEDIATOR = SystemDims((2, 2, 3), ("A", "B", "C"))
SUITE_OPS = 2
STATES_PER_RANK = 2
QUTRIT_RANK = 2
SMOKE_SWEEP_GRID = 8
SMOKE_HORIZON = 2.0  # in units of 1/omega_c

# tolerances of the acceptance criteria the checks reuse
SUITE_DISCORD_MAX = 1e-6
PHYSICAL_2NU_MIN = 1 - 1e-8
ONSET_LEVEL = 1e-4
STABLE_E_ABC_MAX = 1e-6
# RK4 and exact propagation agree to a few 1e-9 in E; a propagator that is
# off by more than this is wrong, not merely different
LOG_NEG_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    brackets: Callable[[object], list] = lambda out: []


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]  # one pass, in the order the workload seed chose
    # run and checked after the timed section of every run, never timed
    untimed: tuple[Op, ...]
    # run, checked and traced only in a traced run: too slow to repeat in
    # every timed run, but its layers must show in the trace
    trace_only: tuple[Op, ...]
    # brackets scored on top of those the first pass's ops return
    quality_set: Callable[[], list]


# --------------------------------------------------------------------------
# input pools


def _pool_states(pool_seed: int):
    """Relocation states and the qutrit-mediator state.

    ``triples[k][r - 1]`` is the k-th state of rank r, for ranks 1..8. A
    fixed number of states per rank, rather than ranks drawn at random as
    criterion 4 does, keeps a pass's mix of pure and mixed inputs fixed.
    States after the first of each rank are drawn after the qutrit state,
    so the qutrit state does not depend on ``STATES_PER_RANK``. The qutrit
    state has rank 2, where the 2x6 Frank-Wolfe search is known to stall
    with brackets of tenths of a bit; a high-rank draw brackets tightly
    and would hide that.
    """
    rng = np.random.default_rng(pool_seed)

    def draw_triples():
        return [DensityMatrix(wishart_state(8, rng, rank=r), TRIPLE) for r in range(1, 9)]

    triples = [draw_triples()]
    qutrit = DensityMatrix(wishart_state(12, rng, rank=QUTRIT_RANK), QUTRIT_MEDIATOR)
    triples += [draw_triples() for _ in range(STATES_PER_RANK - 1)]
    return triples, qutrit


def _relocation_op(label, rho, cfg, dcfg) -> Op:
    return Op(
        label=label,
        run=lambda: measures.check_relocation_bound(rho, config=cfg, discord_config=dcfg),
        check=_check_relocation,
        brackets=lambda rep: [rep.ree_first, rep.ree_second],
    )


def _quality_set(rhos, cfg):
    """A:BC brackets of fixed states, scored by every run of a workload."""

    def compute():
        return [measures.ree(rho, Bipartition(("A",), ("B", "C")), cfg) for rho in rhos]

    return compute


def build(name: str, seed: int, held_out: bool = False, smoke: bool = False) -> Workload:
    """Inputs of one pass of workload `name`; the seed orders the ops."""
    pool_seed = HELD_OUT_POOL_SEED if held_out else POOL_SEED
    triples, qutrit = _pool_states(pool_seed)
    cfg = TINY_REE if smoke else SUITE_REE
    dcfg = TINY_DISCORD if smoke else None
    untimed = trace_only = ()

    if name == "dv":
        seeds = [pool_seed + i for i in range(1 if smoke else SUITE_OPS)]
        # the suite runs at its own default budgets unless smoke-testing
        budgets = {"ree_config": cfg, "discord_config": dcfg} if smoke else {}
        ops = [
            Op(
                label=f"suite-seed{s}",
                run=lambda s=s: protocol.theorem_property_suite(s, trials=1, **budgets),
                check=_check_suite,
            )
            for s in seeds
        ]
        ranks = (1, 3) if smoke else range(1, 9)
        ops += [_relocation_op(f"rank{r}-{k + 1}", per_rank[r - 1], cfg, dcfg)
                for k, per_rank in enumerate(triples[:1] if smoke else triples)
                for r in ranks]
        # The qutrit-mediator op (12-15 s, mostly qudit discord) would be a
        # third of every pass; it runs in traced runs only, and its 2x6
        # A:BC bracket is scored in every run.
        trace_only = (_relocation_op(f"qutrit-rank{QUTRIT_RANK}", qutrit, cfg, dcfg),)
        quality = _quality_set([qutrit], cfg)
    elif name == "optomech":
        powers = FIG4_POWERS_B_W[2:3] if smoke else FIG4_POWERS_B_W
        ops = [_fig4_op(p, smoke) for p in powers]
        # The sweep is checked and traced but not timed: with the default
        # two-thread pool on two cores, its run medians spread by 18-37%
        # between runs, wider than any bound a timing metric may have.
        untimed = (_sweep_op(smoke),)
        # these ops return no bracket; score the 2x4 rank-4 and the 2x6
        # qutrit-mediator brackets so that every workload prints every
        # end-to-end metric
        quality = _quality_set([triples[0][3], qutrit], cfg)
    else:
        raise ValueError(f"unknown workload {name!r}")

    order = np.random.default_rng(seed).permutation(len(ops))
    return Workload(tuple(ops[i] for i in order), untimed, trace_only, quality)


def warm_up(name: str) -> None:
    """Smoke-sized ops, one per kind of op, so lazy imports and first-call
    costs are paid before timing starts."""
    kinds = {}
    for op in build(name, 0, smoke=True).ops:
        kinds.setdefault(op.label.split("-")[0].rstrip("0123456789"), op)
    for op in kinds.values():
        op.run()


# --------------------------------------------------------------------------
# checks (run outside the timed region)


def _check_suite(report) -> str | None:
    if not report.passed or report.failures:
        return f"property suite failed: {len(report.failures)} failing trials"
    if report.closed_trials != 1 or report.open_trials != 1:
        return f"ran {report.closed_trials} closed + {report.open_trials} open trials, want 1 + 1"
    if not report.max_discord_seen < SUITE_DISCORD_MAX:
        return f"max discord {report.max_discord_seen:.3e} >= {SUITE_DISCORD_MAX:g}"
    return None


def _check_relocation(rep) -> str | None:
    r1, r2 = rep.ree_first, rep.ree_second
    for tag, r in (("first", r1), ("second", r2)):
        if not 0 <= r.lower_bound <= r.value:
            return f"{tag} bracket invalid: [{r.lower_bound}, {r.value}]"
    # |E(A:BC) - E(AC:B)| <= D(AB|C) + summed bracket widths, recomputed
    # from the reported numbers
    gap = abs(r1.value - r2.value)
    slack = (r1.value - r1.lower_bound) + (r2.value - r2.lower_bound)
    if not (rep.holds and gap <= rep.discord + slack + 1e-9):
        return f"relocation bound violated: gap {gap:.6f} > discord {rep.discord:.6f} + slack {slack:.6f}"
    return None


def _fig4_op(power: float, smoke: bool) -> Op:
    base = OptomechParams.membrane_defaults()
    kwargs = {"t_max": SMOKE_HORIZON / base.omega_c, "n_samples": 20} if smoke else {}
    n_samples = kwargs.get("n_samples", 400)
    horizon = kwargs.get("t_max", 60 / base.omega_c)

    def check(bench) -> str | None:
        if len(bench.series) != 1:
            return f"{len(bench.series)} series for one power"
        series = bench.series[0]
        if series.power_b != power:
            return f"series power {series.power_b} != {power}"
        times = np.asarray(series.times)
        if len(times) != n_samples + 1 or times[0] != 0.0 \
                or abs(times[-1] - horizon) > 1e-9 * horizon:
            return f"sample grid: {len(times)} times ending at {times[-1]:.6e}, horizon {horizon:.6e}"
        # criterion 7: probe-probe entanglement never precedes mediator pairing
        for i, e_ab in enumerate(series.e_ab):
            if e_ab > ONSET_LEVEL and not any(e > ONSET_LEVEL for e in series.e_abc[:i + 1]):
                return f"E_ab onset before E_abc at sample {i}"
        return _check_against_exact(power, base, times, series)

    return Op(label=f"fig4-{power * 1e3:g}mW",
              run=lambda: gaussian.reproduce_fig4((power,), **kwargs), check=check)


def _check_against_exact(power, base, times, series) -> str | None:
    """Compare each sample with the closed-form solution of the same model.

    dV/dt = KV + VK^T + D is linear in vec(V); appending the constant term
    as one more coordinate gives x' = A x, so V(t) = expm(A t) x0 exactly.
    """
    p = replace(base, power_b=power)
    derived = derive_params(p)
    model = build_drift_diffusion(derived, p)
    n = model.k.shape[0]
    eye = np.eye(n)
    gen = np.zeros((n * n + 1, n * n + 1))
    gen[:-1, :-1] = np.kron(model.k, eye) + np.kron(eye, model.k)
    gen[:-1, -1] = model.d.reshape(-1)
    x0 = np.append(np.asarray(initial_covariance(derived).v).reshape(-1), 1.0)
    for i, t in enumerate(times):
        v = (expm(gen * t) @ x0)[:-1].reshape(n, n)
        v = 0.5 * (v + v.T)
        two_nu = 2 * _symplectic_min(v)
        if two_nu < PHYSICAL_2NU_MIN:
            return f"unphysical sample {i}: 2 nu_min = {two_nu:.12f}"
        e_ab = _log_neg(v[:4, :4], 1)
        e_abc = _log_neg(v, 2)
        err = max(abs(e_ab - series.e_ab[i]), abs(e_abc - series.e_abc[i]))
        if not err <= LOG_NEG_TOL:
            return f"sample {i}: log-negativity off the exact solution by {err:.3e}"
    return None


def _symplectic_min(v: np.ndarray) -> float:
    n = v.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.min(np.abs(np.linalg.eigvals(1j * omega @ v))))


def _log_neg(v: np.ndarray, mode: int) -> float:
    flip = np.ones(v.shape[0])
    flip[2 * mode + 1] = -1.0
    return max(0.0, -float(np.log(2 * _symplectic_min(v * np.outer(flip, flip)))))


def _sweep_op(smoke: bool) -> Op:
    if smoke:
        base = OptomechParams.membrane_defaults()
        grid = {
            "powers_b": np.linspace(2.5e-3, 100e-3, SMOKE_SWEEP_GRID),
            "detunings_b": np.linspace(-2.0, 2.0, SMOKE_SWEEP_GRID) * base.omega_c,
        }
        shape = (SMOKE_SWEEP_GRID, SMOKE_SWEEP_GRID)
    else:
        grid, shape = {}, (40, 40)

    def check(table) -> str | None:
        if len(table.points) != shape[0] * shape[1]:
            return f"{len(table.points)} sweep points, want {shape[0] * shape[1]}"
        bad = [pt for pt in table.points if pt.stable and not pt.e_abc < STABLE_E_ABC_MAX]
        if bad:
            return f"{len(bad)} stable points with E_abc >= {STABLE_E_ABC_MAX:g}"
        unstable = ~np.array([pt.stable for pt in table.points]).reshape(shape)
        _, regions = ndimage.label(unstable)  # 4-connected by default
        if regions != 1:
            return f"unstable set has {regions} 4-connected regions, want 1"
        return None

    return Op(label="sweep", run=lambda: gaussian.sweep_steady_state(**grid), check=check)
