"""Experiment runners behind the CLI subcommands.

Each runner is a pure function of (resolved config, master seed, threads)
returning an :class:`ExperimentResult`.  Work units (grid times, table
cells, repetitions) carry substream seeds derived from the master seed and
the unit index, so results are identical for every thread count.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .bounds import (
    LinearRate,
    SubspaceProjector,
    check_compatibility,
    check_generator_bound,
    mixing_horizons,
    ou_tv_upper_bound,
    probe_grid,
    tv_lower_bound,
)
from .errors import ConfigError, DomainError
from .forward import (
    OUProcess,
    TemperedLangevin,
    check_dispersion_balance,
    check_drift_condition,
    check_linear_growth,
    classify_ergodicity,
)
from .measures import (
    CheckResult,
    ModeSpec,
    MultiModalData,
    RadialProfile,
    SphericalMeasure,
    projection_quantile,
    validate_data_spec,
)
from .rng import Seed, derive, parallel_map
from .stats import coordinate_ks, projected_tv_vs_gaussian, sweep_coordinates


@dataclass
class ExperimentResult:
    """Output table of a run; a failed run-end check flips the process exit status."""

    columns: list[str]
    rows: list[dict]
    checks: list[CheckResult] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    chart: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def build_data_spec(cfg: dict) -> MultiModalData:
    """Single-far-mode mixture from flat config keys."""
    d = cfg["d"]
    center = np.zeros(d)
    center[0] = cfg["R"] * (1.0 + cfg["delta"])
    mode = ModeSpec(center, cfg["delta"] * cfg["R"], cfg["b_rho"])
    bulk = cfg["bulk_scale"]
    return MultiModalData(
        d=d, R=cfg["R"], delta=cfg["delta"], eps=cfg["eps"], modes=(mode,),
        bulk_scale=None if bulk <= 0 else bulk, mode_kind=cfg["mode_kind"],
    )


def _merged_times(user_times, defaults, required) -> list[float]:
    """The user's grid, else the defaults, with each required horizon as a
    row of its own (a gate reads the row at exactly its horizon), sorted
    and without repeats."""
    return sorted({float(t) for t in (*(user_times or defaults), *required)})


def run_cutoff(cfg: dict, seed: Seed, threads: int = 1) -> ExperimentResult:
    """Projected TV along the mode direction over a time grid, with the
    onset/mixing verification at the two characteristic horizons.

    The start projections <x, u> are drawn once per run on substream
    (seed, 1), in O(n) whatever d is, by
    :meth:`MultiModalData.sample_coefficients` on the one-row basis u, so
    every row starts from the same sample of rho0.  Grid time i evolves
    them under the exact 1-D OU transition on substream (seed, 2, i)."""
    d, eps, mu, n = cfg["d"], cfg["eps"], cfg["mu"], cfg["n"]
    R, bins = cfg["R"], cfg["bins"]
    if bins == 1 or bins > n:
        raise ConfigError(f"key 'bins' = {bins}: use 0 (automatic) or 2 to n = {n} bins")
    # validates eps before log(1/eps) below
    spec = build_data_spec(cfg)
    bound_r = max(math.sqrt(eps) * d ** 0.25, math.sqrt(2.0 * math.log(1.0 / eps)))
    if R * math.sqrt(mu) < bound_r:
        raise ConfigError(
            f"cut-off hypothesis violated: needs R sqrt(mu) >= max(eps^(1/2) d^(1/4), "
            f"sqrt(2 log(1/eps))) = {bound_r:.6g}, got R = {R:.6g}, mu = {mu:.6g}"
        )
    hz = mixing_horizons(mu, R, cfg["delta"], eps, d)
    t_onset, t_mix = hz.t_onset, hz.t_mix_simple
    times = _merged_times(
        cfg["times"],
        [0.0, t_onset / 4, t_onset / 2, 3 * t_onset / 4, t_onset,
         (t_onset + t_mix) / 2, t_mix, 1.25 * t_mix, 1.5 * t_mix, 2 * t_mix],
        [t_onset, t_mix],
    )
    # <X_t, u> of the d-dimensional OU process is itself a 1-D OU process, so
    # the statistic needs only the scalar projections of the start sample
    ou = OUProcess(mu, 1)
    y0 = spec.sample_coefficients(n, spec.mode_direction[None, :], derive(seed, 1))
    floor = (cfg["b_rho"] - eps) / 2.0
    tv_se = 1.0 / (2.0 * math.sqrt(n))

    def one(item):
        i, t = item
        yt = ou.evolve(y0, t, derive(seed, 2, i))
        return projected_tv_vs_gaussian(yt, mu, bins=bins or None).value

    tvs = parallel_map(one, list(enumerate(times)), threads)
    rows = [
        {"t": t, "tv": v, "tv_se": tv_se, "t_onset": t_onset, "t_mix_simple": t_mix,
         "floor": floor, "eps": eps}
        for t, v in zip(times, tvs)
    ]
    tv_at = {t: v for t, v in zip(times, tvs)}
    checks = [
        CheckResult("tv-at-onset", tv_at[t_onset], floor - 3 * tv_se, ">="),
        CheckResult("tv-at-mix", tv_at[t_mix], eps + 3 * tv_se, "<="),
    ]
    return ExperimentResult(
        columns=["t", "tv", "tv_se", "t_onset", "t_mix_simple", "floor", "eps"],
        rows=rows, checks=checks,
        chart={"x": times, "series": {"projected TV": tvs}, "title": "projected TV vs time",
               "xlabel": "t", "ylabel": "TV"},
    )


def _checked_rows(k: int, d: int, where: str) -> None:
    """ConfigError naming the keys when the k projection rows exceed the
    dimension d, which ``where`` names."""
    if k > d:
        raise ConfigError(f"key 'k' = {k} exceeds {where}: the projection needs k <= d "
                          "orthonormal rows")


def _build_process(cfg: dict):
    """The configured process and its invariant measure, once k <= d is checked."""
    mu, d = cfg["mu"], cfg["d"]
    _checked_rows(cfg["k"], d, f"key 'd' = {d}")
    if cfg["process"] == "ou":
        proc = OUProcess(mu, d)
        return proc, proc.invariant_measure()
    profile = RadialProfile.power_tail(cfg["profile_a"], cfg["profile_p"])
    proc = TemperedLangevin(profile, cfg["ell"], d)
    return proc, proc.invariant_measure()


def _level_r_k(cfg: dict, pi: SphericalMeasure) -> float:
    """The configured level r_k = sqrt(1 + q^2) >= 1, or the exact one when r_k = 0."""
    r_k = cfg["r_k"]
    if 0 < r_k < 1:
        raise ConfigError(f"r_k must be 0 (the exact quantile) or at least 1, got {r_k:.6g}")
    return r_k or projection_quantile(pi, cfg["k"], cfg["eps"]).r


@contextmanager
def _probes_within_float_range(cfg: dict):
    """Turn an overflow, a division by zero or a NaN in the process probes
    into a ``ConfigError`` naming the process keys: such a probe would report
    inf or nan as its measured value."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(
            f"the process probes leave the float range ({exc}) at ell = {cfg['ell']:g}, "
            f"profile_a = {cfg['profile_a']:g}, profile_p = {cfg['profile_p']:g}, "
            f"R = {cfg['R']:g}"
        ) from exc


def run_lowerbound(cfg: dict, seed: Seed, threads: int = 1) -> ExperimentResult:
    """TV lower-bound terms over a time grid that contains the bound horizon t_lower.

    Every term is exact and nothing is drawn, so the CSV is a function of the
    configuration alone: r_k (unless configured) and the pi term by
    :func:`projection_quantile` and :func:`projection_tail`, the start-law
    terms by :func:`tv_lower_bound`'s quadrature on the laws of |G|.  ``n``
    and the seed do not enter; the ``total_se`` column reads 0.  One
    :func:`ou_tv_upper_bound` call serves every OU row, since the ball mass
    it reads does not depend on t.

    Run-end checks: from data, the bound at t_lower reaches the floor
    (b - eps)/2 and no OU row exceeds its upper bound; from pi, no row is
    positive, since a stationary start is at TV 0.  A tempered process then
    checks the premise the bound rests on, A H <= mu H, on
    :func:`probe_grid` (R, d, k); OU meets it by construction."""
    proc, pi = _build_process(cfg)
    mu, d, k, eps = cfg["mu"], cfg["d"], cfg["k"], cfg["eps"]
    R = cfg["R"]
    spec = build_data_spec(cfg)
    r_k = _level_r_k(cfg, pi)
    t_low = mixing_horizons(mu, R, cfg["delta"], eps, d, r_k=r_k).t_lower
    if t_low is None:
        raise ConfigError(
            f"lower-bound horizon requires 2 r_k < R, got r_k = {r_k:.6g}, R = {R:.6g}"
        )
    rho0 = pi if cfg["rho0"] == "pi" else spec
    direction = spec.mode_direction
    proj = SubspaceProjector.containing_direction(direction, k)
    rate = LinearRate(mu)
    times = _merged_times(
        cfg["times"],
        [f * t_low for f in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)] if t_low > 0 else [0.0],
        [t_low],
    )
    floor = (cfg["b_rho"] - eps) / 2.0
    reps = tv_lower_bound(pi, rho0, proj, rate, r_k, times)
    uppers = {}
    if cfg["process"] == "ou":
        up_times = [t for t in times if mu * t > math.log(2.0) / 2.0]
        uppers = dict(zip(up_times, ou_tv_upper_bound(mu, spec, up_times)))
    # total_se stays, at 0, because perfbench/workloads.py gates on it
    rows = [{**asdict(rep), "total_se": 0.0, "r_k": r_k, "t_lower": t_low, "floor": floor,
             "tv_upper": uppers.get(rep.t)} for rep in reps]
    if rho0 is pi:
        checks = [CheckResult("stationary-sanity", max(rep.total for rep in reps), 0.0, "<=")]
    else:
        at_low = min(reps, key=lambda rep: abs(rep.t - t_low))
        checks = [CheckResult("lower-bound-at-horizon", at_low.total, floor, ">=")]
        if uppers:
            checks.append(CheckResult("bound-ordering", max(
                rep.total - uppers[rep.t] for rep in reps if rep.t in uppers), 0.0, "<="))
    if isinstance(proc, TemperedLangevin):
        with _probes_within_float_range(cfg):
            checks.append(check_generator_bound(proc, k, mu, *probe_grid(R, d, k)))
    return ExperimentResult(
        columns=["t", "total", "total_se", "pi_term", "rho_tail", "integral", "threshold",
                 "r_k", "t_lower", "floor", "tv_upper"],
        rows=rows, checks=checks,
    )


def run_quantile_table(cfg: dict, seed: Seed, threads: int = 1) -> ExperimentResult:
    """Exact projection-quantile grid over (p, d) for the configured noise family.

    ``q_d*`` columns hold the raw (1-eps/2)-quantile of |first-k-coords|
    (the published-table convention); ``r_d*`` the level sqrt(1+q^2) used by
    the lower-bound machinery.
    """
    ps, ds = cfg["p_list"], cfg["d_list"]
    eps, a, k = cfg["eps"], cfg["a"], cfg["k"]
    for dd in map(int, ds):
        _checked_rows(k, dd, f"d = {dd} in key 'd_list' (cells q_d{dd}, r_d{dd})")
    cells = [(i, j) for i in range(len(ps)) for j in range(len(ds))]

    def one(cell):
        i, j = cell
        pi = SphericalMeasure(int(ds[j]), RadialProfile.power_tail(a, ps[i]))
        return projection_quantile(pi, k, eps)

    ests = dict(zip(cells, parallel_map(one, cells, threads)))
    columns = ["p"]
    for dd in ds:
        columns += [f"q_d{int(dd)}", f"r_d{int(dd)}"]
    rows = []
    for i, p in enumerate(ps):
        row = {"p": p}
        for j, dd in enumerate(ds):
            est = ests[(i, j)]
            row[f"q_d{int(dd)}"] = est.ball_radius
            row[f"r_d{int(dd)}"] = est.r
        rows.append(row)
    return ExperimentResult(columns=columns, rows=rows)


def run_ks_sweep(cfg: dict, seed: Seed, threads: int = 1) -> ExperimentResult:
    """Coordinate KS statistic of one marginal per (time, repetition)."""
    d, R, mu, eps, delta = cfg["d"], cfg["R"], cfg["mu"], cfg["eps"], cfg["delta"]
    defaults = [0.0, 1.0, 2.0, 4.0]
    if R > 0 and not cfg["times"]:
        # t_onset = (log(R sqrt(mu)) - log(bound_r))/mu: below the bound the
        # default grid would start before 0
        bound_r = max(math.sqrt(2.0 * math.log(1.0 / eps)), 1.0)
        if R * math.sqrt(mu) < bound_r:
            raise ConfigError(
                f"default ks-sweep times need R = 0 or R sqrt(mu) >= "
                f"max(sqrt(2 log(1/eps)), 1) = {bound_r:.6g}, got R = {R:.6g}, "
                f"mu = {mu:.6g}; set times to sweep a smaller R"
            )
        hz = mixing_horizons(mu, R, delta, eps, d)
        defaults = [0.0, hz.t_onset / 2, hz.t_onset, hz.t_mix_simple]
    times = _merged_times(cfg["times"], defaults, [])
    reps = cfg["reps"]
    ou = OUProcess(mu, d)

    def one(rep):
        # R = 0 means a stationary start: one draw from the invariant measure
        x0 = (ou.invariant_measure().sample(1, derive(seed, 7, rep, 0))[0] if R == 0
              else R * np.ones(d) / math.sqrt(d))
        # raw and standardized statistics read the same simulated coordinates
        return [(t, coordinate_ks(coords, mu), coordinate_ks(coords, mu, standardize=True))
                for t, coords in sweep_coordinates(ou, x0, times, derive(seed, 7, rep))]

    outs = parallel_map(one, list(range(reps)), threads)
    rows = []
    stats_by_time = {t: [] for t in times}
    for rep, sweep in enumerate(outs):
        for t, kr, ks in sweep:
            rows.append({"t": t, "rep": rep, "ks_stat": kr.statistic, "ks_p": kr.p_value,
                         "ks_stat_std": ks.statistic, "ks_p_std": ks.p_value})
            stats_by_time[t].append((kr.statistic, kr.p_value, ks.statistic, ks.p_value))
    medians = []
    for t in times:
        arr = np.array(stats_by_time[t])
        med = np.median(arr, axis=0)
        rows.append({"t": t, "rep": None, "ks_stat": med[0], "ks_p": med[1],
                     "ks_stat_std": med[2], "ks_p_std": med[3]})
        medians.append(float(med[0]))
    return ExperimentResult(
        columns=["t", "rep", "ks_stat", "ks_p", "ks_stat_std", "ks_p_std"],
        rows=rows,
        chart={"x": times, "series": {"median KS": medians}, "title": "median KS vs time",
               "xlabel": "t", "ylabel": "KS statistic"},
    )


def run_validate(cfg: dict, seed: Seed, threads: int = 1) -> ExperimentResult:
    """Run every applicable admissibility check with measured margins.

    The three process probes read a radial process only at (|x|, |G|), so
    they run on :func:`probe_grid` (envelope_scale or R, d, k): nothing is
    drawn, and neither the seed nor ``n_points`` (accepted and ignored) enters.
    """
    proc, pi = _build_process(cfg)
    mu, d, k = cfg["mu"], cfg["d"], cfg["k"]
    spec = build_data_spec(cfg)
    scale = cfg["envelope_scale"] or spec.R
    checks = [replace(c, name=f"data/{c.name}") for c in validate_data_spec(spec)]
    r, g = probe_grid(scale, d, k)
    with _probes_within_float_range(cfg):
        if isinstance(proc, TemperedLangevin):
            checks.append(check_drift_condition(proc, mu, r_max=cfg["r_max"] or 10.0 * spec.R))
        try:
            checks.append(check_linear_growth(proc, mu, r))
        except DomainError as exc:
            raise ConfigError(f"envelope_scale = {scale:g} is too small for the process "
                              f"probes: {exc}") from exc
        checks += [check_dispersion_balance(proc, k, r, g),
                   check_generator_bound(proc, k, mu, r, g)]
    beta = cfg["beta"]
    if beta > 0:
        checks += [replace(c, name=f"bridge/{c.name}") for c in
                   check_compatibility(mu, spec.R, cfg["delta"], cfg["eps"], d, beta,
                                       _level_r_k(cfg, pi))]
    rows = [
        {"check": c.name, "passed": int(c.passed), "value": c.value, "bound": c.threshold,
         "relation": c.relation}
        for c in checks
    ]
    return ExperimentResult(
        columns=["check", "passed", "value", "bound", "relation"],
        rows=rows, checks=checks,
    )


def run_classify(cfg: dict, seed: Seed = 0, threads: int = 1) -> ExperimentResult:
    regime = classify_ergodicity(cfg["p"], cfg["ell"])
    row = {"p": cfg["p"], "ell": cfg["ell"], "regime": regime.kind.value,
           "exponent": regime.exponent}
    return ExperimentResult(columns=["p", "ell", "regime", "exponent"], rows=[row],
                            info={"line": f"p={cfg['p']:g} ell={cfg['ell']:g}: {regime.describe()}"})
