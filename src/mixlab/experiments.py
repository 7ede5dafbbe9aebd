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
    _onset_radius,
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
from .rng import Seed, derive, parallel_map, substream
from .stats import coordinate_ks, projected_tv_vs_gaussian


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
    """Single-far-mode mixture from flat config keys, its mode at
    R(1 + delta) on the first axis of the canonical frame."""
    mode = ModeSpec([cfg["R"] * (1.0 + cfg["delta"])], cfg["delta"] * cfg["R"], cfg["b_rho"])
    bulk = cfg["bulk_scale"]
    return MultiModalData(
        d=cfg["d"], R=cfg["R"], delta=cfg["delta"], eps=cfg["eps"], modes=(mode,),
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

    The start projections y0 = <x, e1> on the mode's axis are drawn once per
    run on substream (seed, 1), in O(n) whatever d is, by
    :meth:`MultiModalData.sample_coefficients` at k = 1, and
    the transition noise z ~ N(0, 1)^n once on substream (seed, 2).  Grid
    time t reads y_t = decay y0 + scale z with (decay, scale) the exact 1-D
    OU kernel :meth:`OUProcess.transition` (t): the rows share their
    random numbers, and each row's y_t has the law of the OU marginal.

    The grid runs serially in one pair of n-vectors allocated per call:
    each time forms y_t into one, with decay y0 in the other, and the
    binned TV sorts it in place, so no n-sized array is allocated per
    time.  ``threads`` is accepted and ignored."""
    d, eps, mu, n = cfg["d"], cfg["eps"], cfg["mu"], cfg["n"]
    R = cfg["R"]
    # validates eps before log(1/eps) below
    spec = build_data_spec(cfg)
    # the onset radius keeps t_onset, the first gate's row, at or after t = 0
    bound_r = max(math.sqrt(eps) * d ** 0.25, _onset_radius(eps))
    if R * math.sqrt(mu) < bound_r:
        raise ConfigError(
            f"cut-off hypothesis violated: needs R sqrt(mu) >= max(eps^(1/2) d^(1/4), "
            f"sqrt(2 log(1/eps)), 1) = {bound_r:.6g}, got R = {R:.6g}, mu = {mu:.6g}"
        )
    hz = mixing_horizons(mu, R, cfg["delta"], eps, d)
    t_onset, t_mix = hz.t_onset, hz.t_mix_simple
    times = _merged_times(
        cfg["times"],
        [0.0, t_onset / 4, t_onset / 2, 3 * t_onset / 4, t_onset,
         (t_onset + t_mix) / 2, t_mix, 1.25 * t_mix, 1.5 * t_mix, 2 * t_mix],
        [t_onset, t_mix],
    )
    # <X_t, e1> of the d-dimensional OU process is itself a 1-D OU process, so
    # the statistic needs only the scalar projections of the start sample
    ou = OUProcess(mu, 1)
    y0 = spec.sample_coefficients(n, 1, derive(seed, 1))[:, 0]
    z = substream(derive(seed, 2)).standard_normal(n)
    floor = (cfg["b_rho"] - eps) / 2.0
    tv_se = 1.0 / (2.0 * math.sqrt(n))

    yt, decayed = np.empty(n), np.empty(n)
    tvs = []
    for t in times:
        decay, scale = ou.transition(t)
        np.multiply(scale, z, out=yt)
        yt += np.multiply(decay, y0, out=decayed)
        tvs.append(projected_tv_vs_gaussian(yt, mu))  # sorts yt in place
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
        if not mu / 2.0 > 0:
            raise ConfigError(f"key 'mu' = {mu:.6g}: the profile scale mu/2 of the OU "
                              "invariant law N(0, I/mu) rounds to 0")
        proc = OUProcess(mu, d)
        return proc, proc.invariant_measure()
    profile = RadialProfile.power_tail(cfg["profile_a"], cfg["profile_p"])
    proc = TemperedLangevin(profile, cfg["ell"], d)
    return proc, proc.invariant_measure()


def _pi_keys(cfg: dict) -> str:
    """The process keys, with their values, that set the invariant law pi."""
    if cfg["process"] == "ou":
        return f"key 'mu' = {cfg['mu']:.6g}"
    return f"keys 'profile_a' = {cfg['profile_a']:.6g}, 'profile_p' = {cfg['profile_p']:.6g}"


def _level_r_k(cfg: dict, pi: SphericalMeasure) -> float:
    """The exact level r_k = sqrt(1 + q^2) of pi, or a ConfigError naming the pi keys."""
    try:
        return projection_quantile(pi, cfg["k"], cfg["eps"]).r
    except DomainError as exc:
        raise ConfigError(f"no exact r_k at {_pi_keys(cfg)}: {exc}") from exc


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
    configuration alone: r_k and the pi term by
    :func:`projection_quantile` and :func:`projection_tail`, the start-law
    terms by :func:`tv_lower_bound`'s quadrature on the laws of |G|.  ``n``
    and the seed do not enter; the ``total_se`` column reads 0.  One
    :func:`ou_tv_upper_bound` call serves every OU row, since the ball mass
    it reads does not depend on t.

    Run-end checks: the bound at t_lower reaches the floor (b - eps)/2 and
    no OU row exceeds its upper bound.  A tempered process then checks the
    premise the bound rests on, A H <= mu H, on :func:`probe_grid` (R, d, k);
    OU meets it by construction."""
    proc, pi = _build_process(cfg)
    mu, d, k, eps = cfg["mu"], cfg["d"], cfg["k"], cfg["eps"]
    R = cfg["R"]
    spec = build_data_spec(cfg)
    r_k = _level_r_k(cfg, pi)
    t_low = mixing_horizons(mu, R, cfg["delta"], eps, d, r_k=r_k).t_lower
    if t_low is None:
        raise ConfigError(f"lower-bound horizon requires 2 r_k < R, got r_k = {r_k:.6g} "
                          f"(exact at {_pi_keys(cfg)}), R = {R:.6g}")
    rate = LinearRate(mu)
    times = _merged_times(
        cfg["times"],
        [f * t_low for f in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)] if t_low > 0 else [0.0],
        [t_low],
    )
    floor = (cfg["b_rho"] - eps) / 2.0
    reps = tv_lower_bound(pi, spec, k, rate, r_k, times)
    uppers = {}
    if cfg["process"] == "ou":
        up_times = [t for t in times if mu * t > math.log(2.0) / 2.0]
        uppers = dict(zip(up_times, ou_tv_upper_bound(mu, spec, up_times)))
    # total_se stays, at 0, because perfbench/workloads.py gates on it
    rows = [{**asdict(rep), "total_se": 0.0, "r_k": r_k, "t_lower": t_low, "floor": floor,
             "tv_upper": uppers.get(rep.t)} for rep in reps]
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
    # a d names two columns and a p one row, so a repeat would write both twice
    for key, values in (("p_list", ps), ("d_list", ds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"key '{key}': {repeated[0]:g} appears more than once")
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
    """Coordinate KS statistic of one marginal per (time, repetition): X_t at grid
    time i by the exact OU transition on (seed, 7, rep, 1 + i), from R (1, ..., 1)/sqrt(d),
    or, when R = 0, from one N(0, I/mu) draw on (seed, 7, rep, 0)."""
    d, R, mu, eps = cfg["d"], cfg["R"], cfg["mu"], cfg["eps"]
    defaults = [0.0, 1.0, 2.0, 4.0]
    if R > 0 and not cfg["times"]:
        # t_onset = log(R sqrt(mu) / bound_r)/mu: below the bound the default
        # grid would start before 0, and log(R sqrt(mu)) could meet a 0
        bound_r = _onset_radius(eps)
        if R * math.sqrt(mu) < bound_r:
            raise ConfigError(
                f"default ks-sweep times need R = 0 or R sqrt(mu) >= "
                f"max(sqrt(2 log(1/eps)), 1) = {bound_r:.6g}, got R = {R:.6g}, "
                f"mu = {mu:.6g}; set times to sweep a smaller R"
            )
        hz = mixing_horizons(mu, R, 0.0, eps, d)  # the start is a point, not a ball
        defaults = [0.0, hz.t_onset / 2, hz.t_onset, hz.t_mix_simple]
    times = _merged_times(cfg["times"], defaults, [])
    reps = cfg["reps"]
    ou = OUProcess(mu, d)

    def one(rep):
        x0 = (substream(derive(seed, 7, rep, 0)).standard_normal(d) / math.sqrt(mu) if R == 0
              else np.full(d, R / math.sqrt(d)))
        out = []
        for i, t in enumerate(times):
            # raw and standardized statistics read the same simulated coordinates
            coords = ou.evolve(x0, t, derive(seed, 7, rep, 1 + i))[0]
            kr, ks = coordinate_ks(coords, mu), coordinate_ks(coords, mu, standardize=True)
            out.append((kr.statistic, kr.p_value, ks.statistic, ks.p_value))
        return out

    # (reps, times, 4): ks_stat, ks_p, ks_stat_std, ks_p_std
    stats = np.array(parallel_map(one, list(range(reps)), threads))
    columns = ["t", "rep", "ks_stat", "ks_p", "ks_stat_std", "ks_p_std"]
    rows = [dict(zip(columns, (t, rep, *stats[rep, i])))
            for rep in range(reps) for i, t in enumerate(times)]
    medians = np.median(stats, axis=0)
    rows += [dict(zip(columns, (t, None, *med))) for t, med in zip(times, medians)]
    return ExperimentResult(
        columns=columns, rows=rows,
        chart={"x": times, "series": {"median KS": medians[:, 0].tolist()},
               "title": "median KS vs time", "xlabel": "t", "ylabel": "KS statistic"},
    )


def run_validate(cfg: dict, seed: Seed, threads: int = 1) -> ExperimentResult:
    """Run every applicable admissibility check with measured margins.

    The three process probes read a radial process only at (|x|, |G|), so
    they run on :func:`probe_grid` (R, d, k): nothing is drawn, and neither
    the seed nor ``n_points`` (accepted and ignored) enters.
    """
    proc, pi = _build_process(cfg)
    mu, d, k = cfg["mu"], cfg["d"], cfg["k"]
    spec = build_data_spec(cfg)
    checks = [replace(c, name=f"data/{c.name}") for c in validate_data_spec(spec)]
    r, g = probe_grid(spec.R, d, k)
    with _probes_within_float_range(cfg):
        if isinstance(proc, TemperedLangevin):
            checks.append(check_drift_condition(proc, mu, r_max=10.0 * spec.R))
        checks += [check_linear_growth(proc, mu, r),
                   check_dispersion_balance(proc, k, r, g),
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
