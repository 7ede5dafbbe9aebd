"""Run-every-criterion acceptance suite.

Each test exercises one shipped guarantee at its stated tolerance and
records a pass/fail line for the terminal summary (see conftest).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from mixlab import (
    LinearRate,
    ModeSpec,
    MultiModalData,
    OUProcess,
    RadialProfile,
    RegimeKind,
    SubspaceProjector,
    TemperedLangevin,
    check_generator_bound,
    check_growth_envelope,
    classify_ergodicity,
    mixing_horizons,
    ou_tv_upper_bound,
    probe_grid,
    projection_tail,
    tv_lower_bound,
)
from mixlab.bounds import _frame, _generator
from mixlab.cli import main
from tests.test_bounds import fd_generator, ou_kl_to_stationary, single_mode_spec

# frozen reference quantile grid at eps = 0.1, n = 3e5 (columns d = 3, 30, 300, 3000)
REFERENCE_Q3 = {
    1.8: (2.2, 2.4, 2.8, 3.1),
    1.6: (2.6, 3.2, 4.3, 5.7),
    1.4: (3.1, 4.6, 7.5, 12.2),
    1.2: (4.1, 7.7, 16.1, 34.6),
    1.0: (6.3, 15.9, 48.7, 153.2),
}
D_GRID = (3, 30, 300, 3000)


def read_csv(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = {}
        for h, c in zip(header, ln.split(",")):
            if c == "":
                row[h] = None
            else:
                try:
                    row[h] = float(c)
                except ValueError:
                    row[h] = c
        rows.append(row)
    return rows


def row_at_time(rows, t, tol=1e-6):
    return next(r for r in rows if abs(r["t"] - t) <= tol * max(1.0, abs(t)))


def single_mode_spec(d=16, R=50.0, delta=0.02, eps=0.05, b_rho=0.5, **kw):
    center = np.zeros(d)
    center[0] = R * (1 + delta)
    return MultiModalData(d, R, delta, eps, modes=(ModeSpec(center, delta * R, b_rho),), **kw)


def test_criterion_01_quantile_table(tmp_path, acceptance_record):
    cfg = tmp_path / "qt.cfg"
    cfg.write_text("eps = 0.1\n")
    t0 = time.perf_counter()
    code = main(["quantile-table", "--config", str(cfg), "--seed", "101",
                 "--out", str(tmp_path), "--threads", "4"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = {row["p"]: row for row in read_csv(tmp_path / "quantile-table.csv")}
    worst = 0.0
    for p, expected in REFERENCE_Q3.items():
        for d, ref in zip(D_GRID, expected):
            got = rows[p][f"q_d{d}"]
            worst = max(worst, abs(got / ref - 1.0))
    ok = worst <= 0.05 and elapsed < 60.0
    acceptance_record(
        "criterion 1 (quantile table)",
        ok, f"20 cells, worst deviation {100 * worst:.2f}% (<=5%), {elapsed:.1f}s (<60s)")
    assert worst <= 0.05
    assert elapsed < 60.0


def test_criterion_02_cutoff(tmp_path, acceptance_record):
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(
        "d = 16\nR = 50\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\nmu = 1\nn = 100000\n")
    t0 = time.perf_counter()
    code = main(["cutoff", "--config", str(cfg), "--seed", "202", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = read_csv(tmp_path / "cutoff.csv")
    t_onset, t_mix = rows[0]["t_onset"], rows[0]["t_mix_simple"]
    se = rows[0]["tv_se"]
    tv_onset = row_at_time(rows, t_onset)["tv"]
    tv_mix = row_at_time(rows, t_mix)["tv"]
    ok = (tv_onset >= 0.225 - 3 * se) and (tv_mix <= 0.05 + 3 * se) and elapsed < 30.0
    acceptance_record(
        "criterion 2 (cut-off)",
        ok, f"TV({t_onset:.2f}) = {tv_onset:.3f} >= {0.225 - 3 * se:.3f}; "
            f"TV({t_mix:.2f}) = {tv_mix:.3f} <= {0.05 + 3 * se:.3f}; {elapsed:.1f}s (<30s)")
    assert tv_onset >= 0.225 - 3 * se
    assert tv_mix <= 0.05 + 3 * se
    assert elapsed < 30.0


def test_criterion_03_lower_bound(tmp_path, capsys, acceptance_record):
    base = ("d = 16\nR = 50\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\n"
            "mu = 1\nn = 100000\n")
    # tempered coefficients from the closed-form sufficient condition:
    # ell <= 1/p - 1/2 and a <= (mu/p)^(1/(2 ell + 1)) - ell
    mu, p, ell = 1.0, 1.0, 0.4
    a = (mu / p) ** (1.0 / (2 * ell + 1)) - ell
    configs = {
        "ou": base + "process = ou\n",
        "tl": ("d = 16\nR = 400\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\nmu = 1\n"
               f"n = 100000\nprocess = tempered\nprofile_p = {p}\nprofile_a = {a}\n"
               f"ell = {ell}\n"),
    }
    details = []
    all_ok = True
    for name, text in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        code = main(["lowerbound", "--config", str(cfg), "--seed", "303", "--out", str(out)])
        assert code == 0
        assert "PASS lower-bound-at-horizon:" in capsys.readouterr().out
        rows = read_csv(out / "lowerbound.csv")
        floor = rows[0]["floor"]
        at_tc = row_at_time(rows, rows[0]["t_lower"])
        # every term is exact, so the gate has no standard-error allowance
        ok = at_tc["total"] >= floor
        details.append(f"{name} total {at_tc['total']:.4f} >= {floor:.4f}")
        all_ok = all_ok and ok
        assert ok, (name, rows)
    # a stationary start is at TV 0, and the bound claims no more: from pi its
    # terms read pi(|G| <= q_r) - pi(|G| <= q0) - integral with the integral
    # >= 0, so it is <= 0 because q0 = sqrt((r_k e^{mu t})^2 - 1) >= q_r and
    # pi's tail past q0 is at most its tail past q_r, equal at t = 0
    pi = OUProcess(mu, 16).invariant_measure()
    r_k = 3.217
    q_r = math.sqrt(r_k * r_k - 1.0)
    tail_r = projection_tail(pi, 3, q_r)
    gaps = []
    for t in (0.0, 0.1, 0.5, 1.0, 2.0, 3.0):
        q0 = math.sqrt((r_k * math.exp(mu * t)) ** 2 - 1.0)
        gaps.append((q0 - q_r, projection_tail(pi, 3, q0) - tail_r))
    ok = gaps[0] == (0.0, 0.0) and all(dq >= 0.0 and dtail <= 0.0 for dq, dtail in gaps)
    details.append(f"from pi the bound is <= 0: q0 >= q_r, and pi's tail past q0 falls from "
                   f"{tail_r:.4f} at t = 0 to {tail_r + gaps[-1][1]:.2e} at t = 3")
    all_ok = all_ok and ok
    assert ok, gaps
    acceptance_record("criterion 3 (lower bound at horizon)", all_ok, "; ".join(details))


def test_criterion_04_bound_ordering(acceptance_record):
    spec = single_mode_spec()
    mu = 1.0
    ou = OUProcess(mu, spec.d)
    pi = ou.invariant_measure()
    proj = SubspaceProjector.containing_direction(spec.mode_direction, 3)
    rate = LinearRate(mu)
    r_k = 3.217
    hz = mixing_horizons(mu, spec.R, spec.delta, spec.eps, spec.d, r_k=r_k)
    grid = np.linspace(0.5, 1.2 * hz.t_mix, 10)
    gaps = []
    times = [float(t) for t in grid]
    lowers = tv_lower_bound(pi, spec, proj, rate, r_k, times)
    for t, lower, upper in zip(grid, lowers, ou_tv_upper_bound(mu, spec, times)):
        gaps.append(upper - lower.total)
        assert lower.total <= upper, (t, lower.total, upper)
    acceptance_record("criterion 4 (bound ordering)", True,
                      f"10 grid times, min slack {min(gaps):.4f} >= 0")


def test_criterion_05_generator_inequality(acceptance_record):
    d = 16
    cases = [
        ("ou", OUProcess(1.0, d), 50.0),
        ("tempered", TemperedLangevin(RadialProfile.power_tail(0.6, 1.0), 0.4, d), 400.0),
    ]
    proj = SubspaceProjector.containing_direction(np.eye(d)[0], 3)
    rng = np.random.default_rng(505)
    worst_excess = -math.inf
    worst_rel = 0.0
    for name, proc, scale in cases:
        # the fixed (|x|, |G|) grid over the mass of N(0, scale^2 I) that validate reads
        rep = check_generator_bound(proc, proj.k, 1.0, *probe_grid(scale, d, proj.k))
        worst_excess = max(worst_excess, rep.value)
        assert rep.value <= 1e-9, name
        for _ in range(100):
            x = scale * rng.standard_normal(d)
            analytic = _generator(proc, proj.k, *_frame(proj, x))[1][0]
            numeric = fd_generator(proc, proj, x)
            rel = abs(analytic - numeric) / max(abs(analytic), 1e-12)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-4, (name, x, analytic, numeric)
    acceptance_record(
        "criterion 5 (generator inequality)", True,
        f"max excess {worst_excess:.2e} <= 1e-9; worst FD deviation {worst_rel:.2e} <= 1e-4")


def test_criterion_06_rate_calculus(acceptance_record):
    lin = LinearRate(1.3)
    rng = np.random.default_rng(606)
    worst_lin = 0.0
    for _ in range(1000):
        u = float(rng.uniform(1e-4, 1.0))
        y = float(rng.uniform(0.0, 6.0))
        worst_lin = max(worst_lin, abs(lin.growth_time(u, lin.grow(u, y)) - y))
    assert worst_lin <= 1e-12

    worst_pair = 0.0
    for _ in range(100):
        r = float(rng.uniform(1.0, 20.0))
        t = float(rng.uniform(0.0, 6.0))
        c = lin.threshold_level(r, t)
        worst_pair = max(worst_pair, abs(lin.grow(c, t) * r - 1.0))
    assert worst_pair <= 1e-10
    acceptance_record(
        "criterion 6 (rate calculus)", True,
        f"linear round trip {worst_lin:.1e} <= 1e-12; inverse pair {worst_pair:.1e} <= 1e-10")


def test_criterion_07_gaussian_kl(acceptance_record):
    # the exact KL of the OU marginal from a point start against Monte Carlo
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 5))
        mu = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.05, 1.0)) / mu
        x0 = float(rng.uniform(0.5, 3.0)) * rng.standard_normal(d)
        kl = ou_kl_to_stationary(mu, t, d, float(np.linalg.norm(x0)))
        p = multivariate_normal(math.exp(-mu * t) * x0, -math.expm1(-2.0 * mu * t) / mu * np.eye(d))
        q = multivariate_normal(np.zeros(d), np.eye(d) / mu)
        x = p.rvs(size=1_000_000, random_state=1000 + i)
        mc = float(np.mean(p.logpdf(x) - q.logpdf(x)))
        rel = abs(kl - mc) / abs(mc)
        worst = max(worst, rel)
        assert rel <= 0.02, (i, kl, mc)

    # a compact single mode has inside mass 1 and outside mass 0, so the
    # Pinsker bound reads back KLbar = 2 bound^2 wherever it is below 1, and
    # KLbar must bound the exact KL from the farthest start in the ball
    checked, worst_gap = 0, math.inf
    for d, mu in ((4, 0.5), (16, 4.0), (64, 1.0)):
        spec = single_mode_spec(d=d, b_rho=1.0, bulk_scale=0.0)
        ball = spec.R * (1.0 + 2.0 * spec.delta)
        assert spec.mass_within_origin_ball(ball) == 1.0
        assert spec._mass_outside_origin_ball(ball) == 0.0
        times = np.linspace(0.4, 8.0, 20) / mu
        for t, bound in zip(times, ou_tv_upper_bound(mu, spec, times)):
            if bound < 1.0:
                klbar = 2.0 * bound * bound
                exact = ou_kl_to_stationary(mu, t, d, ball)
                assert exact <= klbar, (d, mu, t, exact, klbar)
                checked += 1
                worst_gap = min(worst_gap, (klbar - exact) / klbar)
    assert checked >= 30
    acceptance_record("criterion 7 (Gaussian KL)", True,
                      f"20 instances, worst MC deviation {100 * worst:.2f}% <= 2%; exact KL <= "
                      f"KLbar at {checked} times, min relative slack {worst_gap:.1e}")


def test_criterion_08_growth_envelope(acceptance_record):
    d = 16
    ou = OUProcess(1.0, d)
    proj = SubspaceProjector.containing_direction(np.eye(d)[0], 3)
    rate = LinearRate(1.0)
    rng = np.random.default_rng(808)
    margins = []
    for i in range(20):
        x = 50.0 * rng.standard_normal(d)
        t = float(rng.uniform(0.1, 3.0))
        rep = check_growth_envelope(ou, proj, rate, x, t, 100_000, (809, i))
        margins.append(rep.bound + 3 * rep.se - rep.estimate)
        assert rep.passed, (x, t, rep)
    acceptance_record("criterion 8 (expected growth envelope)", True,
                      f"20 start/time pairs, min slack {min(margins):.2e} >= 0")


def test_criterion_09_ergodicity_classifier(acceptance_record):
    cases = [
        (0.5, 0.0, RegimeKind.SUBEXPONENTIAL, 1.0 / 3.0),
        (1.0, 0.5, RegimeKind.EXPONENTIAL, None),
        (3.0, 0.0, RegimeKind.UNIFORM, None),
        (2.0, 0.0, RegimeKind.EXPONENTIAL, None),
        (2.0, 0.1, RegimeKind.UNIFORM, None),
        (1.0, 0.0, RegimeKind.EXPONENTIAL, None),
        (0.5, 1.0, RegimeKind.EXPONENTIAL, None),
        (0.5, 1.6, RegimeKind.UNIFORM, None),
    ]
    for p, ell, kind, exponent in cases:
        regime = classify_ergodicity(p, ell)
        assert regime.kind is kind, (p, ell)
        if exponent is not None:
            assert regime.exponent == pytest.approx(exponent, rel=1e-12)
    acceptance_record("criterion 9 (ergodicity classifier)", True,
                      f"{len(cases)} boundary/interior cases exact")


def test_criterion_10_ks_sweep(tmp_path, acceptance_record):
    cfg = tmp_path / "ks.cfg"
    cfg.write_text("d = 1024\nR = 255\nmu = 1\nreps = 20\n")
    t0 = time.perf_counter()
    code = main(["ks-sweep", "--config", str(cfg), "--seed", "1010", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = read_csv(tmp_path / "ks-sweep.csv")
    medians = [(r["t"], r["ks_stat"]) for r in rows if r["rep"] is None]
    medians.sort()
    t_mix = max(t for t, _ in medians)
    stats = [s for _, s in medians]
    start_stat = medians[0][1]
    end_stat = medians[-1][1]
    ok = (start_stat >= 0.3 and end_stat <= 0.05
          and all(a >= b - 1e-12 for a, b in zip(stats, stats[1:]))
          and elapsed < 60.0)
    acceptance_record(
        "criterion 10 (KS sweep)", ok,
        f"median KS {start_stat:.3f} at t=0 (>=0.3), {end_stat:.3f} at t={t_mix:.2f} "
        f"(<=0.05), non-increasing over {len(stats)} times; {elapsed:.1f}s (<60s)")
    assert start_stat >= 0.3
    assert end_stat <= 0.05
    assert all(a >= b - 1e-12 for a, b in zip(stats, stats[1:]))
    assert elapsed < 60.0


def test_criterion_11_determinism(tmp_path, capsys, acceptance_record):
    configs = {
        "cutoff": "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\nn = 5000\n",
        "lowerbound": ("process = tempered\nprofile_a = 0.6\nprofile_p = 1\nell = 0.4\n"
                       "d = 8\nR = 400\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\n"
                       "n = 5000\nrk_n = 20000\n"),
        "quantile-table": "p_list = 1.8,1.2\nd_list = 3,30\n",
        "ks-sweep": "d = 64\nR = 50\nreps = 3\n",
        "validate": ("process = ou\nd = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
                     "b_rho = 0.5\nn_points = 2000\nbeta = 0.5\n"),
        "classify": "p = 0.5\nell = 0.25\n",
    }
    compared = []
    for sub, text in configs.items():
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(text)
        payloads = []
        for threads, tag in (("1", "a"), ("8", "b")):
            out = tmp_path / f"{sub}-{tag}"
            code = main([sub, "--config", str(cfg), "--seed", "1111",
                         "--out", str(out), "--threads", threads])
            assert code in (0, 3)
            stdout = capsys.readouterr().out
            if sub == "classify":
                # classify writes no CSV; its product is the stdout line
                payloads.append(stdout.encode())
            else:
                csv = out / f"{sub}.csv"
                assert csv.exists(), sub
                payloads.append(csv.read_bytes())
        assert payloads[0] and payloads[0] == payloads[1], sub
        if sub != "classify":
            compared.append(sub)
    acceptance_record("criterion 11 (determinism)", True,
                      f"byte-identical CSVs with 1 vs 8 threads: {', '.join(compared)}; "
                      "identical classify stdout line")
