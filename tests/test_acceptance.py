"""End-to-end acceptance checks.

One test per shipped guarantee, each at its stated tolerance, each printing a
single summary line so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Wall-clock budgets are generous upper bounds for a laptop-class
machine; the two dataset sweeps stay far below them with the HiGHS backend.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from welfair.centers import best_of_restarts
from welfair.lp import brute_force_assignment
from welfair.metrics import (
    additive_constants,
    color_masses,
    pairwise_pow,
    report_from_distances,
)
from welfair.model import (
    Instance,
    Params,
    Solution,
    apply_normalization,
    normalization_factor,
    slack,
)
from welfair.pipeline import (
    dominance_check,
    evaluate_baseline,
    rawlsian_alg,
    utilitarian_alg,
)
from welfair.rounding import rawlsian_round, utilitarian_round

from datagen import load_or_generate_adult, random_instance

pytestmark = pytest.mark.acceptance


def _announce(name: str, detail: str) -> None:
    print(f"ACCEPT {name}: PASS ({detail})")


def _snap(v: float, eps: float = 1e-9) -> float:
    r = round(v)
    return float(r) if abs(v - r) <= eps else v


def _random_fractional(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic (k, n) matrix with sparse random support."""
    x = rng.random((k, n)) ** 3
    keep = rng.random((k, n)) < 0.6
    keep[rng.integers(k, size=n), np.arange(n)] = True
    x = np.where(keep, x, 0.0)
    return x / x.sum(axis=0, keepdims=True)


@pytest.fixture(scope="module")
def adult2000():
    return load_or_generate_adult(2000)


@pytest.fixture(scope="module")
def adult_norm(adult2000):
    """Per-objective normalized copies, shared by the dataset sweeps."""
    out = {}
    for mode in ("rawlsian", "utilitarian"):
        f = normalization_factor(adult2000, list(range(4, 13)), p=2, mode=mode, seed=0)
        out[mode] = apply_normalization(adult2000, f)
    return out


def test_01_golden_one_hot_hamming_instance():
    # Three one-hot locations a, b, c plus the origin o under Hamming
    # distance, p=1, lambda=1.  Blue is 2/3 of the points (at b), red and
    # green 1/6 each (at a and c).  Both hand-computable center choices must
    # come out exact to 1e-12.
    t0 = time.perf_counter()
    n = 600
    nr, nb, ng = 100, 400, 100
    eye = np.eye(3)
    feats = np.vstack(
        [
            np.tile(eye[0], (nr, 1)),
            np.tile(eye[1], (nb, 1)),
            np.tile(eye[2], (ng, 1)),
        ]
    )
    colors = np.concatenate(
        [np.zeros(nr, np.int64), np.ones(nb, np.int64), np.full(ng, 2, np.int64)]
    )
    inst = Instance(feats, colors, ["red", "blue", "green"])
    assert inst.proportions[1] == pytest.approx(2.0 / 3.0, abs=0)
    params = Params(k=1, lam=1.0, p=1, alpha=np.zeros(3), beta=np.zeros(3))
    params.validate(inst)
    everyone = np.zeros(n, dtype=np.int64)

    def hamming_report(center):
        # the Hamming distance of 0/1 vectors is exactly their cityblock
        # distance, and d^p = d at p = 1
        dist = cdist(feats, center[None, :], "cityblock")
        return report_from_distances(inst, params, dist, everyone)

    rep_o = hamming_report(np.zeros(3))
    assert abs(rep_o.R - 1.0) <= 1e-12
    assert abs(rep_o.U - 3.0) <= 1e-12
    assert abs(rep_o.cost - n) <= 1e-12

    rep_b = hamming_report(eye[1])
    assert abs(rep_b.R - 2.0) <= 1e-12
    assert abs(rep_b.U - 4.0) <= 1e-12
    assert abs(rep_b.cost - (2.0 / 3.0) * n) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(
        "golden-hamming",
        f"center-o R={rep_o.R:g} U={rep_o.U:g} cost={rep_o.cost:g}; "
        f"center-b R={rep_b.R:g} U={rep_b.U:g} cost={rep_b.cost:g}; "
        f"{elapsed:.2f}s",
    )


def test_02_golden_two_coincident_blobs():
    # Two coincident 50/50 blobs a distance R apart with R^2 = 2((1-l)/l)*0.1
    # at lambda=0.5, k=2, alpha=beta=0.  The nearest-assignment socially-fair
    # baseline is stuck at R=0.5 while the LP finds the swap assignment worth
    # 0.05 (rawlsian) / 0.1 (utilitarian), plus the additive rounding term.
    t0 = time.perf_counter()
    n, lam, theta = 400, 0.5, 0.1
    sep = math.sqrt(2.0 * ((1.0 - lam) / lam) * theta)
    feats = np.concatenate([np.zeros(n // 2), np.full(n // 2, sep)])[:, None]
    colors = np.concatenate(
        [np.zeros(n // 2, np.int64), np.ones(n // 2, np.int64)]
    )
    inst = Instance(feats, colors, ["blue", "red"])
    params = Params.with_delta(inst, k=2, lam=lam, delta=0.0, p=2)
    c_r, c_u = additive_constants(inst, params)
    assert c_r == pytest.approx(0.03, abs=1e-15)
    assert c_u == pytest.approx(0.04, abs=1e-15)

    base = evaluate_baseline(inst, params, "socially_fair", seed=0, restarts=3)
    assert abs(base.report.R - 0.5) <= 1e-12

    res_r = rawlsian_alg(inst, params, seed=0, restarts=3)
    bound_r = 0.05 + (1.0 - lam) * c_r + 1e-6
    assert res_r.report.R <= bound_r

    res_u = utilitarian_alg(inst, params, seed=0, restarts=3)
    bound_u = 0.1 + (1.0 - lam) * c_u + 1e-6
    assert res_u.report.U <= bound_u

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(
        "golden-two-blob",
        f"baseline R={base.report.R:g}; rawlsian R={res_r.report.R:.6f} "
        f"<= {bound_r:g}; utilitarian U={res_u.report.U:.6f} <= {bound_u:g}; "
        f"{elapsed:.2f}s",
    )


def test_03_lp_rounding_sandwich_vs_brute_force():
    # On instances small enough to enumerate every assignment: the LP value
    # sits at or below the integral optimum (up to solver tolerance) and the
    # rounded solution sits at most (1-lambda)*C above it.
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        inst = random_instance(n, 2, 2, seed=1000 + trial, clusters=2)
        lam = float(rng.uniform(0.0, 1.0))
        delta = float(rng.choice([0.0, 0.05, 0.2]))
        p = int(rng.choice([1, 2]))
        params = Params.with_delta(inst, k=2, lam=lam, delta=delta, p=p)
        for objective, alg in (
            ("rawlsian", rawlsian_alg),
            ("utilitarian", utilitarian_alg),
        ):
            res = alg(inst, params, seed=trial, restarts=2)
            _, brute_val = brute_force_assignment(
                inst, params, res.solution.centers, objective
            )
            tol = slack(res.lp_objective)
            assert res.lp_objective <= brute_val + tol, (
                f"trial {trial} {objective}: LP {res.lp_objective!r} above "
                f"brute-force optimum {brute_val!r}"
            )
            assert (
                res.objective_value
                <= brute_val + res.gap_bound + tol
            ), (
                f"trial {trial} {objective}: rounded {res.objective_value!r} "
                f"above brute {brute_val!r} + {res.gap_bound!r}"
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(
        "sandwich", f"{checked} (instance, objective) pairs clean; {elapsed:.1f}s"
    )


def test_04_rounding_invariants_random_fractional():
    # Feed both rounders arbitrary column-stochastic fractional assignments.
    # Per (cluster, color) mass and per-cluster size must land within the
    # floor/ceil of the fractional mass (exact integer comparisons after a
    # 1e-9 snap); distance totals must not increase beyond 1e-9.
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    trials = 0
    for trial in range(100):
        if trial == 0:
            n, k, H = 500, 8, 4
        else:
            n = int(rng.integers(20, 501))
            k = int(rng.integers(2, 9))
            H = int(rng.integers(2, 5))
        inst = random_instance(n, 2, H, seed=3000 + trial)
        lam = float(rng.uniform(0.0, 1.0))
        delta = float(rng.choice([0.0, 0.02, 0.1]))
        params = Params.with_delta(inst, k=k, lam=lam, delta=delta, p=2)
        centers = inst.features[rng.choice(n, size=k, replace=False)]
        dist = pairwise_pow(inst.features, centers, params.p)
        x = _random_fractional(k, n, rng)
        dsel_frac_h = np.array(
            [(x[:, inst.colors == h] * dist[inst.colors == h].T).sum()
             for h in range(H)]
        )
        for name, rounder in (
            ("rawlsian", rawlsian_round),
            ("utilitarian", utilitarian_round),
        ):
            a = rounder(x, inst, params, dist).assignment
            assert a.shape == (n,) and a.min() >= 0 and a.max() < k
            dsel = dist[np.arange(n), a]
            for i in range(k):
                in_i = a == i
                for h in range(H):
                    mass = float(x[i, inst.colors == h].sum())
                    cnt = int(np.count_nonzero(in_i & (inst.colors == h)))
                    fl = math.floor(_snap(mass))
                    ce = math.ceil(_snap(mass))
                    assert fl <= cnt <= ce, (
                        f"trial {trial} {name}: color {h} cluster {i} "
                        f"count {cnt} outside [{fl}, {ce}] (mass {mass!r})"
                    )
                if name == "utilitarian":
                    size = int(np.count_nonzero(in_i))
                    fmass = float(x[i].sum())
                    fl = math.floor(_snap(fmass))
                    ce = math.ceil(_snap(fmass))
                    assert fl <= size <= ce, (
                        f"trial {trial}: cluster {i} size {size} outside "
                        f"[{fl}, {ce}] (mass {fmass!r})"
                    )
            if name == "rawlsian":
                for h in range(H):
                    got = float(dsel[inst.colors == h].sum())
                    assert got <= dsel_frac_h[h] + 1e-9, (
                        f"trial {trial}: color {h} distance {got!r} above "
                        f"fractional {dsel_frac_h[h]!r}"
                    )
            else:
                w = 1.0 / inst.counts
                got = float(
                    sum(dsel[inst.colors == h].sum() * w[h] for h in range(H))
                )
                frac = float((dsel_frac_h * w).sum())
                assert got <= frac + 1e-9, (
                    f"trial {trial}: weighted distance {got!r} above "
                    f"fractional {frac!r}"
                )
            trials += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce("rounding-invariants", f"{trials} roundings clean; {elapsed:.1f}s")


def test_05_violation_bound_zero_slack():
    # With alpha=beta=0 the size-weighted violation of any color under any
    # assignment averages to at most 2(1 - r_h).
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    pairs = 0
    for trial in range(200):
        n = int(rng.integers(12, 61))
        H = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        inst = random_instance(n, 2, H, seed=5000 + trial)
        params = Params(
            k=k, lam=0.5, p=2, alpha=np.zeros(H), beta=np.zeros(H)
        )
        assignment = rng.integers(k, size=n)
        rep = report_from_distances(inst, params, np.zeros((n, k)), assignment)
        r = inst.proportions
        for h in range(H):
            got = rep.V[h] / inst.counts[h]
            cap = 2.0 * (1.0 - r[h])
            assert got <= cap + 1e-12, (
                f"trial {trial}: color {h} V/n = {got!r} above {cap!r}"
            )
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce("violation-bound", f"{pairs} assignments clean; {elapsed:.1f}s")


def test_06_lambda_one_matches_plain_objectives():
    # At lambda=1 the max disutility is exactly the socially fair cost, the
    # largest per-group average d^p, and the summed disutility is exactly the
    # 1/n_h weighted clustering cost.
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(30, 120))
        H = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        p = int(rng.choice([1, 2]))
        inst = random_instance(n, 3, H, seed=7000 + trial)
        cs = best_of_restarts(inst, k, "vanilla", restarts=1, seed=trial)
        dist = pairwise_pow(inst.features, cs.centers, p)
        sol = Solution(cs.centers, np.argmin(dist, axis=1))
        params = Params(k=k, lam=1.0, p=p, alpha=np.zeros(H), beta=np.zeros(H))
        rep = report_from_distances(inst, params, dist, sol.assignment)
        dsel = dist[np.arange(n), sol.assignment]
        sf = max(dsel[inst.colors == h].mean() for h in range(H))
        wc = float((dsel / inst.counts[inst.colors]).sum())
        assert abs(rep.R - sf) <= 1e-9 * max(1.0, abs(sf))
        assert abs(rep.U - wc) <= 1e-9 * max(1.0, abs(wc))
    _announce("lambda-one-reduction", "20 instances, R==socially-fair, U==weighted")


def test_07_gap_sweep_desk_scale(adult_norm):
    # Full (k, lambda) sweep on the 2,000-point two-group dataset: the
    # rounding gap must stay within (1-lambda)*C everywhere (hard), and we
    # report the max against the 8e-3 expectation (soft).
    t0 = time.perf_counter()
    lambdas = [round(0.1 * i, 1) for i in range(1, 10)]
    max_gap = -np.inf
    runs = 0
    for objective, alg, method in (
        ("rawlsian", rawlsian_alg, "socially_fair"),
        ("utilitarian", utilitarian_alg, "weighted"),
    ):
        inst = adult_norm[objective]
        for k in range(4, 13):
            cs = best_of_restarts(inst, k, method, restarts=3, seed=0)
            for lam in lambdas:
                params = Params.with_delta(inst, k=k, lam=lam, delta=0.01, p=2)
                res = alg(inst, params, center_set=cs)
                assert res.gap <= res.gap_bound + slack(res.lp_objective), (
                    f"{objective} k={k} lambda={lam}: gap {res.gap!r} above "
                    f"bound {res.gap_bound!r}"
                )
                assert not res.flags
                max_gap = max(max_gap, res.gap)
                runs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    soft = "within" if max_gap <= 8e-3 else "EXCEEDS (soft, reported only)"
    _announce(
        "gap-sweep",
        f"{runs} runs, max gap {max_gap:.3e} {soft} 8e-3 soft ceiling; "
        f"{elapsed:.0f}s",
    )


def test_08_dominance_at_desk_scale(adult_norm):
    # lambda=0.5, delta=0.01, k in 4..12, 3 seeds: each objective must beat
    # every nearest-assignment baseline in at least 90% of (k, seed) settings.
    t0 = time.perf_counter()
    wins = {"rawlsian": 0, "utilitarian": 0}
    total = 0
    for objective, alg in (
        ("rawlsian", rawlsian_alg),
        ("utilitarian", utilitarian_alg),
    ):
        inst = adult_norm[objective]
        total = 0
        for k in range(4, 13):
            for seed in range(3):
                params = Params.with_delta(inst, k=k, lam=0.5, delta=0.01, p=2)
                ours = alg(inst, params, seed=seed, restarts=3)
                results = [ours] + [
                    evaluate_baseline(inst, params, m, seed=seed, restarts=3)
                    for m in ("vanilla", "weighted", "socially_fair")
                ]
                rep = dominance_check(results, objective)
                wins[objective] += int(rep.all_dominated)
                total += 1
        assert wins[objective] >= math.ceil(0.9 * total), (
            f"{objective}: dominated baselines in only {wins[objective]} of "
            f"{total} settings"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _announce(
        "dominance",
        f"rawlsian {wins['rawlsian']}/{total}, "
        f"utilitarian {wins['utilitarian']}/{total} settings dominated; "
        f"{elapsed:.0f}s",
    )


def test_09_end_to_end_runtime(adult_norm):
    # One full pipeline run (centers, LP, rounding, report) at n=2000, k=4.
    inst = adult_norm["rawlsian"]
    params = Params.with_delta(inst, k=4, lam=0.5, delta=0.01, p=2)
    t0 = time.perf_counter()
    res = rawlsian_alg(inst, params, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert not res.flags
    _announce(
        "runtime",
        f"n=2000 k=4 pipeline {elapsed:.1f}s "
        f"(centers {res.timings['centers']:.1f}s, lp {res.timings['lp']:.1f}s, "
        f"round {res.timings['round']:.1f}s)",
    )
