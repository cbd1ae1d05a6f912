"""Acceptance criteria.

Each test prints one `ACCEPTANCE <id> [PASS|FAIL]` line (visible with -s, or
in the captured output on failure) and then asserts the criterion at its
stated tolerance.

Criterion 3a (the N = 1e12 positive-rate cutoff window) is implemented
faithfully and is expected to fail: with the bound chain that reproduces the
published key-rate table to ~2% (criterion 2), the model's positive-rate
cutoff at N = 1e12 sits near 329 km, outside the 305 +/- 10 km window.  See
docs/DECISIONS.md for the per-term analysis; no parameter choice consistent
with criteria 2 and 6 moves it inside the window.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pmqkd.channel import ChannelSpec, gain, qber, transmittance
from pmqkd.cli import main as cli_main
from pmqkd.ingest import derive_observables, load_bundled_record, reproduce_key_rate
from pmqkd.numerics import pseudo_fock_weight, pseudo_fock_weight_ub
from pmqkd.optimizer import optimize
from pmqkd.pipeline import expected_key_rate
from pmqkd.security import (
    SecurityBudget,
    chernoff_expected_ub,
    chernoff_observed_ub,
    compose_epsilons,
    kato_correction,
    kato_epsilon,
)
from pmqkd.simulator import ProtocolParams, simulate, tally_to_stats

ALPHA = 0.168
P_S = 0.07


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} [{'PASS' if ok else 'FAIL'}]: {detail}")


# --- 1. tally cross-check -------------------------------------------------

def test_criterion_1_tally_cross_check():
    reported = {
        35: (0.00217, 934403), 40: (0.00330, 302187), 45: (0.00707, 91781)
    }
    ok = True
    details = []
    for loss, (e_b_ref, n_mu_ref) in reported.items():
        obs = derive_observables(load_bundled_record(loss))
        e_b_ok = abs(obs.e_b - e_b_ref) < 5e-5  # +/- 0.005 pp
        if loss == 45:
            n_ok = obs.n_mu == 91781
        else:
            n_ok = abs(obs.n_mu - n_mu_ref) / n_mu_ref < 0.002
        ok &= e_b_ok and n_ok
        details.append(f"{loss}dB E_b={obs.e_b * 100:.3f}% n={obs.n_mu:.0f}")
    report("1", ok, "; ".join(details))
    assert ok


# --- 2. key-rate reproduction ----------------------------------------------

def test_criterion_2_key_rate_reproduction():
    reported = {35: 3.00e-6, 40: 8.50e-7, 45: 2.25e-7}
    ok = True
    details = []
    for loss, r_ref in reported.items():
        result = reproduce_key_rate(load_bundled_record(loss))
        rel = abs(result.rate - r_ref) / r_ref
        ok &= rel < 0.15
        details.append(f"{loss}dB R={result.rate:.3e} ({rel * 100:+.1f}%)")
    report("2", ok, "; ".join(details))
    assert ok


# --- 3. rate-curve cutoffs --------------------------------------------------

def _best_rate(distance_km: float, n_rounds: float) -> float:
    channel = ChannelSpec(distance_km=distance_km, alpha_db_per_km=ALPHA)
    return optimize(
        channel, n_rounds, 8, fixed_p_s=P_S, seed=0
    ).rate_opt


def _cutoff_distance(n_rounds: float, threshold: float) -> float:
    lo, hi = 200.0, 380.0
    assert _best_rate(lo, n_rounds) > threshold
    assert _best_rate(hi, n_rounds) <= threshold
    while hi - lo > 0.5:
        mid = (lo + hi) / 2
        if _best_rate(mid, n_rounds) > threshold:
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_3a_cutoff_1e12():
    cutoff = _cutoff_distance(1e12, 0.0)
    ok = 295.0 <= cutoff <= 315.0
    report("3a", ok, f"N=1e12 last positive-rate distance = {cutoff:.1f} km "
                     f"(window 305 +/- 10 km)")
    assert ok, (
        f"N=1e12 cutoff {cutoff:.1f} km outside [295, 315] km: the chain "
        "validated by criterion 2 has a longer asymptotic reach than the "
        "published curve; see docs/DECISIONS.md"
    )


def test_criterion_3b_cutoff_1e10():
    cutoff = _cutoff_distance(1e10, 0.0)
    ok = 260.0 <= cutoff <= 280.0
    report("3b", ok, f"N=1e10 last positive-rate distance = {cutoff:.1f} km "
                     f"(window 270 +/- 10 km)")
    assert ok


def test_criterion_3c_threshold_1e11():
    cutoff = _cutoff_distance(1e11, 1e-8)
    ok = 288.0 <= cutoff <= 308.0
    report("3c", ok, f"N=1e11 last distance with R >= 1e-8 = {cutoff:.1f} km "
                     f"(window 298 +/- 10 km)")
    assert ok


# --- 4. discretization penalty stays below 1% -------------------------------

def test_criterion_4_deviation_share():
    worst = 0.0
    for loss in np.arange(10.0, 50.0 + 1e-9, 2.5):
        channel = ChannelSpec(total_loss_db=float(loss))
        opt = optimize(channel, 1e11, 6, fixed_p_s=P_S, seed=0)
        res = expected_key_rate(channel, opt.mu_opt, m_slices=6,
                                n_rounds=1e11, p_s=P_S)
        share = sum(res.breakdown.deviations) / res.ep_m
        worst = max(worst, share)
    ok = worst < 0.01
    report("4", ok, f"M=6 max sum(delta)/ep over 10-50 dB = {worst:.2e}")
    assert ok


# --- 5. failure-probability composition --------------------------------------

def test_criterion_5_epsilon_budget():
    budget = SecurityBudget(
        eps=0.5e-20, eps_ka=1e-10, xi=math.log2(1e20), xi_prime=math.log2(1e15)
    )
    eps_sec, eps_cor, eps_tot = compose_epsilons(budget)
    ok = (
        eps_sec == pytest.approx(2e-10, rel=1e-9)
        and eps_cor == pytest.approx(1e-15, rel=1e-9)
        and eps_tot == pytest.approx(3e-10, abs=2e-15)
    )
    report("5", ok, f"eps_sec={eps_sec:.3e} eps_cor={eps_cor:.3e} "
                    f"eps_tot={eps_tot:.3e}")
    assert ok


# --- 6. Monte Carlo vs closed forms ------------------------------------------

def _mc_one_set(args):
    mu, loss, seed = args
    channel = ChannelSpec(total_loss_db=loss)
    n_rounds = 100_000_000
    params = ProtocolParams(mu=mu, m_slices=8, n_rounds=n_rounds, p_s=P_S,
                            channel=channel)
    tally = simulate(params, seed=seed)
    q_emp, e_b_emp, _ = tally_to_stats(tally)
    eta = transmittance(channel)
    q = gain(mu, eta, channel.p_d)
    e_b = qber(mu, eta, channel.p_d, channel.e_d)
    n_matched = tally.total_matched()
    z_q = (q_emp - q) / math.sqrt(q * (1 - q) / n_rounds)
    z_e = (e_b_emp - e_b) / math.sqrt(e_b * (1 - e_b) / n_matched)
    frac = n_matched / tally.n_det
    z_f = (frac - 0.25) / math.sqrt(0.25 * 0.75 / tally.n_det)
    return z_q, z_e, z_f


def test_criterion_6_monte_carlo_vs_closed_form():
    import time

    rng = np.random.default_rng(20240817)
    sets = [
        (float(10 ** rng.uniform(-4, -2)), float(rng.uniform(10, 50)),
         int(rng.integers(2**31)))
        for _ in range(20)
    ]
    t0 = time.time()
    with ProcessPoolExecutor(max_workers=2) as pool:
        zs = list(pool.map(_mc_one_set, sets))
    elapsed = time.time() - t0
    worst = max(max(abs(z) for z in triple) for triple in zs)
    ok = all(abs(z) <= 3.0 for triple in zs for z in triple)
    report("6", ok, f"20 sets x 1e8 rounds in {elapsed:.0f}s; "
                    f"worst |z| = {worst:.2f} (limit 3)")
    assert ok


# --- 7. concentration-coefficient self-consistency ---------------------------

def test_criterion_7_kato_self_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10**3, 10**9))
        lam = float(rng.uniform(1e-4, 0.9999)) * n
        eps_ka = float(10 ** rng.uniform(-25, -2))
        coeffs = kato_correction(n, lam, eps_ka)
        worst = max(worst, abs(kato_epsilon(coeffs) - eps_ka) / eps_ka)
    ok = worst < 1e-6
    report("7", ok, f"100 random triples; worst relative error = {worst:.2e}")
    assert ok


# --- 8. observed/expected bound identities -----------------------------------

def test_criterion_8_chernoff_identities():
    eps = 0.5e-20
    beta = math.log(1 / eps)
    exact = (
        chernoff_expected_ub(0.0, eps) == 2 * beta
        and chernoff_observed_ub(0.0, eps) == beta
    )
    grid_ok = all(
        chernoff_observed_ub(x, eps) < chernoff_expected_ub(x, eps)
        for x in np.logspace(-6, 12, 200)
    )
    ok = exact and grid_ok
    report("8", ok, f"phi(0)=2beta and Phi(0)=beta exact: {exact}; "
                    f"Phi<phi on grid: {grid_ok}")
    assert ok


# --- 9. residue-class weight normalization and dominance ---------------------

def test_criterion_9_pseudo_fock():
    ok = True
    worst_norm = 0.0
    for mu in (1e-4, 1e-3, 1e-2, 0.5):
        for m in (6, 8, 16):
            total = math.fsum(
                pseudo_fock_weight(mu, m, k).weight for k in range(m)
            )
            worst_norm = max(worst_norm, abs(total - 1.0))
            ok &= abs(total - 1.0) <= 1e-12
            for k in (0, 2, 4, 6):
                if m < k + 2:
                    continue
                ok &= pseudo_fock_weight_ub(mu, m, k) >= pseudo_fock_weight(
                    mu, m, k
                ).weight
    report("9", ok, f"worst |sum - 1| = {worst_norm:.2e}; bounds dominate "
                    f"series on the full grid")
    assert ok


# --- 10. simulator determinism -----------------------------------------------

def test_criterion_10_simulator_determinism(tmp_path):
    files = []
    for name, jobs in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
        out = tmp_path / name
        code = cli_main([
            "simulate", "--loss-db", "25", "--mu", "5e-3",
            "--n-rounds", "1e6", "--seed", "123", "--batch-size", "200000",
            "--jobs", str(jobs), "--output", str(out),
        ])
        assert code == 0
        files.append(out.read_bytes())
    ok = files[0] == files[1] == files[2]
    report("10", ok, f"byte-identical tally CSV across reruns and "
                     f"parallelism degrees ({len(files[0])} bytes)")
    assert ok
