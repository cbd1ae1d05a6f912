"""Reference key rate for a tally CSV, written apart from the package.

The `ingest` workload gates every reproduced rate against this oracle.  It
follows the formulas of the chain as the package computed them when the
benchmark was defined (Chernoff lift of the sampled errors to a vacuum-yield
bound, discrete-phase phase error with the residue-class deviations, Kato
correction, key length), with the reproduce defaults: gain from the
closed-form channel model, f = 1.16, eta_d = 0.56, p_d = 1e-8 and the default
failure-probability budget.  It shares no code with the package, so a
change to the package's chain shows as a gate failure rather than moving the
reference with it.
"""

from __future__ import annotations

import math

F_EC = 1.16
ETA_D = 0.56
P_D = 1e-8
EPS = 0.5e-20
EPS_KA = 1e-10
XI = math.log2(1e20)
XI_PRIME = math.log2(1e15)


def read_tally(text: str) -> tuple[dict[str, str], list[tuple[int, int, int, int]]]:
    """Metadata and rows of a well-formed tally CSV."""
    meta: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not line.startswith("phase_a"):
            a, b, d1, d2 = (int(v) for v in line.split(","))
            rows.append((a, b, d1, d2))
    return meta, rows


def _entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _even_tail(mu: float, k: int) -> float:
    """sum over n = k, k+2, ... of e^-mu mu^n / n!."""
    term = math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1))
    total, n = 0.0, k
    while term > 1e-18 * total or total == 0.0:
        total += term
        term *= mu * mu / ((n + 1) * (n + 2))
        n += 2
        if term == 0.0:
            break
    return total


def _kato_delta(n: float, lam: float) -> float:
    le = math.log(EPS_KA)
    rn = math.sqrt(n)
    core = 9.0 * lam * (n - lam) - 2.0 * n * le
    a1 = n * math.sqrt(-le * core)
    a = 3.0 * (72.0 * rn * lam * (n - lam) * le - 16.0 * n * rn * le * le
               + 9.0 * math.sqrt(2.0) * (n - 2.0 * lam) * a1)
    a /= 4.0 * (9.0 * n - 8.0 * le) * core
    b = math.sqrt(18.0 * a * a * n - (16.0 * a * a + 24.0 * a * rn + 9.0 * n) * le)
    b /= 3.0 * math.sqrt(2.0 * n)
    return (b + a * (2.0 * lam / n - 1.0)) * rn


def key_rate(text: str) -> dict:
    """What `pmqkd reproduce --input` should report: rates, m_s_reconstructed, n_mu, n_rounds.

    A reconstructed m_s = round(E_b * n_mu * p_s / (1 - p_s)) whose argument
    is a half-integer up to rounding error (common: E_b * n_mu is an error
    count) rounds either way depending on the order of the multiplications,
    so both rates are then listed as acceptable.
    """
    meta, rows = read_tally(text)
    m = int(meta.get("m_slices", 8))
    n_rounds = float(meta["N"])
    mu = float(meta["mu"])
    p_s = float(meta["p_s"])
    loss_db = float(meta["loss_db"])
    include_test = meta.get("counts_include_test", "false").lower() in ("true", "1", "yes")

    total = sum(d1 + d2 for _, _, d1, d2 in rows)
    errors = sum(d2 if a == b else d1 for a, b, d1, d2 in rows)
    e_b = errors / total
    if not include_test:
        n_mu = float(total)
    elif "n_sifted" in meta:
        n_mu = float(int(float(meta["n_sifted"])))
    else:
        n_mu = total * (1.0 - p_s)
    reconstructed = "m_s" not in meta
    if reconstructed:
        x = e_b * n_mu * p_s / (1.0 - p_s)
        if abs(x - math.floor(x) - 0.5) <= 1e-9 * max(1.0, x):
            candidates = [float(math.floor(x)), float(math.ceil(x))]
        else:
            candidates = [float(round(x))]
    else:
        candidates = [float(int(float(meta["m_s"])))]
    result = {"m_s_reconstructed": reconstructed, "n_mu": n_mu, "n_rounds": n_rounds}
    if n_mu < 1:
        result["rates"] = [0.0]
        return result
    eta = ETA_D * 10.0 ** (-loss_db / 20.0)
    s = -math.expm1(-mu * eta)
    q = (1.0 - P_D) * (s + 2.0 * P_D * (1.0 - s))
    result["rates"] = [_chain(m, n_rounds, mu, p_s, q, e_b, n_mu, m_s) for m_s in candidates]
    return result


def _chain(m: int, n_rounds: float, mu: float, p_s: float, q: float, e_b: float,
           n_mu: float, m_s: float) -> float:
    beta = -math.log(EPS)
    m_s_up = m_s + beta + math.sqrt(2.0 * beta * m_s + beta * beta)
    n0 = 2.0 * m_s_up * (1.0 - p_s) / p_s
    n0_up = n0 + beta / 2.0 + math.sqrt(2.0 * beta * n0 + beta * beta / 4.0)
    y0 = min(1.0, n0_up * math.exp(mu) / (n_rounds * (1.0 - p_s)))

    e_mu = math.exp(-mu)
    ep = e_mu * y0 / q + (e_mu * e_mu + 1.0 - 2.0 * e_mu) / (2.0 * q)
    for k in range(0, m, 2):
        scale = math.exp(0.5 * (math.lgamma(k + 1) + m * math.log(mu) - math.lgamma(m + k + 1)))
        ep += _even_tail(mu, k) * scale / q
    ep_bar = ep + _kato_delta(n_mu, n_mu * ep) / n_mu if ep <= 1.0 else ep

    ell = n_mu * (1.0 - _entropy(min(ep_bar, 0.5)) - F_EC * _entropy(min(e_b, 0.5)))
    ell = max(0.0, ell - XI - XI_PRIME)
    return ell / n_rounds
