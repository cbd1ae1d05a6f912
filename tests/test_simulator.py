"""Monte Carlo simulator tests: determinism, the outcome table against a
round-by-round enumeration, closed-form agreement, sifting statistics, and
CSV round-trips."""

import math
import statistics

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from pmqkd.channel import ChannelSpec, gain, qber, transmittance
from pmqkd.errors import DomainError, NoDataError
from pmqkd.ingest import ExperimentRecord
from pmqkd import simulator
from pmqkd.simulator import (
    MAX_BATCHES,
    ObservedTally,
    ProtocolParams,
    _ordered_keys,
    _outcome_probabilities,
    _rekey,
    simulate,
    tally_to_stats,
    write_tally_csv,
)


def make_params(loss_db=20.0, mu=3.2e-3, n_rounds=2_000_000, p_s=0.07, m=8):
    return ProtocolParams(
        mu=mu, m_slices=m, n_rounds=n_rounds, p_s=p_s,
        channel=ChannelSpec(total_loss_db=loss_db),
    )


class TestParamsValidation:
    def test_rejects_bad_fields(self):
        ch = ChannelSpec(total_loss_db=20)
        with pytest.raises(DomainError):
            ProtocolParams(mu=-1, m_slices=8, n_rounds=10, p_s=0.1, channel=ch)
        with pytest.raises(DomainError):
            ProtocolParams(mu=1e-3, m_slices=7, n_rounds=10, p_s=0.1, channel=ch)
        with pytest.raises(DomainError, match=r"ProtocolParams: mu must be finite and in"):
            ProtocolParams(mu=800.0, m_slices=8, n_rounds=10, p_s=0.1, channel=ch)
        with pytest.raises(DomainError):
            ProtocolParams(mu=1e-3, m_slices=8, n_rounds=10, p_s=0.0, channel=ch)
        with pytest.raises(DomainError):
            ProtocolParams(mu=1e-3, m_slices=8, n_rounds=0, p_s=0.1, channel=ch)

    # Each by the chain's one rule for it.
    @pytest.mark.parametrize("name,rule", [
        ("mu", r"must be finite and in \[0, 700\]"),
        ("p_s", r"must be in \(0, 1\)"),
    ], ids=["mu", "p_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, rule, value):
        fields = dict(mu=1e-3, m_slices=8, n_rounds=10, p_s=0.1,
                      channel=ChannelSpec(total_loss_db=20))
        fields[name] = value
        with pytest.raises(DomainError, match=rf"^ProtocolParams: {name} {rule}, got {value}$"):
            ProtocolParams(**fields)


class TestRecordsRejectBadFields:
    """Each record fails at its constructor, naming the field."""

    def test_experiment_record_nan_loss(self):
        # nan <= 0 is false, so a NaN loss was once accepted
        tally = ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07)
        with pytest.raises(DomainError, match=r"\bloss_db must"):
            ExperimentRecord(loss_db=math.nan, tally=tally)

    def test_tally_nan_mu(self):
        with pytest.raises(DomainError, match=r"\bmu must"):
            ObservedTally(m_slices=8, n_rounds=1000, mu=math.nan, p_s=0.07)

    def test_tally_nan_p_s_and_negative_n_det(self):
        with pytest.raises(DomainError, match=r"\bp_s must"):
            ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=math.nan, n_det=-5)
        with pytest.raises(DomainError, match=r"\bn_det must"):
            ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07, n_det=-5)

    @pytest.mark.parametrize("fields,match", [
        # The negative count once gave error_count() = -50 and the (9, 9)
        # entry was dropped by the writer without a word.
        # Its ID keeps the text it pinned before the floor was a range.
        pytest.param({"matched": {(0, 0, 1): 100000, (0, 0, 2): -50, (9, 9, 1): 7}},
                     r"matched\[\(0, 0, 2\)\] must be finite and >= 0, got -50",
                     id=r"fields0-matched\[\(0, 0, 2\)\] must be >= 0, got -50"),
        ({"matched": {(0, 0, 1): 2.5}}, r"matched\[\(0, 0, 1\)\] must be an integer, got 2.5"),
        ({"matched": {(9, 9, 1): 7}}, r"matched key \(9, 9, 1\) must be a matched phase pair"),
        ({"matched": {(0, 1, 1): 7}}, r"matched key \(0, 1, 1\) must"),  # not a matched pair
        ({"matched": {(0, 4, 3): 7}}, r"matched key \(0, 4, 3\) must"),  # no detector 3
        # An odd M was accepted and written, and the file was then refused.
        ({"m_slices": 7}, r"ObservedTally: m_slices must be 6 or 8, got 7"),
        # A truthy string was read as True, and written as 'false'.
        ({"counts_include_test": "false"}, r"counts_include_test must be a bool, got .false."),
        # A mu the chain cannot sum was written, and then refused by a chain stage.
        ({"mu": 800.0}, r"ObservedTally: mu must be finite and in \[0, 700\], got 800.0"),
    ])
    def test_tally_matched_entries_checked(self, fields, match):
        with pytest.raises(DomainError, match=match):
            ObservedTally(**{"m_slices": 8, "n_rounds": 10**6, "mu": 1e-3, "p_s": 0.07,
                             **fields})

    def test_tally_matched_keys_follow_m(self):
        # (0, 3) is matched at M = 6 (delta = pi) and not at M = 8.
        ObservedTally(m_slices=6, n_rounds=100, mu=1e-3, p_s=0.07, n_det=1,
                      matched={(0, 3, 2): 1})
        with pytest.raises(DomainError, match=r"matched key \(0, 3, 2\) must"):
            ObservedTally(m_slices=8, n_rounds=100, mu=1e-3, p_s=0.07, n_det=1,
                          matched={(0, 3, 2): 1})
        # A declared M of 1e12 was accepted, and its file would have held
        # 2e12 rows; the chain covers no such count.
        half = 5 * 10**11
        with pytest.raises(DomainError, match=r"m_slices must be 6 or 8, got 1000000000000"):
            ObservedTally(m_slices=2 * half, n_rounds=100, mu=1e-3, p_s=0.07, n_det=3,
                          matched={(7, 7 + half, 1): 3})

    def test_tally_key_equal_to_a_valid_key_accepted(self):
        # A key equal to a valid one is accepted, as the dict finds it, in
        # either order of first sight.
        for key in [(0, 4, 1), (0.0, 4, 1), (1.0, 5, 1), (1, 5, 1)]:
            tally = ObservedTally(m_slices=8, n_rounds=100, mu=1e-3, p_s=0.07, n_det=2,
                                  matched={key: 2})
            assert tally.error_count() == 2

    def test_integral_float_counts_are_ints(self):
        tally = ObservedTally(m_slices=8.0, n_rounds=1e11, mu=1e-3, p_s=0.07, n_det=4.0,
                              m_s=2.0)
        assert (tally.m_slices, tally.n_rounds, tally.n_det, tally.m_s) == (8, 10**11, 4, 2)
        assert all(type(v) is int for v in (tally.m_slices, tally.n_rounds, tally.n_det))


class TestRekeyedStream:
    @pytest.mark.parametrize("seed,index", [(0, 0), (3, 1), (123, 4), (2**40 + 5, 17),
                                            (2**64 - 1, 2**63)])
    def test_equals_a_fresh_philox(self, seed, index):
        # One generator, re-keyed between batches, draws what a new
        # Philox(key=[seed, index]) draws, also after another stream was used.
        rng = np.random.Generator(np.random.Philox(0))
        rng.random(7)
        _rekey(rng.bit_generator, seed, index)
        fresh = np.random.Generator(
            np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        assert np.array_equal(rng.random(9), fresh.random(9))
        assert np.array_equal(rng.multinomial(10**9, [0.1, 0.2, 0.7]),
                              fresh.multinomial(10**9, [0.1, 0.2, 0.7]))
        assert rng.integers(2**62) == fresh.integers(2**62)


class TestBatchStreams:
    def test_early_and_late_batches_match_the_outcome_table(self):
        # Batches 0-14 of seed 1846883866 once summed to 83 valid clicks against
        # 145.6 expected (33.35 dB, mu = 8.06e-3, M = 8), a tail of ~1e-8.  The
        # streams (seed, i) of small i are not biased: over 200 seeds each
        # 15-batch sum averages to the outcome table's expectation.  Batch i
        # draws on (seed, i) whatever the run's length, so batches 15-29 are
        # n_det(3e6 rounds) - n_det(1.5e6 rounds).
        def n_det(n_rounds, seed):
            params = make_params(loss_db=33.35, mu=8.06e-3, n_rounds=n_rounds)
            return simulate(params, seed, batch_size=100_000).n_det

        n = 1_500_000
        probs = _outcome_probabilities(make_params(loss_db=33.35, mu=8.06e-3))
        p = probs[:-2].sum()  # every outcome but a double click and no click
        expect, sd = n * p, math.sqrt(n * p * (1 - p))
        seeds = np.random.default_rng(2802).integers(2**32, size=200).tolist()
        early = [n_det(n, seed) for seed in seeds]
        late = [n_det(2 * n, seed) - first for seed, first in zip(seeds, early)]
        for sums in (early, late):
            assert abs(statistics.fmean(sums) - expect) <= 4 * sd / math.sqrt(len(seeds))


class TestBatchCap:
    """A run draws at most MAX_BATCHES batches: at the default batch size
    n_rounds = 1e16 took 38 s, and 1e20 would never end."""

    def test_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(simulator, "_simulate_batch", no_draw)
        n = 10**16 + 1
        with pytest.raises(DomainError) as exc:
            simulate(make_params(n_rounds=n), seed=1)
        assert str(exc.value) == (
            f"simulate: n_rounds={n} in batches of batch_size=10000000000 give "
            f"{MAX_BATCHES + 1} batches, more than {MAX_BATCHES}")

    def test_the_cap_itself_runs(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_BATCHES", 3)
        assert simulate(make_params(n_rounds=30), seed=1, batch_size=10).n_rounds == 30
        with pytest.raises(DomainError, match="give 4 batches, more than 3$"):
            simulate(make_params(n_rounds=31), seed=1, batch_size=10)


class TestDeterminism:
    def test_same_seed_same_tally(self):
        params = make_params()
        t1 = simulate(params, seed=11)
        t2 = simulate(params, seed=11)
        assert t1.matched == t2.matched
        assert (t1.n_det, t1.n_double, t1.m_s, t1.n_sifted) == (
            t2.n_det, t2.n_double, t2.m_s, t2.n_sifted
        )

    def test_multi_batch_run_repeats(self):
        params = make_params(n_rounds=3_000_000)  # six batches, five merges
        t1 = simulate(params, seed=3, batch_size=500_000)
        t2 = simulate(params, seed=3, batch_size=500_000)
        assert t1.matched == t2.matched
        assert (t1.n_det, t1.n_double, t1.m_s, t1.n_sifted) == (
            t2.n_det, t2.n_double, t2.m_s, t2.n_sifted
        )

    def test_different_seeds_differ(self):
        params = make_params()
        assert simulate(params, seed=1).matched != simulate(params, seed=2).matched


class TestDegenerateCases:
    def test_no_light_no_darks(self):
        ch = ChannelSpec(total_loss_db=20, p_d=0.0)
        params = ProtocolParams(mu=0.0, m_slices=8, n_rounds=100_000, p_s=0.07,
                                channel=ch)
        tally = simulate(params, seed=0)
        assert tally.n_det == 0
        assert tally.matched == {}
        with pytest.raises(NoDataError):
            tally_to_stats(tally)

    def test_darks_only_is_random_noise(self):
        ch = ChannelSpec(total_loss_db=20, p_d=1e-3)
        params = ProtocolParams(mu=0.0, m_slices=8, n_rounds=2_000_000, p_s=0.07,
                                channel=ch)
        tally = simulate(params, seed=0)
        _, e_b_emp, _ = tally_to_stats(tally)
        n = tally.total_matched()
        assert abs(e_b_emp - 0.5) <= 3 * math.sqrt(0.25 / n)


class TestClosedFormAgreement:
    def test_reference_point_35db(self):
        params = make_params(loss_db=35.0, mu=3.2e-3, n_rounds=20_000_000)
        tally = simulate(params, seed=99)
        q_emp, e_b_emp, _ = tally_to_stats(tally)
        eta = transmittance(params.channel)
        q = gain(params.mu, eta, params.channel.p_d)
        e_b = qber(params.mu, eta, params.channel.p_d, params.channel.e_d)
        assert abs(q_emp - q) <= 3 * math.sqrt(q * (1 - q) / params.n_rounds)
        n_matched = tally.total_matched()
        assert abs(e_b_emp - e_b) <= 3 * math.sqrt(e_b * (1 - e_b) / n_matched)

    def test_matched_fraction_near_2_over_m(self):
        for m in (6, 8):
            params = make_params(loss_db=15.0, mu=5e-3, n_rounds=5_000_000, m=m)
            tally = simulate(params, seed=5)
            frac = tally.total_matched() / tally.n_det
            expect = 2.0 / m
            sd = math.sqrt(expect * (1 - expect) / tally.n_det)
            assert abs(frac - expect) <= 3 * sd

    def test_random_parameter_sweep(self):
        # 20 random boxes; allow one 4-sigma excursion across all checks
        rng = np.random.default_rng(7)
        excursions = 0
        for _ in range(20):
            mu = float(10 ** rng.uniform(-4, -2))
            loss = float(rng.uniform(10, 50))
            params = make_params(loss_db=loss, mu=mu, n_rounds=10_000_000)
            tally = simulate(params, seed=int(rng.integers(2**31)))
            eta = transmittance(params.channel)
            q = gain(mu, eta, params.channel.p_d)
            e_b = qber(mu, eta, params.channel.p_d, params.channel.e_d)
            q_emp, e_b_emp, _ = tally_to_stats(tally)
            if abs(q_emp - q) > 4 * math.sqrt(q * (1 - q) / params.n_rounds):
                excursions += 1
            n_matched = tally.total_matched()
            if n_matched and abs(e_b_emp - e_b) > 4 * math.sqrt(
                e_b * (1 - e_b) / n_matched
            ):
                excursions += 1
        assert excursions <= 1

    def test_sifting_symmetry(self):
        # counts in the delta = 0 and delta = pi groups are indistinguishable
        params = make_params(loss_db=10.0, mu=5e-3, n_rounds=10_000_000)
        tally = simulate(params, seed=31)
        half = params.m_slices // 2
        zero = sum(
            c for (a, b, _), c in tally.matched.items() if (a - b) % 8 == 0
        )
        pi = sum(
            c for (a, b, _), c in tally.matched.items() if (a - b) % 8 == half
        )
        chi2 = stats.chisquare([zero, pi])
        assert chi2.pvalue > 0.001

    def test_invariants_hold(self):
        params = make_params(loss_db=15.0, mu=5e-3, n_rounds=3_000_000)
        tally = simulate(params, seed=17)
        # every matched key is a |delta| in {0, pi} pair
        for (a, b, det) in tally.matched:
            assert (a - b) % 8 in (0, 4)
            assert det in (1, 2)
        # sampling partition is consistent
        sampled_out = tally.total_matched() - tally.n_sifted
        assert sampled_out >= 0
        assert tally.m_s <= sampled_out
        assert tally.n_det >= tally.total_matched()


class TestTallyToStats:
    def test_empty_tally_errors(self):
        tally = ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07)
        with pytest.raises(NoDataError):
            tally_to_stats(tally)

    def test_pure_correct_counts(self):
        tally = ObservedTally(
            m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07, n_det=40,
            matched={(0, 0, 1): 5, (1, 5, 2): 5}, n_sifted=10,
        )
        _, e_b, n_mu = tally_to_stats(tally)
        assert e_b == 0.0
        assert n_mu == 10

    def test_error_convention(self):
        # D2 at delta = 0 and D1 at delta = pi are the error counts
        tally = ObservedTally(
            m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07, n_det=140,
            matched={(0, 0, 2): 3, (2, 6, 1): 4, (0, 0, 1): 93}, n_sifted=100,
        )
        assert tally.error_count() == 7


def test_counts_moved_in_place_are_read_and_checked():
    # The move benchmarks/selftest.py makes to show its z gate fires: a tenth
    # of the D1 clicks at delta = 0 moved to D2, in place in matched, which
    # stays a plain dict until that move is a replace.
    tally = simulate(make_params(loss_db=10.0, mu=1e-2), seed=1)
    q, e_b, n_mu = tally_to_stats(tally)
    errors, total, all_moved = tally.error_count(), tally.total_matched(), 0
    for a in range(tally.m_slices):
        moved = tally.matched[(a, a, 1)] // 10
        tally.matched[(a, a, 1)] -= moved
        tally.matched[(a, a, 2)] = tally.matched.get((a, a, 2), 0) + moved
        all_moved += moved
    assert all_moved > 0
    assert tally_to_stats(tally) == (q, (errors + all_moved) / total, n_mu)
    tally.matched[(0, 0, 2)] = -1
    with pytest.raises(DomainError) as exc:
        tally_to_stats(tally)
    assert str(exc.value) == "tally_to_stats: matched[(0, 0, 2)] must be finite and >= 0, got -1"


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        from pmqkd.ingest import parse_tally_csv

        params = make_params(loss_db=15.0, mu=5e-3, n_rounds=2_000_000)
        tally = simulate(params, seed=23)
        path = tmp_path / "tally.csv"
        write_tally_csv(tally, str(path), loss_db=15.0)
        record = parse_tally_csv(str(path))
        kept = {k: v for k, v in tally.matched.items() if v}
        assert record.tally.matched == kept
        assert record.tally.n_det == tally.n_det
        assert record.tally.m_s == tally.m_s
        assert record.tally.n_sifted == tally.n_sifted
        assert record.tally.counts_include_test is True
        assert record.loss_db == 15.0

    def test_byte_identical_rewrites(self, tmp_path):
        params = make_params(n_rounds=1_000_000)
        tally = simulate(params, seed=8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tally_csv(tally, str(p1), loss_db=20.0)
        write_tally_csv(tally, str(p2), loss_db=20.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_merge_keeps_unknown_counts_unknown(self):
        known = ObservedTally(m_slices=8, n_rounds=10, mu=1e-3, p_s=0.07, n_det=5,
                              matched={(0, 0, 1): 5}, m_s=2, n_sifted=5)
        unknown = ObservedTally(m_slices=8, n_rounds=10, mu=1e-3, p_s=0.07)
        for merged in (known.merge(unknown), unknown.merge(known)):
            assert merged.m_s is None and merged.n_sifted is None
        both = known.merge(known)
        assert (both.m_s, both.n_sifted) == (4, 10)

    def test_merge_of_two_seeds_names_neither(self, tmp_path):
        params = make_params(n_rounds=100_000)
        a, b = simulate(params, seed=3), simulate(params, seed=4)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).seed is None
        assert a.merge(a).seed == 3
        path = tmp_path / "merged.csv"
        write_tally_csv(a.merge(b), str(path), loss_db=20.0)
        assert "# seed=" not in path.read_text()

    def test_merge_is_associative(self):
        params = make_params(n_rounds=900_000)
        t = simulate(params, seed=4, batch_size=300_000)
        single = simulate(params, seed=4, batch_size=900_000)
        # same seed, different layout -> different streams; only structure
        # is comparable here: merge bookkeeping stays consistent
        assert t.n_rounds == single.n_rounds == 900_000
        assert t.total_matched() == t.n_sifted + (t.total_matched() - t.n_sifted)


def round_by_round_outcomes(params):
    """Outcome probabilities enumerated over every round the protocol can play.

    Each (phase pair, misalignment, click pattern, in-test) combination is
    weighted with its probability, in mpmath arithmetic, and added to the
    outcome it reports, in the order of ``_outcome_probabilities``: the keys of
    ``_ordered_keys`` in a sifted round, then in a test round, then the rest.
    """
    m = params.m_slices
    half = m // 2
    ch = params.channel
    x = mp.mpf(params.mu) * mp.mpf(transmittance(ch))
    p_d, e_d, p_s = mp.mpf(ch.p_d), mp.mpf(ch.e_d), mp.mpf(params.p_s)
    key_index = {key: j for j, key in enumerate(_ordered_keys(m))}
    probs = [mp.mpf(0)] * (8 * m + 3)
    for a in range(m):
        for b in range(m):
            delta = (a - b) % m
            c = mp.cos(2 * mp.pi * delta / m)
            for misaligned, p_mis in ((False, 1 - e_d), (True, e_d)):
                i1, i2 = x * (1 + c) / 2, x * (1 - c) / 2
                if misaligned:
                    i1, i2 = i2, i1
                p1 = 1 - (1 - p_d) * mp.exp(-i1)
                p2 = 1 - (1 - p_d) * mp.exp(-i2)
                for click1, click2 in ((True, False), (False, True), (True, True),
                                       (False, False)):
                    p = (p1 if click1 else 1 - p1) * (p2 if click2 else 1 - p2)
                    p *= p_mis / (m * m)
                    if click1 and click2:
                        probs[8 * m + 1] += p
                    elif not (click1 or click2):
                        probs[8 * m + 2] += p
                    elif delta not in (0, half):
                        probs[8 * m] += p
                    else:
                        cell = key_index[(a, b, 2 if click2 else 1)]
                        probs[cell] += p * (1 - p_s)
                        probs[4 * m + cell] += p * p_s
    return np.array([float(p) for p in probs])


def binomial_z(k, n, p):
    """Normal score of the exact binomial tail beyond k (signed)."""
    if k >= n * p:
        return max(0.0, float(stats.norm.isf(stats.binom.sf(k - 1, n, p))))
    return min(0.0, -float(stats.norm.isf(stats.binom.cdf(k, n, p))))


def double_click_probability(mu, eta, p_d, m):
    """P(both detectors click), averaged over the m phase differences."""
    total = 0.0
    for k in range(m):
        c = math.cos(2 * math.pi * k / m)
        dark1 = (1 - p_d) * math.exp(-mu * eta * (1 + c) / 2)
        dark2 = (1 - p_d) * math.exp(-mu * eta * (1 - c) / 2)
        total += (1 - dark1) * (1 - dark2)
    return total / m


class TestCountLevelSampler:
    @pytest.mark.parametrize("loss,mu,m,p_d,e_d", [
        (45.0, 9.78e-4, 8, 1e-8, 0.01),
        (10.0, 5e-2, 6, 1e-6, 0.03),
        (20.0, 0.0, 8, 1e-3, 0.01),
        (0.0, 3.0, 8, 0.0, 0.5),
    ])
    def test_outcome_table_matches_round_by_round(self, loss, mu, m, p_d, e_d):
        params = ProtocolParams(
            mu=mu, m_slices=m, n_rounds=1, p_s=0.07,
            channel=ChannelSpec(total_loss_db=loss, p_d=p_d, e_d=e_d),
        )
        probs = _outcome_probabilities(params)
        with mp.workdps(40):
            reference = round_by_round_outcomes(params)
        np.testing.assert_allclose(probs, reference, rtol=1e-12, atol=1e-300)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_criterion_6_settings_at_1e11(self):
        # The acceptance check's 20 parameter sets, at the paper's N = 1e11.
        rng = np.random.default_rng(20240817)
        sets = [
            (float(10 ** rng.uniform(-4, -2)), float(rng.uniform(10, 50)),
             int(rng.integers(2**31)))
            for _ in range(20)
        ]
        n_rounds = 10**11
        zs = []
        for mu, loss, seed in sets:
            channel = ChannelSpec(total_loss_db=loss)
            params = ProtocolParams(mu=mu, m_slices=8, n_rounds=n_rounds,
                                    p_s=0.07, channel=channel)
            tally = simulate(params, seed=seed)
            q_emp, e_b_emp, _ = tally_to_stats(tally)
            eta = transmittance(channel)
            q = gain(mu, eta, channel.p_d)
            e_b = qber(mu, eta, channel.p_d, channel.e_d)
            n_matched = tally.total_matched()
            zs.append((q_emp - q) / math.sqrt(q * (1 - q) / n_rounds))
            zs.append((e_b_emp - e_b) / math.sqrt(e_b * (1 - e_b) / n_matched))
            frac = n_matched / tally.n_det
            zs.append((frac - 0.25) / math.sqrt(0.25 * 0.75 / tally.n_det))
        assert max(abs(z) for z in zs) <= 3.0

    @pytest.mark.parametrize("loss,mu,m,seed", [
        (35.0, 3.2e-3, 8, 1),
        (45.0, 9.78e-4, 8, 2),
        (12.0, 2e-2, 6, 3),
        (25.0, 1e-2, 8, 4),
    ])
    def test_double_clicks_and_sampled_errors_exact_binomial(self, loss, mu, m, seed):
        n_rounds = 10**11
        channel = ChannelSpec(total_loss_db=loss)
        params = ProtocolParams(mu=mu, m_slices=m, n_rounds=n_rounds, p_s=0.07,
                                channel=channel)
        tally = simulate(params, seed=seed)
        eta = transmittance(channel)
        # Matched pairs sit at phase difference 0 or pi, where the closed-form
        # gain and QBER are exact: P(sampled error) = (2/M) Q E_b p_s.
        p_err = (2 / m) * gain(mu, eta, channel.p_d) * qber(
            mu, eta, channel.p_d, channel.e_d) * params.p_s
        p_double = double_click_probability(mu, eta, channel.p_d, m)
        assert abs(binomial_z(tally.m_s, n_rounds, p_err)) <= 4.0
        assert abs(binomial_z(tally.n_double, n_rounds, p_double)) <= 4.0

    def test_single_batch_1e13_counts_consistent(self):
        params = make_params(loss_db=30.0, mu=5e-3, n_rounds=10**13)
        tally = simulate(params, seed=13, batch_size=10**13)
        assert tally.n_rounds == 10**13
        sampled_out = tally.total_matched() - tally.n_sifted
        assert tally.n_det >= tally.total_matched() >= tally.n_sifted > 0
        assert 0 < tally.m_s <= sampled_out

    def test_batch_count_and_rounds(self):
        params = make_params(n_rounds=1_000_003)
        tally = simulate(params, seed=5, batch_size=100_000)
        assert tally.n_rounds == 1_000_003
        assert tally.seed == 5
