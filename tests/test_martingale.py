import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from bgl import martingale, suite
from bgl.errors import DomainError, PreconditionError, SizeError
from bgl.martingale import (
    build_walk_ensemble,
    doob_check,
    martingale_block_check,
    norming_identity,
    norming_log,
    norming_log_loglog,
    summability_check,
)
from bgl.measure import DiscreteMeasureSpace, SimpleFunction
from bgl.norms import lp_norm, lp_norm_matrix
from bgl.psi import PGrid, constant, power, psi_doob

GRID = PGrid.log_spaced(1.1, 50, 48)

# the non-default laws the level path is checked on: (horizon, increments, probs)
LAWS = {
    "biased": (7, [-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0]),
    "three_point": (5, [-1.0, 0.0, 1.0], None),
    "horizon_one": (1, [-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0]),
}

# the laws above put non-dyadic weights on the levels: against the digits
# enumeration, S_k is exact, and a level weight (against its summed path
# weights), sigma and a scaled value S_m / (sigma(m) v(m)) move by at most
# 2 eps (4.4e-16) relative; this bounds them at twice that
LEVEL_RTOL = 4 * np.finfo(float).eps
PM1_14 = (14, [-1.0, 1.0], [0.5, 0.5])


def _digits_walk(horizon, increments, probs):
    """(path weights, S_1..S_horizon per path, sigma) over every increment
    sequence, most-significant step first: the full-path reference."""
    increments = np.asarray(increments, dtype=float)
    base = increments.size
    probs = np.full(base, 1.0 / base) if probs is None else np.asarray(probs, dtype=float)
    idx = np.arange(base ** horizon)
    digits = np.stack([(idx // base ** (horizon - 1 - col)) % base
                       for col in range(horizon)], axis=1)
    weights = np.prod(probs[digits], axis=1)
    s = np.cumsum(increments[digits], axis=1)
    return weights, s, np.sqrt(weights @ (s ** 2) - (weights @ s) ** 2)


def _mp_lp(counts: dict, total: int, p) -> mpmath.mpf:
    """(sum_v counts[v] / total * v^p)^(1/p) for integer values v >= 0."""
    p = mpmath.mpf(p)
    mean = mpmath.fsum(c * mpmath.mpf(v) ** p for v, c in counts.items() if v) / total
    return mean ** (1 / p)


def _counts(values) -> dict:
    vals, cnt = np.unique(values, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, cnt)}


class TestEnsemble:
    def test_horizon_one(self):
        ens = build_walk_ensemble(1)
        assert ens.space.n_atoms == 2
        assert sorted(ens.s_values[:, 0]) == [-1.0, 1.0]
        assert ens.sigma[0] == pytest.approx(1.0)

    def test_sigma_sqrt_n(self):
        ens = build_walk_ensemble(4)
        assert np.allclose(ens.sigma, np.sqrt(np.arange(1, 5)), rtol=1e-12)

    def test_three_point_increments_enumerated(self):
        ens = build_walk_ensemble(8, increments=[-1.0, 0.0, 1.0])
        assert ens.space.n_atoms == 3 ** 8
        oracle = np.sqrt(2.0 * np.arange(1, 9) / 3.0)
        assert np.allclose(ens.sigma, oracle, rtol=1e-12)

    def test_weights_sum_to_one(self):
        ens = build_walk_ensemble(6, increments=[-2.0, 1.0], probs=[1.0 / 3.0, 2.0 / 3.0])
        assert ens.space.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_variance_additivity_over_increments(self):
        # sigma(n)^2 = sum_{k<=n} ||S(k) - S(k-1)||_2^2 for independent steps
        from bgl.measure import SimpleFunction

        ens = build_walk_ensemble(10, increments=[-2.0, 1.0], probs=[1.0 / 3.0, 2.0 / 3.0])
        prev = np.zeros(ens.space.n_atoms)
        increments = []
        for n in range(1, 11):
            cur = ens.s_values[:, n - 1]
            increments.append(lp_norm(SimpleFunction(ens.space, cur - prev), 2.0) ** 2)
            prev = cur
        assert np.allclose(ens.sigma ** 2, np.cumsum(increments), atol=1e-10)

    def test_conditional_means_verified(self):
        # biased law with mean zero still passes; a drifted one must fail
        build_walk_ensemble(5, increments=[-3.0, 1.0], probs=[0.25, 0.75])
        with pytest.raises(PreconditionError):
            build_walk_ensemble(5, increments=[-1.0, 1.0], probs=[0.3, 0.7])
        # the default +-1 steps take the same checks
        with pytest.raises(PreconditionError):
            build_walk_ensemble(5, probs=[0.3, 0.7])

    @pytest.mark.parametrize("law", [
        dict(increments=[]),
        dict(increments=[-1.0, 1.0], probs=[1.0]),
        dict(increments=[-1.0, 1.0], probs=[0.5, 0.25, 0.25]),
        dict(increments=[[-1.0, 1.0], [1.0, -1.0]]),
        dict(increments=[np.nan, 1.0]),
        dict(probs=[1.0]),
    ], ids=["empty", "short_probs", "long_probs", "2-d", "nan", "default_steps_short_probs"])
    def test_malformed_law_is_one_line_domain_error(self, law):
        with pytest.raises(DomainError, match=r"^[^\n]+$"):
            build_walk_ensemble(3, **law)

    def test_horizon_cap(self):
        with pytest.raises(SizeError):
            build_walk_ensemble(21)

    def test_horizon_cap_is_one_line_naming_the_limit(self):
        with pytest.raises(SizeError, match=r"^horizon 21 > 20: enumeration too large$"):
            build_walk_ensemble(21)

    def test_path_cap_stops_three_values_at_horizon_12(self):
        # 3^20 paths would be asked of numpy; the cap is the +-1 walk's 2^20 paths
        with pytest.raises(SizeError, match=r"^horizon 20 > 12: enumeration too large$"):
            build_walk_ensemble(20, increments=[-1.0, 0.0, 1.0])
        ens = build_walk_ensemble(12, increments=[-1.0, 0.0, 1.0])
        assert ens.s_values.shape == (3 ** 12, 12)

    def test_arrays_are_read_only(self):
        # the member norm table is kept on the ensemble, so its inputs and
        # the table itself must not change under it
        ens = build_walk_ensemble(4)
        for arr in (ens.s_values, ens.sigma, ens.space.weights, *ens.levels[1],
                    ens.member_norms(np.array([2.0]))):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestDoob:
    def test_n_equals_one_ratio_one(self):
        ens = build_walk_ensemble(6)
        rep = doob_check(ens, 2.0, 1)
        assert rep.ratio == pytest.approx(1.0, rel=1e-14)
        assert rep.passed

    def test_exhaustive_ratios_under_cap(self):
        ens = build_walk_ensemble(10)
        for p in [1.25, 2.0, 4.0]:
            for n in [1, 3, 5, 10]:
                rep = doob_check(ens, p, n)
                assert rep.ratio <= rep.cap, (p, n)

    def test_p_one_rejected(self):
        with pytest.raises(DomainError):
            doob_check(build_walk_ensemble(3), 1.0, 2)

    def test_cap_is_doobs_constant(self):
        ens = build_walk_ensemble(4)
        for p in (1.25, 2.0, 4.0):
            assert doob_check(ens, p, 3).cap == p / (p - 1.0)

    def test_case_over_its_cap_fails_the_record(self, monkeypatch):
        # one (p, n) case forced past its cap must fail criterion_doob's record
        def forced(ens, p, n):
            rep = doob_check(ens, p, n)
            return dataclasses.replace(rep, ratio=2.0 * rep.cap) if (p, n) == (2.0, 3) else rep

        assert suite.criterion_doob(1, horizons=(4,), ps=(1.25, 2.0)).passed is True
        monkeypatch.setattr(suite, "doob_check", forced)
        assert suite.criterion_doob(1, horizons=(4,), ps=(1.25, 2.0)).passed is False

    def test_max_norm_monotone_in_n(self):
        ens = build_walk_ensemble(8)
        s = np.abs(ens.s_values)
        norms = [lp_norm(SimpleFunction(ens.space, s[:, :n].max(axis=1)), 3.0)
                 for n in range(1, 9)]
        assert all(b >= a for a, b in zip(norms, norms[1:]))


class TestDoobExactLaw:
    def test_doob_against_prefix_enumeration(self):
        # oracle: the 2^n equally likely +-1 prefixes, enumerated in integers,
        # norms summed in mpmath at 40 digits
        ens = build_walk_ensemble(16)
        with mpmath.workdps(40):
            for n in range(1, 11):
                steps = np.array(list(itertools.product((-1, 1), repeat=n)))
                s = np.abs(np.cumsum(steps, axis=1))
                for p in (1.25, 2.0, 4.0):
                    lhs = _mp_lp(_counts(s.max(axis=1)), 2 ** n, p)
                    member = max(_mp_lp(_counts(s[:, k]), 2 ** n, p) for k in range(n))
                    rep = doob_check(ens, p, n)
                    for got, exact in ((rep.max_norm, lhs), (rep.member_norm_max, member),
                                       (rep.ratio, lhs / member)):
                        assert abs(mpmath.mpf(got) - exact) <= 2e-15 * exact, (p, n)

    def test_kappa_against_binomial_law(self):
        # P(S_n = 2j - n) = C(n, j) / 2^n; psi = 1, sigma(n) = sqrt(n)
        horizon = 16
        ens = build_walk_ensemble(horizon)
        rep = martingale_block_check(ens, constant(), norming_identity(), GRID)
        laws = []
        for n in range(1, horizon + 1):
            counts = {}
            for j in range(n + 1):
                counts[abs(2 * j - n)] = counts.get(abs(2 * j - n), 0) + math.comb(n, j)
            laws.append((n, counts))
        with mpmath.workdps(40):
            kappa = max(_mp_lp(counts, 2 ** n, p) / mpmath.sqrt(n)
                        for n, counts in laws for p in GRID.points)
            assert abs(mpmath.mpf(rep.kappa_psi) - kappa) <= 2e-15 * kappa


class TestLevels:
    @pytest.mark.parametrize("law", ["pm1_14", *sorted(LAWS)])
    def test_levels_match_digits_enumeration(self, law):
        # +-1 steps are exact in binary: every value is bit-identical
        horizon, increments, probs = LAWS.get(law, PM1_14)
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        weights, s, sigma = _digits_walk(horizon, increments, probs)
        rtol = 0.0 if law == "pm1_14" else LEVEL_RTOL
        assert np.array_equal(ens.s_values, s)
        np.testing.assert_allclose(ens.space.weights, weights, rtol=rtol, atol=0)
        np.testing.assert_allclose(ens.sigma, sigma, rtol=rtol, atol=0)
        for k, (w_k, s_k) in enumerate(ens.levels, 1):
            assert w_k.size == s_k.size == ens.base ** k
            assert np.array_equal(s_k, s[::ens.base ** (horizon - k), k - 1])
            np.testing.assert_allclose(w_k, weights.reshape(ens.base ** k, -1).sum(axis=1),
                                       rtol=rtol, atol=0)

    @pytest.mark.parametrize("law", ["pm1_14", *sorted(LAWS)])
    def test_lifted_maxima_match_digits_enumeration(self, law):
        # Doob's running max on F_n, each block's tau_k on F_b and the final
        # signed tau on the paths, lifted level by level
        horizon, increments, probs = LAWS.get(law, PM1_14)
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        _, s, sigma = _digits_walk(horizon, increments, probs)
        rtol = 0.0 if law == "pm1_14" else LEVEL_RTOL
        lift = martingale._max_over_levels

        def on_level(n, values):  # a full-path array of F_n-measurable values, on F_n
            return values[::ens.base ** (horizon - n)]

        for n in range(1, horizon + 1):
            running = lift(ens, 1, n, lambda m, s_m: np.abs(s_m))
            assert np.array_equal(running, on_level(n, np.abs(s[:, :n]).max(axis=1)))
        for v in (norming_identity(), norming_log_loglog(1.0)):
            vv = v(np.arange(1.0, horizon + 1))
            want, scale = s / (sigma * vv), ens.sigma * vv
            for a in (2 ** j for j in range(horizon.bit_length())):
                b = min(2 * a - 1, horizon)
                tau_k = lift(ens, a, b, lambda m, s_m: np.abs(s_m) / scale[m - 1])
                np.testing.assert_allclose(
                    tau_k, on_level(b, np.abs(want[:, a - 1:b]).max(axis=1)), rtol=rtol, atol=0)
            tau = lift(ens, 1, horizon, lambda m, s_m: s_m / scale[m - 1])
            np.testing.assert_allclose(tau, want.max(axis=1), rtol=rtol, atol=0)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_level_norms_match_full_space(self, law):
        horizon, increments, probs = LAWS[law]
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        ps = np.array([1.0, 1.5, 3.0, 11.0])
        for (weights, s_n), full in zip(ens.levels, ens.s_values.T):
            assert math.isclose(weights.sum(), 1.0, rel_tol=1e-13)
            got = lp_norm(SimpleFunction(DiscreteMeasureSpace(weights), s_n), ps)
            want = lp_norm(SimpleFunction(ens.space, full), ps)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_doob_on_levels_matches_full_space(self, law):
        horizon, increments, probs = LAWS[law]
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        s = ens.s_values
        for p in (1.25, 2.0, 4.0):
            for n in range(1, horizon + 1):
                rep = doob_check(ens, p, n)
                lhs = lp_norm(SimpleFunction(ens.space, np.abs(s[:, :n]).max(axis=1)), p)
                member = max(lp_norm(SimpleFunction(ens.space, s[:, k]), p) for k in range(n))
                assert rep.max_norm == pytest.approx(lhs, rel=1e-13, abs=0)
                assert rep.member_norm_max == pytest.approx(member, rel=1e-13, abs=0)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_block_check_on_levels_matches_full_space(self, law):
        # the full-space chain: every norm over all paths
        horizon, increments, probs = LAWS[law]
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        psi, v = power(0.5), norming_identity()
        rep = martingale_block_check(ens, psi, v, GRID)
        pts, psi_vals = GRID.points, psi.eval(GRID.points)
        norms = np.stack([lp_norm(SimpleFunction(ens.space, s_n), pts) for s_n in ens.s_values.T])
        kappa = float(np.max(norms / ens.sigma[:, None] / psi_vals[None, :]))
        assert rep.kappa_psi == pytest.approx(kappa, rel=1e-13, abs=0)
        scaled = np.abs(ens.s_values) / (ens.sigma * v(np.arange(1.0, horizon + 1)))[None, :]
        for blk in rep.blocks:
            a, b = blk.a, blk.b
            tau_k = lp_norm(SimpleFunction(ens.space, scaled[:, a - 1:b].max(axis=1)), pts)
            rhs = (pts / (pts - 1.0)) * norms[b - 1] / (v(a) * ens.sigma[a - 1])
            assert blk.doob_margin == pytest.approx(float(np.min(rhs - tau_k)),
                                                    abs=1e-13 * float(rhs.max()))
            moment = kappa * psi_vals * ens.sigma[b - 1] - norms[b - 1]
            assert blk.moment_margin == pytest.approx(float(np.min(moment)),
                                                      abs=1e-13 * kappa * float(psi_vals.max()))

    def test_last_level_is_the_full_space(self):
        ens = build_walk_ensemble(5, increments=[-1.0, 0.0, 1.0])
        weights, s = ens.levels[-1]
        assert weights is ens.space.weights
        assert np.array_equal(s, ens.s_values[:, -1])

    @pytest.mark.parametrize("n", [0, -1, 7])
    def test_n_outside_horizon_rejected(self, n):
        ens = build_walk_ensemble(6)
        with pytest.raises(DomainError, match=rf"^n={n} outside 1\.\.6$"):
            doob_check(ens, 2.0, n)


class TestWork:
    """|S_k|_p is taken once per walk and exponent set, on F_k's atoms."""

    @pytest.fixture
    def cells(self, monkeypatch):
        # one entry per kernel call of the martingale layer: its cell count
        calls = []
        kernel = martingale.lp_norm_matrix

        def counted(values, weights, ps):
            calls.append(values.shape[0] * weights.size * ps.size)
            return kernel(values, weights, ps)

        monkeypatch.setattr(martingale, "lp_norm_matrix", counted)
        return calls

    def test_doob_sweep_takes_each_level_twice(self, cells):
        # the running max on level n and the member S_n on level n, once
        # each: 2 sum_n 2^n cells, where all n members on level n took
        # sum_n (n + 1) 2^n
        ens = build_walk_ensemble(12)
        for n in range(1, 13):
            doob_check(ens, 2.0, n)
        assert sum(cells) <= 3 * sum(2 ** n for n in range(1, 13))

    def test_second_block_check_reuses_kappa_table(self, cells):
        ens = build_walk_ensemble(12)
        martingale_block_check(ens, constant(), norming_identity(), GRID)
        first = len(cells)
        martingale_block_check(ens, constant(), norming_log_loglog(1.0), GRID)
        assert len(cells) - first == first - ens.horizon


class TestSummability:
    def test_identity_summable(self):
        rep = summability_check(norming_identity())
        assert rep.summable and rep.tail_fraction < 1e-6

    def test_log_flagged_nonsummable(self):
        rep = summability_check(norming_log())
        assert not rep.summable

    def test_bertrand_summable(self):
        rep = summability_check(norming_log_loglog(1.0))
        assert rep.summable


class TestBlockChain:
    def test_identity_norming(self):
        ens = build_walk_ensemble(12)
        rep = martingale_block_check(ens, constant(), norming_identity(), GRID)
        assert rep.all_blocks_pass
        assert rep.ratio <= 1.0 + 1e-9
        assert rep.condition.summable
        assert rep.passed

    def test_bertrand_norming_finite_ratio(self):
        ens = build_walk_ensemble(12)
        rep = martingale_block_check(ens, constant(), norming_log_loglog(1.0), GRID)
        assert rep.all_blocks_pass and math.isfinite(rep.ratio)
        assert rep.ratio <= 1.0 + 1e-9

    def test_single_block_horizon(self):
        ens = build_walk_ensemble(1)
        rep = martingale_block_check(ens, constant(), norming_identity(), GRID)
        assert len(rep.blocks) == 1
        b = rep.blocks[0]
        assert (b.a, b.b) == (1, 1)
        assert rep.all_blocks_pass

    def test_power_psi_blocks_hold(self):
        ens = build_walk_ensemble(10)
        rep = martingale_block_check(ens, power(0.5), norming_identity(), GRID)
        assert rep.all_blocks_pass and rep.ratio <= 1.0 + 1e-9

    def test_tau_norm_is_the_full_table_max(self):
        # tau's grid-only G(psi_1) norm equals the max of its full table
        ens = build_walk_ensemble(12)
        psi, pts = power(0.5), GRID.points
        for v in (norming_identity(), norming_log_loglog(1.0)):
            rep = martingale_block_check(ens, psi, v, GRID)
            tau = np.max(ens.s_values / (ens.sigma * v(np.arange(1.0, 13.0)))[None, :], axis=1)
            full = lp_norm_matrix(tau[None, :], ens.space.weights, pts)[0] / psi_doob(psi).eval(pts)
            assert rep.tau_norm == full.max()

    def test_rhs_is_kappa_times_the_block_factors(self):
        ens = build_walk_ensemble(12)
        for v in (norming_identity(), norming_log_loglog(1.0)):
            rep = martingale_block_check(ens, constant(), v, GRID)
            assert len(rep.blocks) == 4
            assert rep.rhs == rep.kappa_psi * sum(b.factor for b in rep.blocks)

    def test_block_margins_reported(self):
        ens = build_walk_ensemble(8)
        rep = martingale_block_check(ens, constant(), norming_identity(), GRID)
        for b in rep.blocks:
            assert b.doob_margin >= -1e-12
            assert b.moment_margin >= -1e-12
            assert b.factor > 0
