import itertools
import math

import mpmath
import numpy as np
import pytest

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
from bgl.norms import lp_norm
from bgl.psi import PGrid, constant, power

GRID = PGrid.log_spaced(1.1, 50, 48)

# the non-default laws the level path is checked on: (horizon, increments, probs)
LAWS = {
    "biased": (7, [-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0]),
    "three_point": (5, [-1.0, 0.0, 1.0], None),
    "horizon_one": (1, [-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0]),
}


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

    def test_horizon_cap(self):
        with pytest.raises(SizeError):
            build_walk_ensemble(21)

    def test_horizon_cap_is_one_line_naming_the_limit(self):
        with pytest.raises(SizeError, match=r"^horizon 21 > 20: enumeration too large$"):
            build_walk_ensemble(21)

    @pytest.mark.parametrize("method", ["s_at", "running_abs_max", "level"])
    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_n_outside_horizon_rejected(self, method, n):
        ens = build_walk_ensemble(4)
        with pytest.raises(DomainError, match=rf"^n={n} outside 1\.\.4$"):
            getattr(ens, method)(n)


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

    def test_max_norm_monotone_in_n(self):
        ens = build_walk_ensemble(8)
        norms = [lp_norm(ens.running_abs_max(n), 3.0) for n in range(1, 9)]
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
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_level_norms_match_full_space(self, law):
        horizon, increments, probs = LAWS[law]
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        ps = np.array([1.0, 1.5, 3.0, 11.0])
        for n in range(1, horizon + 1):
            weights, s = ens.level(n)
            assert weights.size == s.shape[0] == ens.base ** n
            assert s.shape[1] == n
            assert math.isclose(weights.sum(), 1.0, rel_tol=1e-13)
            space = DiscreteMeasureSpace(weights)
            got = lp_norm(SimpleFunction(space, np.abs(s).max(axis=1)), ps)
            full = lp_norm(ens.running_abs_max(n), ps)
            np.testing.assert_allclose(got, full, rtol=1e-13, atol=0)
            for k in range(1, n + 1):
                got = lp_norm(SimpleFunction(space, s[:, k - 1]), ps)
                np.testing.assert_allclose(got, lp_norm(ens.s_at(k), ps), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_doob_on_levels_matches_full_space(self, law):
        horizon, increments, probs = LAWS[law]
        ens = build_walk_ensemble(horizon, increments=increments, probs=probs)
        for p in (1.25, 2.0, 4.0):
            for n in range(1, horizon + 1):
                rep = doob_check(ens, p, n)
                lhs = lp_norm(ens.running_abs_max(n), p)
                member = max(lp_norm(ens.s_at(k), p) for k in range(1, n + 1))
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
        norms = np.stack([lp_norm(ens.s_at(n), pts) for n in range(1, horizon + 1)])
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
        weights, s = ens.level(5)
        assert weights is ens.space.weights
        assert np.array_equal(s, ens.s_values)

    @pytest.mark.parametrize("n", [0, -1, 7])
    def test_n_outside_horizon_rejected(self, n):
        ens = build_walk_ensemble(6)
        with pytest.raises(DomainError):
            ens.level(n)
        with pytest.raises(DomainError):
            doob_check(ens, 2.0, n)


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

    def test_block_margins_reported(self):
        ens = build_walk_ensemble(8)
        rep = martingale_block_check(ens, constant(), norming_identity(), GRID)
        for b in rep.blocks:
            assert b.doob_margin >= -1e-12
            assert b.moment_margin >= -1e-12
            assert b.factor > 0
