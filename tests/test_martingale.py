import math

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
from bgl.norms import lp_norm
from bgl.psi import PGrid, constant, power

GRID = PGrid.log_spaced(1.1, 50, 48)


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

    def test_monte_carlo_flag(self):
        ens = build_walk_ensemble(25, monte_carlo=True, n_paths=500)
        assert not ens.exhaustive and ens.space.n_atoms == 500


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

    def test_monte_carlo_rejected(self):
        ens = build_walk_ensemble(25, monte_carlo=True, n_paths=200)
        with pytest.raises(PreconditionError):
            martingale_block_check(ens, constant(), norming_identity(), GRID)
