import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgl import chaining
from bgl.chaining import (
    abs_sup,
    chained_product_bound,
    chained_product_bounds,
    entropy_sum_bound,
    exp_orlicz_bound,
    generalized_pisier_bound,
    mri_chaining_bound,
    pisier_bound,
    polynomial_entropy_check,
    series_S_beta,
)
from bgl.entropy import covering_profile, family_semimetric
from bgl.errors import DomainError, ModelMismatchError
from bgl.fixtures import disjoint_indicator_family, make_rng, random_nonneg_family
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, SimpleFunction
from bgl.norms import (
    MriNormSpec,
    bgl_norm,
    fundamental_function,
    lp_norm,
    lp_norm_matrix,
    natural_psi,
)
from bgl.psi import PGrid, constant, doob_factor, power, product_psi
from test_entropy import adversarial_family


GRID = PGrid.log_spaced(1.05, 50, 64)

# two members 20 apart in L_1: the first radius must be 20, not 1
WIDE_PAIR = FunctionFamily(DiscreteMeasureSpace(np.ones(3)),
                           np.array([[0.0, 0.0, -10.0], [0.0, -10.0, 0.0]]))


class TestPisier:
    def test_disjoint_indicators_attain_equality(self):
        fam = disjoint_indicator_family(8)
        for p in [1.5, 2.0, 4.0]:
            r = pisier_bound(fam, p)
            assert r.bound == pytest.approx(r.exact, rel=1e-10)
            assert r.bound == pytest.approx(8.0 ** (1.0 / p), rel=1e-12)

    def test_identical_copies_slack(self):
        rng = make_rng(22)
        space = DiscreteMeasureSpace(np.full(16, 1.0 / 16))
        f = SimpleFunction(space, rng.uniform(0.1, 1.0, 16))
        fam = FunctionFamily(space, np.tile(f.values, (4, 1)))
        r = pisier_bound(fam, 2.0)
        assert r.exact == pytest.approx(lp_norm(f, 2.0), rel=1e-12)
        assert r.bound == pytest.approx(lp_norm(f, 2.0) * 2.0, rel=1e-12)

    def test_domination_on_random_families(self):
        rng = make_rng(23)
        for _ in range(50):
            fam = random_nonneg_family(rng, int(rng.integers(2, 16)), 32)
            for p in [1.5, 2.0, 4.0]:
                r = pisier_bound(fam, p)
                assert r.bound >= r.exact * (1.0 - 1e-12)

    def test_p_below_one(self):
        with pytest.raises(DomainError):
            pisier_bound(disjoint_indicator_family(2), 0.5)


class TestLpSignedSide:
    """pisier_bound and entropy_sum_bound read the member and abs-sup L_p
    norms from one kernel call of m + 1 rows, whatever the family's signs."""

    @staticmethod
    def count_kernel(monkeypatch):
        import bgl.chaining

        calls = []
        real = bgl.chaining.lp_norm_matrix

        def counted(values, weights, ps):
            calls.append(np.shape(values))
            return real(values, weights, ps)

        monkeypatch.setattr(bgl.chaining, "lp_norm_matrix", counted)
        return calls

    @staticmethod
    def sides(bound, fam, p):
        if bound == "pisier":
            rep = pisier_bound(fam, p)
            return rep.exact, rep.max_member_norm
        rep = entropy_sum_bound(fam, p, 0.5)
        return rep.exact_sup_norm, rep.anchor

    @pytest.mark.parametrize("bound", ["pisier", "entropy_sum"])
    def test_nonnegative_family_one_norm(self, monkeypatch, bound):
        fam = random_nonneg_family(make_rng(17), 9, 40)
        calls = self.count_kernel(monkeypatch)
        for p in (1.0, 2.5, 9.0):
            calls.clear()
            exact, member = self.sides(bound, fam, p)
            assert calls == [(fam.m + 1, 40)]
            assert exact == lp_norm(SimpleFunction(fam.space, fam.values.max(axis=0)), p)
            assert member == max(lp_norm(f, p) for f in fam.members)

    @pytest.mark.parametrize("bound", ["pisier", "entropy_sum"])
    def test_signed_family_two_norms(self, monkeypatch, bound):
        base = random_nonneg_family(make_rng(18), 9, 40)
        fam = FunctionFamily(base.space, base.values - 0.6)
        calls = self.count_kernel(monkeypatch)
        for p in (1.0, 2.5, 9.0):
            calls.clear()
            exact, member = self.sides(bound, fam, p)
            assert calls == [(fam.m + 1, 40)]
            assert exact == lp_norm(abs_sup(fam), p)
            assert exact != lp_norm(SimpleFunction(fam.space, fam.values.max(axis=0)), p)
            assert member == max(lp_norm(f, p) for f in fam.members)


class TestGeneralizedPisier:
    def test_single_member(self):
        fam = disjoint_indicator_family(1)
        r = generalized_pisier_bound(fam, constant(), constant(), GRID)
        member = bgl_norm(fam.members[0], constant(), GRID).value
        assert r.bound == pytest.approx(member * r.fundamental_value, rel=1e-12)
        assert r.exact <= r.bound + 1e-12

    def test_disjoint_indicators(self):
        fam = disjoint_indicator_family(6)
        r = generalized_pisier_bound(fam, constant(), constant(), GRID)
        # phi(G(1), 6) on the grid sits at the low-p edge
        assert r.fundamental_value == pytest.approx(6.0 ** (1.0 / GRID.points[0]), rel=1e-9)
        assert r.exact <= r.bound + 1e-12

    def test_domination_random(self):
        rng = make_rng(24)
        psis = [(constant(), constant()), (power(1.0), doob_factor())]
        for _ in range(20):
            fam = random_nonneg_family(rng, int(rng.integers(2, 12)), 32)
            psis_all = psis + [(natural_psi(fam, GRID), power(1.0))]
            for psi, nu in psis_all:
                r = generalized_pisier_bound(fam, psi, nu, GRID)
                assert r.bound >= r.exact * (1.0 - 1e-8), (psi.label, nu.label)


class TestEntropySumBound:
    def test_single_member_closed_form(self):
        fam = disjoint_indicator_family(1)
        theta = 0.5
        rep = entropy_sum_bound(fam, 2.0, theta)
        assert rep.anchor == pytest.approx(1.0, rel=1e-12)
        assert rep.bound_value == pytest.approx(rep.anchor + 1.0 / (1.0 - theta), rel=1e-12)
        assert rep.dominates

    def test_two_point_family_hand_sum(self):
        # two members at L_p distance exactly 1: one level with N = 2
        space = DiscreteMeasureSpace(np.ones(2))
        f = SimpleFunction(space, np.array([2.0 ** -0.5, 0.0]))
        g = SimpleFunction(space, np.array([0.0, 2.0 ** -0.5]))
        fam = FunctionFamily(space, np.stack([f.values, g.values]))
        assert lp_norm(SimpleFunction(space, f.values - g.values), 2.0) \
            == pytest.approx(1.0, rel=1e-14)
        theta = 0.5
        rep = entropy_sum_bound(fam, 2.0, theta)
        anchor = 2.0 ** -0.5
        hand = anchor + 2.0 ** 0.5 + theta * 2.0 ** 0.5 / (1.0 - theta)
        assert rep.bound_value == pytest.approx(hand, rel=1e-12)
        assert rep.dominates

    def test_diameter_above_one_hand_sum(self):
        # eps_0 = 20 and one level holds both balls, so the bound is
        # anchor 10 + 20 * 2 + tail 20 * 0.3 / 0.7 * 2
        rep = entropy_sum_bound(WIDE_PAIR, 1.0, 0.3)
        assert rep.exact_sup_norm == 20.0 and rep.anchor == 10.0
        assert rep.per_level_terms == ((1, 40.0),)
        assert rep.bound_value == pytest.approx(50.0 + 20.0 * 0.3 / 0.7 * 2.0, rel=1e-15)
        assert rep.dominates

    def test_domination_random(self):
        rng = make_rng(25)
        for _ in range(10):
            fam = random_nonneg_family(rng, 16, 32)
            for theta in [0.3, 0.5, 0.7]:
                rep = entropy_sum_bound(fam, 2.0, theta)
                assert rep.dominates, theta

    def test_unsaturated_tail_uses_family_size(self):
        # k_max = 1 stops at one ball, short of the 16 distinct members, so
        # the tail counts every member: theta/(1-theta) * 16^{1/2}
        fam = random_nonneg_family(make_rng(5), 16, 32)
        rep = entropy_sum_bound(fam, 2.0, 0.5, k_max=1)
        assert not rep.saturated and rep.truncation_k == 1
        assert covering_profile(family_semimetric(fam, p=2.0), 0.5, 1).levels[-1].n_balls < 16
        assert rep.tail_estimate == pytest.approx(0.5 / 0.5 * 16.0 ** 0.5, rel=1e-12)


@pytest.mark.parametrize("c", [100.0, 1e6])
def test_chaining_dominates_beyond_unit_diameter(c):
    # the radii start at eps_0 = max(1, diam), so scaling a family scales
    # its bounds and they keep dominating
    base = random_nonneg_family(make_rng(5), 8, 32)
    fam = FunctionFamily(base.space, base.values * c)
    reps = [entropy_sum_bound(fam, p, theta) for p in (1.0, 2.0, 4.0)
            for theta in (0.3, 0.5, 0.7)]
    for psi, nu in [(constant(), constant()), (power(1.0), doob_factor()),
                    (natural_psi(fam, GRID), power(1.0))]:
        reps += chained_product_bounds(fam, psi, nu, GRID, (0.3, 0.5, 0.7))
    assert [r for r in reps if not r.dominates] == []


def _unless_rejected(bound):
    """bound(), or None when the semi-metric rejects the family: at 1e300 a
    tight triangle or d <= 2 sigma can round past its relative slack (see
    test_pruning_is_exact_on_adversarial_families)."""
    try:
        return bound()
    except DomainError as exc:
        assert "triangle" in str(exc) or "2*sigma" in str(exc), exc
        return None


def _adversarial_psi(fam, name, grid):
    if name == "natural" and fam.values.any():
        return natural_psi(fam, grid)
    return power(1.0) if name == "power" else constant()


@settings(max_examples=60, deadline=None)
@given(adversarial_family(), st.sampled_from([1.0, 2.5, 9.0]),
       st.sampled_from(["natural", "constant", "power"]))
def test_finite_bounds_dominate_on_adversarial_families(fam, p, psi_name):
    r = pisier_bound(fam, p)
    assert r.bound >= r.exact * (1.0 - 1e-12)
    grid = PGrid.log_spaced(1.05, 200.0, 40)
    psi = _adversarial_psi(fam, psi_name, grid)
    for nu in (constant(), power(1.0)):
        r = generalized_pisier_bound(fam, psi, nu, grid)
        assert r.bound >= r.exact * (1.0 - 1e-8), nu.label


@settings(max_examples=60, deadline=None)
@given(adversarial_family(), st.sampled_from([1.0, 2.5, 9.0]),
       st.sampled_from(["natural", "constant", "power"]))
@example(WIDE_PAIR, 1.0, "constant")
def test_chaining_bounds_dominate_on_adversarial_families(fam, p, psi_name):
    thetas = (0.3, 0.5, 0.7)
    reps = [_unless_rejected(lambda: entropy_sum_bound(fam, p, theta)) for theta in thetas]
    grid = PGrid.log_spaced(1.05, 200.0, 40)
    psi = _adversarial_psi(fam, psi_name, grid)
    for nu in (constant(), power(1.0)):
        reps += _unless_rejected(lambda: chained_product_bounds(fam, psi, nu, grid, thetas)) or ()
    assert [r for r in reps if r is not None and not r.dominates] == []


class TestThetaSweeps:
    """The theta sweeps share their theta-invariant work and must give the
    reports the per-theta calls give."""

    THETAS = (0.2, 0.3, 0.5, 0.7, 0.9)

    @pytest.mark.parametrize("natural", [True, False], ids=["natural", "power1"])
    def test_chained_product_bounds_equal_per_theta_calls(self, natural):
        rng = make_rng(30)
        for m in [1, 5, 12]:
            fam = random_nonneg_family(rng, m, 32)
            psi = natural_psi(fam, GRID) if natural else power(1.0)
            for nu in [constant(), power(1.0)]:
                swept = chained_product_bounds(fam, psi, nu, GRID, self.THETAS)
                single = tuple(chained_product_bound(fam, psi, nu, GRID, theta)
                               for theta in self.THETAS)
                assert swept == single

    def test_chained_product_bounds_builds_one_metric(self, monkeypatch):
        fam = random_nonneg_family(make_rng(31), 10, 32)
        psi0 = natural_psi(fam, GRID)
        calls = []
        real = chaining.family_semimetric

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(chaining, "family_semimetric", counted)
        reps = chained_product_bounds(fam, psi0, power(1.0), GRID, self.THETAS)
        assert len(calls) == 1 and len(reps) == len(self.THETAS)


class TestChainedProductBound:
    def test_single_member_closed_form(self):
        fam = disjoint_indicator_family(1)
        theta = 0.5
        rep = chained_product_bound(fam, constant(), constant(), GRID, theta)
        # phi(G(1), 1) = 1 at every level, so the sum collapses to 1/(1-theta)
        assert rep.bound_value == pytest.approx(rep.anchor + 1.0 / (1.0 - theta), rel=1e-9)
        assert rep.dominates

    def test_disjoint_indicators(self):
        fam = disjoint_indicator_family(6)
        rep = chained_product_bound(fam, constant(), constant(), GRID, 0.5)
        assert rep.dominates

    def test_domination_with_natural_psi(self):
        rng = make_rng(28)
        for _ in range(6):
            fam = random_nonneg_family(rng, 12, 32)
            psi0 = natural_psi(fam, GRID)
            for theta in [0.3, 0.5, 0.7]:
                rep = chained_product_bound(fam, psi0, power(1.0), GRID, theta)
                assert rep.dominates, theta

    def test_report_resummable(self):
        rng = make_rng(29)
        fam = random_nonneg_family(rng, 8, 32)
        rep = chained_product_bound(fam, constant(), power(1.0), GRID, 0.5)
        resum = rep.anchor + sum(t for _, t in rep.per_level_terms) + rep.tail_estimate
        assert rep.bound_value == pytest.approx(resum, rel=1e-15)

    def test_unsaturated_tail_uses_family_size(self):
        # phi(G(1), 16) is attained at the grid's smallest p, whatever the
        # extra point the exact side contributes
        fam = random_nonneg_family(make_rng(5), 16, 32)
        rep = chained_product_bounds(fam, power(1.0), constant(), GRID, (0.5,), k_max=1)[0]
        assert not rep.saturated and rep.truncation_k == 1
        metric = family_semimetric(fam, psi=power(1.0), grid=GRID)
        assert covering_profile(metric, 0.5, 1).levels[-1].n_balls < 16
        phi_m = fundamental_function(constant(), 16.0, GRID)
        assert phi_m == pytest.approx(16.0 ** (1.0 / GRID.points[0]), rel=1e-12)
        assert rep.tail_estimate == pytest.approx(0.5 / 0.5 * phi_m, rel=1e-12)


class TestMemberMaxPruning:
    """The generalized Pisier member side and the chained anchor take their
    max through grid_sups; the reports equal those from the full table."""

    @pytest.mark.parametrize("seed, m, atoms", [(71, 2, 48), (72, 12, 48), (73, 8, 256)])
    def test_reports_equal_full_table(self, seed, m, atoms, monkeypatch):
        fam = random_nonneg_family(make_rng(seed), m, atoms)
        cases = [(natural_psi(fam, GRID), power(1.0)), (power(0.5), doob_factor()),
                 (constant(), constant())]

        def reports():
            return [(generalized_pisier_bound(fam, psi, nu, GRID),
                     chained_product_bounds(fam, psi, nu, GRID, (0.3, 0.5, 0.7)))
                    for psi, nu in cases]

        got = reports()
        monkeypatch.setattr(chaining, "grid_sups", lambda blocks, w, pts, scale: [
            (lp_norm_matrix(rows, w, pts) / scale).max(axis=1) for rows in blocks])
        assert got == reports()


class TestPolynomialEntropy:
    @staticmethod
    def lipschitz_family(n_index=24, n_atoms=48):
        """Members Y_t(x) = 1 - |t - u(x)| on an index grid: d_p(t, s) ~ |t - s|."""
        space = DiscreteMeasureSpace(np.full(n_atoms, 1.0 / n_atoms))
        u = np.linspace(0.0, 1.0, n_atoms)
        ts = np.linspace(0.0, 1.0, n_index)
        rows = [1.0 - np.abs(t - u) for t in ts]
        return FunctionFamily(space, np.stack(rows))

    def test_lipschitz_index_spread_bounded(self):
        fam = self.lipschitz_family()
        psi = constant()
        metric = family_semimetric(fam, psi=psi, grid=GRID)
        profile = covering_profile(metric, 0.5, 16)
        p_grid = np.geomspace(2.0, 20.0, 8)
        rep = polynomial_entropy_check(fam, psi, 1.0, profile, p_grid, theta=0.5)
        assert rep.passed and rep.spread < 50.0

    def test_small_kappa_still_bounded(self):
        fam = self.lipschitz_family()
        psi = constant()
        metric = family_semimetric(fam, psi=psi, grid=GRID)
        profile = covering_profile(metric, 0.5, 16)
        p_grid = np.geomspace(5.0, 40.0, 6)
        rep = polynomial_entropy_check(fam, psi, 0.05, profile, p_grid, theta=0.5)
        assert rep.passed

    def test_single_member_constant_ratio(self):
        fam = disjoint_indicator_family(1)
        psi = constant()
        metric = family_semimetric(fam, psi=psi, grid=GRID)
        profile = covering_profile(metric, 0.5, 8)
        p_grid = np.geomspace(2.0, 20.0, 6)
        rep = polynomial_entropy_check(fam, psi, 0.01, profile, p_grid, theta=0.5)
        assert rep.passed and rep.c_fit == 1.0

    def test_model_mismatch_raises(self):
        fam = self.lipschitz_family()
        psi = constant()
        metric = family_semimetric(fam, psi=psi, grid=GRID)
        profile = covering_profile(metric, 0.5, 16)
        with pytest.raises(ModelMismatchError):
            polynomial_entropy_check(fam, psi, 6.0, profile,
                                     np.geomspace(8.0, 30.0, 4), theta=0.5)


class TestSeries:
    def test_geometric_closed_form(self):
        for q in [0.5, 0.7, 0.9, 0.99]:
            case = series_S_beta(q, 0.0)
            assert case.s_value == pytest.approx(q / (1.0 - q), rel=1e-12)
            assert case.constant_used <= 1.0 + 1e-12

    def test_derivative_closed_form(self):
        for q in [0.5, 0.7, 0.9, 0.99]:
            case = series_S_beta(q, 1.0)
            assert case.s_value == pytest.approx(q / (1.0 - q) ** 2, rel=1e-12)

    def test_polylog_oracle(self):
        # independent oracle: S_beta(q) = Li_{-beta}(q)
        for beta in [-2.0, -0.5, 0.5, 2.0]:
            for q in [0.5, 0.9]:
                oracle = float(mpmath.polylog(-beta, q))
                assert series_S_beta(q, beta).s_value == pytest.approx(oracle, rel=1e-10)

    def test_dilogarithm_value(self):
        case = series_S_beta(0.5, -2.0)
        assert case.s_value == pytest.approx(0.582240526465012, abs=1e-11)

    def test_log_case_is_exact(self):
        for q in [0.5, 0.7, 0.9]:
            case = series_S_beta(q, -1.0)
            assert case.constant_used == pytest.approx(1.0, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            series_S_beta(0.4, 0.0)
        with pytest.raises(DomainError):
            series_S_beta(1.0, 0.0)


class TestExpOrlicz:
    def test_single_member_degenerate(self):
        fam = disjoint_indicator_family(1)
        rep = exp_orlicz_bound(fam, 1.0, 0.5, 1.0, 0.5)
        assert rep.degenerate_entropy and rep.bound == 0.0

    def test_two_member_hand_sum(self):
        space = DiscreteMeasureSpace(np.ones(2))
        fam = FunctionFamily(space, np.eye(2))
        theta, b1, b2 = 0.5, 0.5, 1.5
        rep = exp_orlicz_bound(fam, 1.0, b1, b2, theta)
        # diameter-anchored levels give N = 2 at level 1, then saturation:
        # sum = (log 2)^{b2-b1} / (1 - theta)
        hand = rep.max_member_norm * math.log(2.0) ** (b2 - b1) / (1.0 - theta)
        assert rep.bound == pytest.approx(hand, rel=1e-12)

    def test_slack_invariant_under_scaling(self):
        rng = make_rng(30)
        fam = random_nonneg_family(rng, 16, 32)
        rep1 = exp_orlicz_bound(fam, 1.0, 0.5, 1.5, 0.5)
        rep10 = exp_orlicz_bound(FunctionFamily(fam.space, fam.values * 10.0),
                                 1.0, 0.5, 1.5, 0.5)
        assert rep10.slack_ratio == pytest.approx(rep1.slack_ratio, rel=1e-9)

    def test_unsaturated_tail_uses_family_size(self):
        # one level of 15 balls for 16 distinct members: the tail takes
        # log(16)^gamma, not log(15)^gamma
        fam = random_nonneg_family(make_rng(5), 16, 32)
        b1, b2 = 0.5, 1.5
        rep = exp_orlicz_bound(fam, 1.0, b1, b2, 0.5, k_max=1)
        assert rep.truncation_k == 1
        assert rep.per_level_terms[-1][1] < math.log(16.0) ** (b2 - b1)
        assert rep.tail_estimate == pytest.approx(0.5 / 0.5 * math.log(16.0) ** (b2 - b1),
                                                  rel=1e-12)

    def test_bad_exponent_order(self):
        with pytest.raises(DomainError):
            exp_orlicz_bound(disjoint_indicator_family(2), 1.0, 1.5, 0.5, 0.5)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, float("nan")])
    def test_theta_outside_unit_interval_rejected(self, theta):
        fam = disjoint_indicator_family(2)
        with pytest.raises(DomainError, match=r"^theta must lie in \(0, 1\)$"):
            exp_orlicz_bound(fam, 1.0, 0.5, 1.5, theta)
        with pytest.raises(DomainError, match=r"^theta must lie in \(0, 1\)$"):
            covering_profile(family_semimetric(fam, p=2.0), theta, 8)


class TestMriChaining:
    def test_single_node_reduces_to_entropy_sum(self):
        rng = make_rng(31)
        fam = random_nonneg_family(rng, 8, 32)
        spec = MriNormSpec(kind="quadrature", q=1.0, alpha=0.0,
                           nodes=np.array([2.0]), weights=np.array([1.0]))
        rep = mri_chaining_bound(fam, spec, 0.5)
        assert rep.bound == pytest.approx(
            entropy_sum_bound(fam, 2.0, 0.5).bound_value, rel=1e-12)
        assert rep.passed

    def test_sup_kind_domination(self):
        rng = make_rng(32)
        fam = random_nonneg_family(rng, 8, 32)
        grid = PGrid.log_spaced(1.5, 20, 12)
        spec = MriNormSpec(kind="sup", psi=constant(), grid=grid)
        rep = mri_chaining_bound(fam, spec, 0.5)
        assert rep.passed

    def test_weighted_quadrature_domination(self):
        rng = make_rng(33)
        fam = random_nonneg_family(rng, 10, 32)
        nodes = np.geomspace(1.5, 16.0, 8)
        spec = MriNormSpec(kind="quadrature", q=2.0, alpha=1.0,
                           nodes=nodes, weights=np.ones(8))
        rep = mri_chaining_bound(fam, spec, 0.5)
        assert rep.passed


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.sampled_from([1.5, 2.0, 4.0, 8.0]),
       st.floats(0.05, 50.0))
def test_pisier_slack_scale_invariant(seed, p, c):
    rng = make_rng(seed)
    fam = random_nonneg_family(rng, 6, 16)
    base = pisier_bound(fam, p)
    scaled = pisier_bound(FunctionFamily(fam.space, fam.values * c), p)
    assert scaled.bound == pytest.approx(c * base.bound, rel=1e-9)
    assert scaled.slack_ratio == pytest.approx(base.slack_ratio, rel=1e-9)
