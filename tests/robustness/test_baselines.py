"""Tests for the NAT and SEER baseline strategies."""

import pytest

from repro.robustness import NativeOptimizerStrategy, SeerStrategy


@pytest.fixture(scope="module")
def nat(eq_diagram):
    return NativeOptimizerStrategy(eq_diagram)


@pytest.fixture(scope="module")
def seer(eq_diagram):
    return SeerStrategy(eq_diagram, lambda_=0.2)


def suboptimality(nat, qe, qa):
    """SubOpt(qe, qa), Equation 1: the plan optimal at ``qe`` run at
    ``qa``, over the optimal cost at ``qa``."""
    return nat.cost(qe, qa) / nat.diagram.cost_at(qa)


class TestNat:
    def test_correct_estimate_is_optimal(self, nat, eq_diagram):
        for loc in [(0,), (30,), (63,)]:
            assert suboptimality(nat, loc, loc) == pytest.approx(1.0)

    def test_wrong_estimate_suboptimal(self, nat, eq_diagram):
        sub = suboptimality(nat, (0,), (63,))
        assert sub >= 1.0
        # The other direction (estimating high, actual low) is the killer.
        sub_reverse = suboptimality(nat, (63,), (0,))
        assert max(sub, sub_reverse) > 2.0

    def test_mso_consistent_with_pairwise(self, nat):
        """MSO computed from cost fields equals the max over explicit
        (qe, qa) pairs on a subsample."""
        best = 1.0
        for qe in [(0,), (20,), (40,), (63,)]:
            for qa in [(0,), (20,), (40,), (63,)]:
                best = max(best, suboptimality(nat, qe, qa))
        assert nat.mso() >= best - 1e-9

    def test_subopt_worst_is_pointwise_max(self, nat, eq_diagram):
        worst = nat.subopt_worst()
        assert worst.shape == eq_diagram.space.shape
        assert (worst >= 1.0 - 1e-9).all()

    def test_aso_at_least_one(self, nat):
        assert nat.aso() >= 1.0

    def test_plan_cardinality_is_posp(self, nat, eq_diagram):
        assert nat.plan_cardinality == len(eq_diagram.posp_plan_ids)


class TestSeer:
    def test_replacement_global_safety(self, seer, eq_diagram):
        """A SEER replacement must stay within (1+λ) of the replaced plan
        at EVERY grid location — the defining property."""
        cache = eq_diagram.cache
        for victim, chosen in seer.replacement.items():
            if victim == chosen:
                continue
            victim_costs = cache.cost_array(victim)
            chosen_costs = cache.cost_array(chosen)
            assert (chosen_costs <= 1.2 * victim_costs + 1e-9).all()

    def test_cardinality_not_larger_than_nat(self, seer, nat):
        assert seer.plan_cardinality <= nat.plan_cardinality

    def test_seer_mso_close_to_nat(self, seer, nat):
        """The paper's observation: SEER does not materially improve MSO
        (§6.2) — replacements are safe wrt P_oe, not P_oa."""
        assert seer.mso() >= nat.mso() / 3

    def test_seer_harm_bounded_by_lambda(self, seer, nat, eq_diagram):
        """SEER's per-pair cost can exceed NAT's by at most λ."""
        for qe in [(0,), (25,), (50,)]:
            for qa in [(0,), (25,), (50,)]:
                assert seer.cost(qe, qa) <= 1.2 * nat.cost(qe, qa) + 1e-9

    def test_replacement_chains_collapsed(self, seer):
        for victim, chosen in seer.replacement.items():
            assert seer.replacement.get(chosen, chosen) == chosen
