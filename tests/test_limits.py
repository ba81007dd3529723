"""Unit tests for the budget/deadline machinery (:mod:`repro.limits`).

The contract under test: a checkpoint with no installed scope is free
and silent; an installed budget trips on exactly the limit it bounds,
reports progress, and — once exhausted — keeps tripping; and scopes nest
so an inner (per-file) budget cannot outlive an outer (per-request) one.
"""

import time

import pytest

from repro import limits
from repro.limits import Budget, BudgetExhausted, budget_scope, checkpoint


class TestBudget:
    def test_from_timeout_ms_sets_a_monotonic_deadline(self):
        budget = Budget.from_timeout_ms(5_000)
        assert budget.deadline is not None
        left = budget.remaining_ms()
        assert 0 < left <= 5_000

    def test_no_timeout_means_no_deadline(self):
        budget = Budget.from_timeout_ms(None, max_terms=10)
        assert budget.deadline is None
        assert budget.remaining_ms() is None
        assert budget.max_terms == 10

    def test_expired_deadline_is_clamped_to_zero(self):
        budget = Budget(deadline=time.monotonic() - 1.0)
        assert budget.remaining_ms() == 0.0


class TestCheckpoint:
    def test_no_scope_is_a_no_op(self):
        checkpoint()
        checkpoint("sat_conflicts")  # counters without a scope go nowhere

    def test_none_budget_installs_nothing(self):
        with budget_scope(None) as scope:
            assert scope is None
            checkpoint("sat_conflicts")

    def test_step_limit_trips_past_the_bound(self):
        with budget_scope(Budget(max_terms=3)):
            for _ in range(3):
                checkpoint("enum_terms")
            with pytest.raises(BudgetExhausted) as caught:
                checkpoint("enum_terms")
        assert caught.value.limit == "enum_terms"
        assert caught.value.progress["enum_terms"] == 4

    def test_wall_clock_trips_after_the_deadline(self):
        with budget_scope(Budget(deadline=time.monotonic() - 0.001)):
            with pytest.raises(BudgetExhausted) as caught:
                checkpoint()
        assert caught.value.limit == "wall_clock"

    def test_unrelated_counters_do_not_trip(self):
        with budget_scope(Budget(max_conflicts=1)):
            for _ in range(5):
                checkpoint("enum_terms")

    def test_exhausted_scope_keeps_tripping(self):
        with budget_scope(Budget(max_terms=1)):
            checkpoint("enum_terms")
            for _ in range(3):
                with pytest.raises(BudgetExhausted):
                    checkpoint("enum_terms")

    def test_cancel_trips_the_next_checkpoint(self):
        with budget_scope(Budget()) as scope:
            checkpoint()
            scope.cancel()
            with pytest.raises(BudgetExhausted) as caught:
                checkpoint()
        assert caught.value.limit == "cancelled"

    def test_scope_is_popped_even_on_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            with budget_scope(Budget(max_terms=0)):
                checkpoint("enum_terms")
        checkpoint("enum_terms")  # no scope left behind


class TestNestedScopes:
    def test_inner_limit_trips_first(self):
        with budget_scope(Budget(max_terms=100)):
            with budget_scope(Budget(max_terms=2)):
                checkpoint("enum_terms")
                checkpoint("enum_terms")
                with pytest.raises(BudgetExhausted):
                    checkpoint("enum_terms")

    def test_outer_limit_binds_the_inner_scope(self):
        with budget_scope(Budget(max_terms=2)):
            with budget_scope(Budget(max_terms=100)):
                checkpoint("enum_terms")
                checkpoint("enum_terms")
                with pytest.raises(BudgetExhausted):
                    checkpoint("enum_terms")

    def test_remaining_ms_reports_the_tightest_deadline(self):
        assert limits.remaining_ms() is None
        with budget_scope(Budget.from_timeout_ms(60_000)):
            with budget_scope(Budget.from_timeout_ms(1_000)):
                left = limits.remaining_ms()
                assert left is not None and left <= 1_000
