"""One counters mechanism (:mod:`repro.metrics`).

Each solver owns one :class:`Counters`, and the parts that do its work
charge it directly, so no counter is ever copied from one object to
another.  The benchmark reads these objects from outside:
``perfbench/launcher.py`` takes ``vars()`` of every ``IncrementalSolver``'s
and ``HornSolver``'s ``statistics`` and the synthesis payload's
``statistics``, so those shapes are pinned here as well.
"""

from pathlib import Path

import pytest

from repro.horn import HornSolver, QualifierSpace, constraint
from repro.horn import solver as horn_solver
from repro.horn.musfix import MusFixSolver
from repro.logic import ops
from repro.logic.formulas import Unknown
from repro.logic.sorts import INT, set_of
from repro.metrics import Counters
from repro.service import api
from repro.smt.solver import IncrementalSolver
from repro.syntax.parser import parse_program
from repro.synth.synthesizer import SYNTHESIS_COUNTERS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

x, y, z = (ops.var(name, INT) for name in "xyz")


class TestCounters:
    def test_counters_start_at_zero_in_declaration_order(self):
        counters = Counters("b", "a", "c")
        assert list(vars(counters)) == ["b", "a", "c"]
        assert counters.as_dict() == {"b": 0, "a": 0, "c": 0}

    def test_add_folds_every_or_only_the_named_counters(self):
        total, part = Counters("a", "b"), Counters("a", "b")
        part.a, part.b = 2, 3
        total.add(part)
        total.add(part, ("b",))
        assert total.as_dict() == {"a": 2, "b": 6}

    def test_equal_when_every_counter_is(self):
        first, second = Counters("a"), Counters("a")
        assert first == second
        second.a += 1
        assert first != second


class TestOneCounterSetPerSolver:
    def test_sat_core_and_bridge_simplex_charge_the_solvers_counters(self):
        solver = IncrementalSolver()
        assert not solver.check_assuming([ops.lt(x, y), ops.lt(y, z), ops.lt(z, x)])
        assert solver._sat.statistics is solver.statistics
        assert solver._bridge.theory.simplex.statistics is solver.statistics
        stats = solver.statistics
        assert stats.sat_queries == 1
        assert stats.theory_checks > 0 and stats.tableau_pivots > 0

    def test_mus_probes_charge_the_horn_solvers_counters(self, monkeypatch):
        made = []

        class Recording(MusFixSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(horn_solver, "MusFixSolver", Recording)
        # ``C`` must make ``x in t`` follow from ``s == t``; the second
        # context refutes the guard ``!(x in t)`` on its own: one MUS.
        s, t = ops.var("s", set_of(INT)), ops.var("t", set_of(INT))
        x_in_s, x_in_t = ops.member(x, s), ops.member(x, t)
        constraints = [
            constraint([Unknown("C"), ops.eq(s, t)], x_in_t, "declared"),
            constraint([Unknown("C"), ops.eq(s, t), x_in_s], x_in_t, "guarded"),
        ]
        space = QualifierSpace("C", (x_in_t, x_in_s, ops.not_(x_in_t)), abducible=True)
        solver = HornSolver()
        assert solver.solve(constraints, [space]).solved
        assert made and all(probes.statistics is solver.statistics for probes in made)
        assert solver.statistics.muses_enumerated == 1


class TestWhatTheBenchmarkReads:
    @pytest.mark.parametrize(
        "owner, mapped",
        [
            (
                IncrementalSolver,
                (
                    "sat_queries",
                    "encoded_assertions",
                    "reused_assertions",
                    "conflicts",
                    "tableau_pivots",
                ),
            ),
            (HornSolver, ("candidates_explored", "candidates_pruned", "muses_enumerated")),
        ],
    )
    def test_solver_statistics_are_int_counters_with_the_mapped_names(self, owner, mapped):
        """``perfbench/run.py`` turns these counters into per-layer metrics."""
        counters = vars(owner().statistics)
        assert all(type(value) is int for value in counters.values())
        assert set(mapped) <= set(counters)

    def test_synth_payload_lists_the_synthesis_counters_in_order(self):
        assert SYNTHESIS_COUNTERS == (
            "generated",
            "pruned_early",
            "pruned_shape",
            "checked",
            "goal_checks",
            "abductions",
            "candidates_explored",
            "candidates_pruned",
            "muses_enumerated",
            "depth_reached",
        )
        program = parse_program((EXAMPLES / "sign.sq").read_text())
        payload = api.compute_synth(program, depth=1)
        assert payload["items"]
        for item in payload["items"]:
            assert list(item["statistics"]) == list(SYNTHESIS_COUNTERS)
