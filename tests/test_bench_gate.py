"""Unit tests for the CI perf regression gate (scripts/check_bench_regression.py)."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def report(path: Path, **means) -> Path:
    payload = {
        "suite": "test",
        "benchmarks": [{"name": name, "mean_s": mean} for name, mean in means.items()],
    }
    path.write_text(json.dumps(payload))
    return path


class TestCompare:
    def test_within_threshold_passes(self):
        failures, ratios, skipped = gate.compare(
            {"a": 0.010, "b": 0.020}, {"a": 0.019, "b": 0.030}, 2.5, 0.002
        )
        assert failures == []
        assert {name for name, _ in ratios} == {"a", "b"}
        assert skipped == []

    def test_regression_fails_per_case(self):
        baseline = {"a": 0.010, "b": 0.010}
        failures, _, _ = gate.compare(baseline, {"a": 0.030, "b": 0.011}, 2.5, 0.002)
        assert len(failures) == 1
        assert failures[0].startswith("a ")
        assert "2.50x" in failures[0]

    def test_threshold_is_strict_greater(self):
        failures, _, _ = gate.compare({"a": 0.010}, {"a": 0.025}, 2.5, 0.002)
        assert failures == []

    def test_sub_noise_cases_are_exempt(self):
        """A 10x blowup between 50us and 500us is machine noise, not a
        solver regression."""
        failures, ratios, skipped = gate.compare({"a": 0.00005}, {"a": 0.0005}, 2.5, 0.002)
        assert failures == []
        assert ratios == []
        assert skipped and "sub-noise" in skipped[0]

    def test_one_sided_cases_are_reported_not_failed(self):
        failures, ratios, skipped = gate.compare({"old": 0.01}, {"new": 0.01}, 2.5, 0.002)
        assert failures == []
        assert ratios == []
        assert any("no baseline" in note for note in skipped)
        assert any("not measured" in note for note in skipped)


class TestCounterDrift:
    def test_tracked_counter_changes_are_reported(self):
        baseline = {"case": {"theory_propagations": 10, "tableau_pivots": 5}}
        candidate = {"case": {"theory_propagations": 12, "tableau_pivots": 5}}
        notes = gate.counter_drift(baseline, candidate)
        assert notes == ["case.theory_propagations 10->12"]

    def test_untracked_counters_are_ignored(self):
        notes = gate.counter_drift(
            {"case": {"sat_queries": 100}}, {"case": {"sat_queries": 999}}
        )
        assert notes == []

    def test_newly_appearing_tracked_counter_is_drift(self):
        """A counter present on only one side (e.g. a schema extension)
        reads as None on the other — visible, but still report-only."""
        notes = gate.counter_drift({"case": {}}, {"case": {"minimized_literals": 3}})
        assert notes == ["case.minimized_literals None->3"]

    def test_one_sided_cases_produce_no_drift(self):
        notes = gate.counter_drift(
            {"old": {"tableau_pivots": 1}}, {"new": {"tableau_pivots": 2}}
        )
        assert notes == []

    def test_drift_never_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        payload = lambda pivots: {  # noqa: E731
            "suite": "test",
            "benchmarks": [
                {"name": "case", "mean_s": 0.010, "counters": {"tableau_pivots": pivots}}
            ],
        }
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(payload(5)))
        candidate = tmp_path / "cand.json"
        candidate.write_text(json.dumps(payload(9)))
        monkeypatch.setattr(
            "sys.argv",
            ["gate", "--baseline", str(baseline), "--candidate", str(candidate)],
        )
        assert gate.main() == 0
        summary = capsys.readouterr().out.strip()
        assert summary.count("\n") == 0, "gate must print exactly one line"
        assert "OK" in summary
        assert "counter drift (report-only): case.tableau_pivots 5->9" in summary


class TestEndToEnd:
    def test_main_exit_codes_and_summary(self, tmp_path, capsys, monkeypatch):
        baseline = report(tmp_path / "base.json", case=0.010)
        good = report(tmp_path / "good.json", case=0.012)
        bad = report(tmp_path / "bad.json", case=0.100)

        monkeypatch.setattr(
            "sys.argv",
            ["gate", "--baseline", str(baseline), "--candidate", str(good)],
        )
        assert gate.main() == 0
        summary = capsys.readouterr().out.strip()
        assert summary.count("\n") == 0, "gate must print exactly one line"
        assert "OK" in summary and "worst: case" in summary

        monkeypatch.setattr(
            "sys.argv",
            ["gate", "--baseline", str(baseline), "--candidate", str(bad)],
        )
        assert gate.main() == 1
        summary = capsys.readouterr().out.strip()
        assert "FAIL" in summary and "case 10.00x > 2.50x" in summary

    def test_committed_baselines_are_loadable(self):
        root = SCRIPT.parent.parent
        horn = gate.load_means(root / "BENCH_horn.json")
        typecheck = gate.load_means(root / "BENCH_typecheck.json")
        smt = gate.load_means(root / "BENCH_smt.json")
        assert {"horn.max", "horn.abs"} <= set(horn)
        assert {
            "typecheck.length",
            "typecheck.append",
            "typecheck.replicate",
            "typecheck.stutter",
            "typecheck.stutter-reject",
        } == set(typecheck)
        assert {
            "smt.pigeonhole-6",
            "smt.horn-chain",
            "smt.assumption-churn",
            "smt.lia-chain",
            "smt.stutter-deep",
        } == set(smt)
        service = gate.load_means(root / "BENCH_service.json")
        assert {
            "service.batch-cold",
            "service.batch-warm",
            "service.server-check",
        } == set(service)

    def test_committed_service_baseline_witnesses_cache_hits(self):
        """The warm-sweep case must record full cache reuse — hit counters
        are what make its wall-clock number meaningful."""
        root = SCRIPT.parent.parent
        counters = gate.load_counters(root / "BENCH_service.json")
        warm = counters["service.batch-warm"]
        assert warm["cache_hits"] == warm["queries"] > 0
        assert warm["cache_misses"] == 0
        assert counters["service.batch-cold"]["cache_hits"] == 0

    def test_committed_synth_baseline_witnesses_candidate_search(self):
        """The synthesis suite must keep at least one benchmark that
        actually walks the candidate-set Horn search — several guard
        candidates explored and MUS pruning firing — so a perf regression
        in disjunctive abduction cannot hide behind guard-free goals."""
        root = SCRIPT.parent.parent
        synth = gate.load_counters(root / "BENCH_synth.json")
        assert "synth.sign" in synth, "the disjunctive benchmark must stay committed"
        searched = [c for c in synth.values() if c.get("candidates_explored", 0) > 1]
        assert searched, "no committed benchmark explores multiple guard candidates"
        assert any(c.get("muses_enumerated", 0) > 0 for c in searched)

    def test_committed_baselines_complete_well_inside_budgets(self):
        """Every committed benchmark mean must sit comfortably inside the
        per-query budgets the robustness layer advertises (a goal that
        needs seconds would make documented timeouts like
        ``--timeout-ms 500`` meaningless on reference hardware).  The
        bound is the slowest committed case (the cold service sweep at
        ~1.6s) plus headroom — genuine runaway growth, not noise, trips
        it."""
        root = SCRIPT.parent.parent
        budget_s = 2.5
        for suite in ("horn", "typecheck", "synth", "smt", "service"):
            means = gate.load_means(root / f"BENCH_{suite}.json")
            assert means, f"BENCH_{suite}.json must stay committed"
            for name, mean_s in means.items():
                assert mean_s < budget_s, (
                    f"{name} mean {mean_s:.3f}s exceeds the {budget_s}s "
                    "budget envelope"
                )

    def test_committed_smt_baseline_exercises_new_counters(self):
        """At least one committed benchmark must witness theory propagation
        actually firing."""
        root = SCRIPT.parent.parent
        smt = gate.load_counters(root / "BENCH_smt.json")
        synth = gate.load_counters(root / "BENCH_synth.json")
        cases = {**smt, **synth}.values()
        assert any(c.get("theory_propagations", 0) > 0 for c in cases)
