"""Acceptance checks for the whole toolkit.

Each test covers one release criterion and prints a single PASS line with the
numbers that justify it (run with -s, or read the captured output). The
budgets are wall-clock seconds measured inside the test.
"""

import shutil
import time
from pathlib import Path

import pytest

from stlobs.conformance import (
    OPERATOR_KINDS,
    bool_trace,
    differential_sweep,
    enumerate_traces,
    induction_suite,
    operator_formula,
    property_suite,
)
from stlobs.lustregen import emit_units, resolve_checker, run_kind2, write_units
from stlobs.monitor import compile_formula
from stlobs.oracle import identity_check
from stlobs.trilean import (
    FALSE,
    TRUE,
    UNKNOWN,
    and3,
    implies3,
    not3,
    or3,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

T, F, U = TRUE, FALSE, UNKNOWN


def _announce(capsys, line):
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def full_sweep():
    """One exhaustive sweep shared by the conformance and the online/offline
    criteria: every operator, every 0 <= a < b <= 4, every boolean trace of
    length b + 3, every tick."""
    return differential_sweep(kinds=OPERATOR_KINDS, max_upper=4)


def test_criterion_1_truth_tables(capsys):
    started = time.perf_counter()
    and_expected = {
        (T, T): T, (T, F): F, (T, U): U,
        (F, T): F, (F, F): F, (F, U): F,
        (U, T): U, (U, F): F, (U, U): U,
    }
    or_expected = {
        (T, T): T, (T, F): T, (T, U): T,
        (F, T): T, (F, F): F, (F, U): U,
        (U, T): T, (U, F): U, (U, U): U,
    }
    not_expected = {T: F, F: T, U: U}
    implies_expected = {
        (T, T): T, (T, F): F, (T, U): U,
        (F, T): T, (F, F): T, (F, U): T,
        (U, T): T, (U, F): U, (U, U): U,
    }
    checked = 0
    for (a, b), want in and_expected.items():
        assert and3(a, b) is want, f"and3({a}, {b})"
        checked += 1
    for (a, b), want in or_expected.items():
        assert or3(a, b) is want, f"or3({a}, {b})"
        checked += 1
    for a, want in not_expected.items():
        assert not3(a) is want, f"not3({a})"
        checked += 1
    for (a, b), want in implies_expected.items():
        assert implies3(a, b) is want, f"implies3({a}, {b})"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 30
    assert elapsed < 1.0
    _announce(
        capsys,
        f"ACCEPTANCE 1 PASS: 30/30 connective table entries exact ({elapsed:.3f}s)",
    )


def test_criterion_2_exhaustive_operator_conformance(full_sweep, capsys):
    mismatches = [f for f in full_sweep.failures if f.check == "verdict-mismatch"]
    assert mismatches == []
    # 3 operators x (sum over the 10 windows of 2**(b+3) traces, 4**(b+3) for U).
    assert full_sweep.cases == 81696
    assert full_sweep.wall_time_s < 60.0
    _announce(
        capsys,
        "ACCEPTANCE 2 PASS: "
        f"{full_sweep.cases} operator/window/trace cases, every tick matches "
        f"the reference semantics, 0 mismatches ({full_sweep.wall_time_s:.1f}s)",
    )


def test_criterion_3_online_offline_equivalence(full_sweep, capsys):
    mismatches = [f for f in full_sweep.failures if f.check == "horizon-offline"]
    assert mismatches == []
    _announce(
        capsys,
        "ACCEPTANCE 3 PASS: at tick b every verdict agrees with the offline "
        "two-valued result, 0 mismatches",
    )


def test_criterion_4_property_suite(capsys):
    report = property_suite(seed=42, cases=10_000)
    assert report.failures == []
    assert report.cases == 10_000
    assert report.wall_time_s < 120.0
    _announce(
        capsys,
        "ACCEPTANCE 4 PASS: 10000 randomized formula/trace cases pass the "
        "flag-conflict, completeness, immutability (hence the verdict shape "
        "U*(T+|F+)), determination, oracle-agreement and state-size checks "
        f"({report.wall_time_s:.1f}s)",
    )


def test_criterion_5_induction_checks(capsys):
    report = induction_suite()
    assert report.failures == []
    # 3 operators x 2 polarities x (5 base windows + 10 step windows).
    assert report.cases == 90
    _announce(
        capsys,
        "ACCEPTANCE 5 PASS: 90/90 base and window-extension induction checks "
        f"hold ({report.wall_time_s:.1f}s)",
    )


def test_criterion_6_bounded_memory(capsys):
    started = time.perf_counter()
    counts = {}
    for kind in OPERATOR_KINDS:
        per_bound = []
        for upper in (2, 50, 1000):
            monitor = compile_formula(operator_formula(kind, 1, upper))
            before = len(monitor.state_scalars())
            for tick in range(5):
                sample = {"p": float(tick % 2), "q": 1.0}
                monitor.step(sample)
            state = monitor.state_scalars()
            # The tick, the root latch and the operator's two flags.
            assert len(state) == before == 4 and state[0] == 5
            per_bound.append(before)
        assert len(set(per_bound)) == 1, (kind, per_bound)
        counts[kind] = per_bound[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    summary = ", ".join(f"{kind}={count}" for kind, count in counts.items())
    _announce(
        capsys,
        "ACCEPTANCE 6 PASS: state scalar count independent of b in "
        f"{{2, 50, 1000}} ({summary}; {elapsed:.3f}s)",
    )


def test_criterion_7_definitional_identities(capsys):
    cases = 0
    for lower in range(0, 4):
        for upper in range(lower + 1, 5):
            length = upper + 2
            for kind in ("eventually", "always"):
                f = operator_formula(kind, lower, upper)
                for rows in enumerate_traces(1, length):
                    assert identity_check(f, bool_trace(rows, 1)), (kind, lower, upper, rows)
                    cases += 1
    _announce(
        capsys,
        f"ACCEPTANCE 7 PASS: {cases} offline identity checks "
        "(eventually as until, always as dual) hold",
    )


def test_criterion_8_codegen_golden_match(capsys):
    units = emit_units(with_proofs=True)
    again = emit_units(with_proofs=True)
    assert [(u.file_name, u.source) for u in units] == [
        (u.file_name, u.source) for u in again
    ]
    for unit in units:
        golden = (GOLDEN_DIR / unit.file_name).read_text()
        assert unit.source == golden, unit.file_name
    _announce(
        capsys,
        f"ACCEPTANCE 8 PASS: {len(units)} Lustre units byte-match the frozen "
        "golden files; emission deterministic",
    )


@pytest.mark.skipif(
    resolve_checker(None) is None,
    reason="no model checker executable (set STLOBS_CHECKER or install kind2)",
)
def test_criterion_8_optional_checker_validates_contracts(tmp_path, capsys):
    report = run_kind2(write_units(emit_units(with_proofs=True), tmp_path), timeout=120.0)
    assert report.ran
    invalid = [r for r in report.results if r.status != "valid"]
    assert invalid == [], report.to_text()
    _announce(
        capsys,
        f"ACCEPTANCE 8 (checker) PASS: {len(report.results)} contract "
        "properties reported valid",
    )
