"""Lustre emission: golden files, determinism, node inventories, and the
optional model-checker harness (exercised here with stub executables)."""

import json
import os
import stat
from pathlib import Path

import pytest

from stlobs import cli
from stlobs.errors import CheckerError
from stlobs.lustregen import (
    BASIC_NODE_NAMES,
    CHECKER_ENV_VAR,
    LustreSourceUnit,
    emit_basic_nodes,
    emit_operator_nodes,
    emit_proof_node,
    emit_units,
    resolve_checker,
    run_kind2,
    write_units,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_unit_counts():
    assert len(emit_units()) == 4
    assert len(emit_units(with_proofs=True)) == 10


@pytest.mark.parametrize("unit", emit_units(with_proofs=True), ids=lambda u: u.file_name)
def test_matches_golden_file(unit):
    golden = (GOLDEN_DIR / unit.file_name).read_text()
    assert unit.source == golden


def test_emission_is_deterministic():
    first = emit_units(with_proofs=True)
    second = emit_units(with_proofs=True)
    assert [(u.file_name, u.source) for u in first] == [
        (u.file_name, u.source) for u in second
    ]


def test_every_unit_is_self_contained():
    for unit in emit_units(with_proofs=True):
        for name in BASIC_NODE_NAMES:
            assert f"node {name}(" in unit.source, (unit.file_name, name)


def test_inventory_matches_source():
    unit = emit_operator_nodes("until")
    assert "until_true" in unit.node_names
    assert "until_false" in unit.node_names
    assert "until_3v" in unit.node_names


def test_inventory_mismatch_rejected():
    with pytest.raises(ValueError, match="node 'b' not in source"):
        LustreSourceUnit("bad.lus", "node a() returns ();", ("a", "b"))


def test_disjointness_contract_present():
    for kind in ("eventually", "always", "until"):
        unit = emit_operator_nodes(kind)
        assert "guarantee not (out_true and out_false)" in unit.source


def test_proof_nodes_state_both_induction_properties():
    for kind in ("eventually", "always", "until"):
        for polarity in ("positive", "negative"):
            unit = emit_proof_node(kind, polarity)
            assert "base_case" in unit.source
            assert "ind_case" in unit.source


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown"):
        emit_operator_nodes("sometimes")
    with pytest.raises(ValueError, match="no proof node"):
        emit_proof_node("eventually", "maybe")


def test_write_units(tmp_path):
    paths = write_units(emit_units(), tmp_path)
    assert len(paths) == 4
    assert all(p.parent == tmp_path for p in paths)
    assert (tmp_path / "basics.lus").read_text() == emit_basic_nodes().source


class TestResolveChecker:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(CHECKER_ENV_VAR, "/env/kind2")
        assert resolve_checker("/arg/kind2") == "/arg/kind2"

    def test_environment_beats_path_lookup(self, monkeypatch):
        monkeypatch.setenv(CHECKER_ENV_VAR, "/env/kind2")
        assert resolve_checker(None) == "/env/kind2"

    def test_nothing_found(self, monkeypatch):
        monkeypatch.delenv(CHECKER_ENV_VAR, raising=False)
        monkeypatch.setenv("PATH", "")
        assert resolve_checker(None) is None


def _stub_checker(tmp_path, body):
    path = tmp_path / "fake_kind2"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestRunKind2:
    UNITS = emit_units()[:1]

    def test_skips_when_no_checker(self, monkeypatch):
        monkeypatch.delenv(CHECKER_ENV_VAR, raising=False)
        monkeypatch.setenv("PATH", "")
        report = run_kind2(self.UNITS)
        assert not report.ran
        assert report.skipped_reason
        assert "skipped" in report.to_text()

    def test_parses_json_output(self, tmp_path):
        payload = json.dumps(
            [
                {"objectType": "log", "level": "info"},
                {
                    "objectType": "property",
                    "name": "ok_prop",
                    "answer": {"value": "valid"},
                },
                {
                    "objectType": "property",
                    "name": "bad_prop",
                    "answer": {"value": "falsifiable"},
                },
            ]
        )
        checker = _stub_checker(tmp_path, f"cat <<'EOF'\n{payload}\nEOF\n")
        report = run_kind2(self.UNITS, checker=checker, work_dir=tmp_path)
        assert report.ran
        assert not report.all_valid
        statuses = {r.name: r.status for r in report.results}
        assert statuses == {"ok_prop": "valid", "bad_prop": "falsifiable"}

    def test_parses_plain_text_output(self, tmp_path):
        checker = _stub_checker(
            tmp_path,
            "echo 'some preamble'\n"
            "echo 'base_case : valid'\n"
            "echo 'ind_case : valid'\n",
        )
        report = run_kind2(self.UNITS, checker=checker, work_dir=tmp_path)
        assert report.ran
        assert report.all_valid
        assert {r.name for r in report.results} == {"base_case", "ind_case"}
        assert "valid" in report.to_text()

    def test_checker_crash_raises(self, tmp_path):
        checker = _stub_checker(tmp_path, "echo boom >&2\nexit 3\n")
        with pytest.raises(CheckerError):
            run_kind2(self.UNITS, checker=checker, work_dir=tmp_path)

    def test_missing_checker_binary_raises(self, tmp_path):
        with pytest.raises(CheckerError):
            run_kind2(self.UNITS, checker=str(tmp_path / "nope"), work_dir=tmp_path)

    def test_runs_once_per_unit(self, tmp_path):
        counter = tmp_path / "count"
        checker = _stub_checker(
            tmp_path,
            f"echo run >> {counter}\necho 'p : valid'\n",
        )
        units = emit_units()
        report = run_kind2(units, checker=checker, work_dir=tmp_path)
        assert report.ran
        assert counter.read_text().count("run") == len(units)


class TestEmitLustreTimeout:
    """`emit-lustre --timeout` takes a finite number of seconds above 0. Any
    other value is a usage error before a unit is written or the checker
    runs."""

    def run(self, tmp_path, value):
        calls = tmp_path / "calls"
        checker = _stub_checker(tmp_path, f"echo \"$@\" >> {calls}\necho 'p : valid'\n")
        out_dir = tmp_path / "lus"
        argv = ["emit-lustre", "--out-dir", str(out_dir), "--run-checker",
                "--checker-path", checker, f"--timeout={value}"]
        return cli.main(argv), out_dir, calls

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "-1", "0", "-0.0", "soon"])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            self.run(tmp_path, value)
        assert excinfo.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "argument --timeout: " in captured.err
        assert captured.out == ""
        assert not (tmp_path / "lus").exists() and not (tmp_path / "calls").exists()

    def test_positive_value_reaches_the_checker(self, tmp_path, capsys):
        code, out_dir, calls = self.run(tmp_path, "0.5")
        assert code == cli.EXIT_TRUE
        assert len(list(out_dir.glob("*.lus"))) == 4
        runs = calls.read_text().splitlines()
        assert len(runs) == 4 and all(" --timeout 0.5 " in run for run in runs)
