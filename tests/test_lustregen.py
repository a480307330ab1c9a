"""Lustre emission: golden files, determinism, node lists, and the
optional model-checker harness (exercised here with stub executables)."""

import itertools
import json
import os
import stat
import tempfile
from pathlib import Path

import pytest

from stlobs import cli
from stlobs.errors import CheckerError
from stlobs.lustregen import (
    CHECKER_ENV_VAR,
    emit_basic_nodes,
    emit_operator_nodes,
    emit_proof_node,
    emit_units,
    resolve_checker,
    run_kind2,
    write_units,
)
from stlobs.oracle import OPERATOR_KINDS, POLARITIES

GOLDEN_DIR = Path(__file__).parent / "golden"
BASICS = ("min_int", "exist", "forall_a", "timeab", "sample_at")


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
        assert unit.node_names[:5] == BASICS, unit.file_name


def test_file_names_follow_the_oracles_kinds_and_polarities():
    """The emitter's own tables name the oracle's operators and polarities,
    in its order, so a unit can be checked against the oracle's forms of
    the same operator."""
    names = [unit.file_name for unit in emit_units(with_proofs=True)]
    proofs = {"positive": "true", "negative": "false"}
    assert names == [
        "basics.lus",
        *(f"{kind}.lus" for kind in OPERATOR_KINDS),
        *(f"proof_{kind}_{proofs[polarity]}.lus" for kind, polarity in itertools.product(OPERATOR_KINDS, POLARITIES)),
    ]


class TestNodeNames:
    """A unit's node list is the `node <name>(` lines of its text, in order."""

    def test_basics(self):
        assert emit_basic_nodes().node_names == BASICS

    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    def test_operator_unit(self, kind):
        assert emit_operator_nodes(kind).node_names == (*BASICS, f"{kind}_true", f"{kind}_false", f"{kind}_3v")

    @pytest.mark.parametrize("kind", ["eventually", "always", "until"])
    @pytest.mark.parametrize("polarity, flag", [("positive", "true"), ("negative", "false")])
    def test_proof_unit(self, kind, polarity, flag):
        assert emit_proof_node(kind, polarity).node_names == (
            *BASICS, f"{kind}_true", f"{kind}_false", f"proof_{kind}_{flag}"
        )


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
    """`run_kind2` checks the files it is given; the tests write the basics
    unit first."""

    @pytest.fixture
    def paths(self, tmp_path):
        return write_units(emit_units()[:1], tmp_path / "lus")

    def test_skips_when_no_checker(self, monkeypatch, paths):
        monkeypatch.delenv(CHECKER_ENV_VAR, raising=False)
        monkeypatch.setenv("PATH", "")
        report = run_kind2(paths)
        assert not report.ran
        assert report.skipped_reason
        assert "skipped" in report.to_text()

    def test_parses_json_output(self, tmp_path, paths):
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
        report = run_kind2(paths, checker=checker)
        assert report.ran
        assert not report.all_valid
        statuses = {r.name: r.status for r in report.results}
        assert statuses == {"ok_prop": "valid", "bad_prop": "falsifiable"}

    def test_parses_plain_text_output(self, tmp_path, paths):
        checker = _stub_checker(
            tmp_path,
            "echo 'some preamble'\n"
            "echo 'base_case : valid'\n"
            "echo 'ind_case : valid'\n",
        )
        report = run_kind2(paths, checker=checker)
        assert report.ran
        assert report.all_valid
        assert {r.name for r in report.results} == {"base_case", "ind_case"}
        assert "valid" in report.to_text()

    def test_checker_crash_raises(self, tmp_path, paths):
        checker = _stub_checker(tmp_path, "echo boom >&2\nexit 3\n")
        with pytest.raises(CheckerError, match="checker failed on basics.lus"):
            run_kind2(paths, checker=checker)

    def test_missing_checker_binary_raises(self, tmp_path, paths):
        with pytest.raises(CheckerError):
            run_kind2(paths, checker=str(tmp_path / "nope"))

    def test_runs_once_per_unit(self, tmp_path):
        counter = tmp_path / "count"
        checker = _stub_checker(
            tmp_path,
            f"echo run >> {counter}\necho 'p : valid'\n",
        )
        paths = write_units(emit_units(), tmp_path / "lus")
        report = run_kind2(paths, checker=checker)
        assert report.ran
        assert counter.read_text().count("run") == len(paths)
        assert [r.unit for r in report.results] == [path.name for path in paths]


class TestRunCheckerOnOutDir:
    """`emit-lustre --run-checker` checks the files it wrote, once each, in
    the order it wrote them, and writes no copy anywhere else."""

    @pytest.mark.parametrize("with_proofs", [[], ["--with-proofs"]])
    def test_checks_the_written_files(self, tmp_path, monkeypatch, capsys, with_proofs):
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        calls, dirs = tmp_path / "calls", tmp_path / "dirs"
        checker = _stub_checker(
            tmp_path, f"echo \"$@\" >> {calls}\nfind {temp} -mindepth 1 >> {dirs}\necho 'p : valid'\n"
        )
        out_dir = tmp_path / "lus"
        argv = ["emit-lustre", "--out-dir", str(out_dir), "--run-checker", "--checker-path", checker, *with_proofs]
        assert cli.main(argv) == cli.EXIT_TRUE
        names = [unit.file_name for unit in emit_units(with_proofs=bool(with_proofs))]
        assert calls.read_text().splitlines() == [
            f"-json --modular true --timeout 60.0 {out_dir / name}" for name in names
        ]
        assert dirs.read_text() == ""
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(names)
        out = capsys.readouterr().out
        assert out.endswith("".join(f"  {name}: p: valid\n" for name in names) + "all properties valid\n")


class TestCheckerErrors:
    """A checker that cannot start, or that reports no property for any
    unit, is one error: exit 69 (sysexits' EX_UNAVAILABLE), not an internal
    or input error, and no verdict line."""

    def run(self, tmp_path, capsys, checker):
        argv = ["emit-lustre", "--out-dir", str(tmp_path / "lus"), "--run-checker", "--checker-path", checker]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_UNAVAILABLE
        assert captured.err.startswith("checker error: ")
        assert "properties valid" not in captured.out
        return captured.err

    def test_missing_checker(self, tmp_path, capsys):
        assert "No such file" in self.run(tmp_path, capsys, str(tmp_path / "nope"))

    def test_directory_as_checker(self, tmp_path, capsys):
        (tmp_path / "kind2").mkdir()
        assert "Permission denied" in self.run(tmp_path, capsys, str(tmp_path / "kind2"))

    def test_checker_without_execute_permission(self, tmp_path, capsys):
        checker = _stub_checker(tmp_path, "echo 'p : valid'\n")
        os.chmod(checker, 0o644)
        assert "Permission denied" in self.run(tmp_path, capsys, checker)

    def test_checker_that_reports_nothing(self, tmp_path, capsys):
        checker = _stub_checker(tmp_path, "exit 0\n")
        assert "reported no property" in self.run(tmp_path, capsys, checker)

    def test_one_unit_without_a_property_is_fine(self, tmp_path, capsys):
        # basics.lus has no contract; the other units report theirs.
        checker = _stub_checker(tmp_path, "case \"$*\" in *basics.lus) ;; *) echo 'p : valid' ;; esac\n")
        argv = ["emit-lustre", "--out-dir", str(tmp_path / "lus"), "--run-checker", "--checker-path", checker]
        assert cli.main(argv) == cli.EXIT_TRUE
        out = capsys.readouterr().out
        assert out.endswith("\nall properties valid\n") and "basics.lus:" not in out


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
