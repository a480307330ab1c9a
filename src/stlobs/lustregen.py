"""Lustre observer generation and optional model-checker invocation.

Emits self-contained .lus units: reusable basic nodes, one unit per temporal
operator (true flag, false flag, and a combined node whose contract asserts
the flags never conflict), and one proof unit per operator and polarity whose
contract states that the window [a, b+1] observer equals the [a, b] observer
combined with a point sample at b + 1 (plus an explicit two-term base case).
Every clock in an observer body saturates at a constant, so state stays
bounded no matter how long the unit runs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import tempfile
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import CheckerError
from .oracle import OPERATOR_KINDS, POLARITIES

CHECKER_ENV_VAR = "STLOBS_CHECKER"

BASIC_NODE_NAMES = ("min_int", "exist", "forall_a", "timeab", "sample_at")


@dataclass(frozen=True)
class LustreSourceUnit:
    """One emitted .lus file: its name, full source, and node inventory."""

    file_name: str
    source: str
    node_names: tuple[str, ...]

    def __post_init__(self):
        for name in self.node_names:
            if not re.search(rf"^node {re.escape(name)}\(", self.source, re.M):
                raise ValueError(f"{self.file_name}: node {name!r} not in source")


_BASICS = textwrap.dedent(
    """\
    node min_int(x : int; y : int) returns (m : int);
    let
      m = if x < y then x else y;
    tel

    node exist(time : bool; cond : bool) returns (ex : bool);
    let
      ex = (time and cond) or (false -> pre ex);
    tel

    node forall_a(time : bool; cond : bool) returns (fa : bool);
    let
      fa = (not time or cond) and (true -> pre fa);
    tel

    node timeab(const a : int; const b : int) returns (time : bool);
    (*@contract
      var clk : int = 0 -> 1 + pre clk;
      assume a >= 0;
      guarantee time = (clk >= a and clk <= b);
    *)
    var cnt : int;
    let
      cnt = min_int(0 -> pre cnt + 1, b);
      time = (cnt >= a) and (cnt <= b) and not (false -> pre (cnt = b));
    tel

    node sample_at(const k : int; cond : bool) returns (seen : bool);
    var clk : int;
    let
      clk = min_int(0 -> pre clk + 1, k + 1);
      seen = if clk = k then cond else (false -> pre seen);
    tel
    """
)

_OPERATOR_NODES = {
    "eventually": textwrap.dedent(
        """\
        node eventually_true(const a : int; const b : int; phi : bool) returns (out : bool);
        let
          out = exist(timeab(a, b), phi);
        tel

        node eventually_false(const a : int; const b : int; phi : bool) returns (out : bool);
        var clk : int;
        let
          clk = min_int(0 -> pre clk + 1, b);
          out = (clk >= b) and forall_a(timeab(a, b), not phi);
        tel
        """
    ),
    "always": textwrap.dedent(
        """\
        node always_true(const a : int; const b : int; phi : bool) returns (out : bool);
        var clk : int;
        let
          clk = min_int(0 -> pre clk + 1, b);
          out = (clk >= b) and forall_a(timeab(a, b), phi);
        tel

        node always_false(const a : int; const b : int; phi : bool) returns (out : bool);
        let
          out = exist(timeab(a, b), not phi);
        tel
        """
    ),
    "until": textwrap.dedent(
        """\
        node until_true(const a : int; const b : int; phi1 : bool; phi2 : bool) returns (out : bool);
        let
          out = exist(timeab(a, b), phi2 and forall_a(timeab(0, b), phi1));
        tel

        node until_false(const a : int; const b : int; phi1 : bool; phi2 : bool) returns (out : bool);
        var clk : int;
        var witnessed : bool;
        var failed_inside : bool;
        var fired : bool;
        let
          clk = min_int(0 -> pre clk + 1, b);
          witnessed = exist(timeab(a, b), phi2 and forall_a(timeab(0, b), phi1));
          failed_inside = exist(timeab(a, b), not phi1);
          fired = ((clk <= a) and not phi1)
               or ((clk > a) and failed_inside and not witnessed)
               or ((clk >= b) and not witnessed);
          out = fired or (false -> pre out);
        tel
        """
    ),
}

# Each operator's operands, as node arguments.
_OPERANDS = {"eventually": ("phi",), "always": ("phi",), "until": ("phi1", "phi2")}


def _params(kind: str) -> str:
    """The node parameters of an operator's window and operands."""
    return "const a : int; const b : int; " + "; ".join(
        f"{name} : bool" for name in _OPERANDS[kind]
    )


def _combined_node(kind: str) -> str:
    """The node pairing an operator's two flags, with the contract that they
    never conflict."""
    args = ", ".join(("a", "b") + _OPERANDS[kind])
    return textwrap.dedent(
        f"""\
        node {kind}_3v({_params(kind)})
        returns (out_true : bool; out_false : bool);
        (*@contract
          assume a >= 0;
          assume a < b;
          guarantee not (out_true and out_false);
        *)
        let
          out_true = {kind}_true({args});
          out_false = {kind}_false({args});
        tel
        """
    )


def _proof_node(kind: str, name: str, body: str) -> tuple[str, str]:
    """A proof node's name and source: the shared header and contract, then
    `body` (its locals and equations)."""
    header = textwrap.dedent(
        f"""\
        node {name}({_params(kind)})
        returns (base_case : bool; ind_case : bool);
        (*@contract
          assume a >= 0;
          assume a < b;
          guarantee "base_case" base_case;
          guarantee "ind_case" ind_case;
        *)
        """
    )
    return name, header + textwrap.dedent(body)


_PROOF_NODES = {
    ("eventually", "positive"): _proof_node(
        "eventually",
        "proof_eventually_true",
        """\
        var narrow : bool;
        var wide : bool;
        let
          narrow = eventually_true(a, b, phi);
          wide = eventually_true(a, b + 1, phi);
          base_case = (b = a + 1) => (narrow = (sample_at(a, phi) or sample_at(a + 1, phi)));
          ind_case = (wide = (narrow or sample_at(b + 1, phi)));
        tel
        """,
    ),
    ("eventually", "negative"): _proof_node(
        "eventually",
        "proof_eventually_false",
        """\
        var clk : int;
        var narrow : bool;
        var wide : bool;
        let
          clk = min_int(0 -> pre clk + 1, a + 1);
          narrow = eventually_false(a, b, phi);
          wide = eventually_false(a, b + 1, phi);
          base_case = (b = a + 1) => (narrow = ((clk >= a + 1) and not sample_at(a, phi) and not sample_at(a + 1, phi)));
          ind_case = (wide = (narrow and sample_at(b + 1, not phi)));
        tel
        """,
    ),
    ("always", "positive"): _proof_node(
        "always",
        "proof_always_true",
        """\
        var clk : int;
        var narrow : bool;
        var wide : bool;
        let
          clk = min_int(0 -> pre clk + 1, a + 1);
          narrow = always_true(a, b, phi);
          wide = always_true(a, b + 1, phi);
          base_case = (b = a + 1) => (narrow = ((clk >= a + 1) and sample_at(a, phi) and sample_at(a + 1, phi)));
          ind_case = (wide = (narrow and sample_at(b + 1, phi)));
        tel
        """,
    ),
    ("always", "negative"): _proof_node(
        "always",
        "proof_always_false",
        """\
        var narrow : bool;
        var wide : bool;
        let
          narrow = always_false(a, b, phi);
          wide = always_false(a, b + 1, phi);
          base_case = (b = a + 1) => (narrow = (sample_at(a, not phi) or sample_at(a + 1, not phi)));
          ind_case = (wide = (narrow or sample_at(b + 1, not phi)));
        tel
        """,
    ),
    ("until", "positive"): _proof_node(
        "until",
        "proof_until_true",
        """\
        var narrow : bool;
        var wide : bool;
        var wit_lo : bool;
        var wit_hi : bool;
        var new_witness : bool;
        let
          narrow = until_true(a, b, phi1, phi2);
          wide = until_true(a, b + 1, phi1, phi2);
          wit_lo = sample_at(a, phi2) and forall_a(timeab(0, a), phi1);
          wit_hi = sample_at(a + 1, phi2) and forall_a(timeab(0, a + 1), phi1);
          new_witness = sample_at(b + 1, phi2) and forall_a(timeab(0, b + 1), phi1);
          base_case = (b = a + 1) => (narrow = (wit_lo or wit_hi));
          ind_case = (wide = (narrow or new_witness));
        tel
        """,
    ),
    ("until", "negative"): _proof_node(
        "until",
        "proof_until_false",
        """\
        var clk : int;
        var narrow : bool;
        var wide : bool;
        var early_fail : bool;
        var wit_lo : bool;
        var wit_hi : bool;
        var new_witness : bool;
        let
          clk = min_int(0 -> pre clk + 1, b + 1);
          narrow = until_false(a, b, phi1, phi2);
          wide = until_false(a, b + 1, phi1, phi2);
          early_fail = exist(timeab(0, a), not phi1);
          wit_lo = sample_at(a, phi2) and forall_a(timeab(0, a), phi1);
          wit_hi = sample_at(a + 1, phi2) and forall_a(timeab(0, a + 1), phi1);
          new_witness = sample_at(b + 1, phi2) and forall_a(timeab(0, b + 1), phi1);
          base_case = (b = a + 1) => ((clk >= b) => (narrow = (early_fail or not (wit_lo or wit_hi))));
          ind_case = (clk >= b + 1) => (wide = (narrow and (early_fail or not new_witness)));
        tel
        """,
    ),
}

_BANNER = "-- generated by stlobs; edit the generator, not this file\n\n"


def _unit(file_name: str, parts: Sequence[str], node_names: Sequence[str]) -> LustreSourceUnit:
    source = _BANNER + "\n".join(part.rstrip("\n") + "\n" for part in parts)
    return LustreSourceUnit(file_name, source, tuple(node_names))


def emit_basic_nodes() -> LustreSourceUnit:
    return _unit("basics.lus", [_BASICS], BASIC_NODE_NAMES)


def emit_operator_nodes(kind: str) -> LustreSourceUnit:
    """Self-contained unit for one operator: basics plus the true-flag node,
    the false-flag node, and the combined node with its disjointness
    contract."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    names = BASIC_NODE_NAMES + (f"{kind}_true", f"{kind}_false", f"{kind}_3v")
    return _unit(f"{kind}.lus", [_BASICS, _OPERATOR_NODES[kind], _combined_node(kind)], names)


def emit_proof_node(kind: str, polarity: str) -> LustreSourceUnit:
    """Self-contained unit whose contract states the window-extension step:
    the [a, b+1] observer equals the [a, b] observer combined with a point
    sample at b + 1, plus an explicit base case at b = a + 1."""
    try:
        proof_name, proof_source = _PROOF_NODES[(kind, polarity)]
    except KeyError:
        raise ValueError(f"no proof node for kind={kind!r} polarity={polarity!r}") from None
    names = BASIC_NODE_NAMES + (f"{kind}_true", f"{kind}_false", proof_name)
    return _unit(
        f"{proof_name}.lus", [_BASICS, _OPERATOR_NODES[kind], proof_source], names
    )


def emit_units(with_proofs: bool = False) -> list[LustreSourceUnit]:
    units = [emit_basic_nodes()]
    units.extend(emit_operator_nodes(kind) for kind in OPERATOR_KINDS)
    if with_proofs:
        units.extend(
            emit_proof_node(kind, polarity)
            for kind in OPERATOR_KINDS
            for polarity in POLARITIES
        )
    return units


def write_units(units: Sequence[LustreSourceUnit], out_dir: str | Path) -> list[Path]:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for unit in units:
        path = directory / unit.file_name
        path.write_text(unit.source, encoding="utf-8")
        paths.append(path)
    return paths


@dataclass(frozen=True)
class PropertyResult:
    unit: str
    name: str
    status: str


@dataclass
class CheckerReport:
    ran: bool
    checker: str | None = None
    results: list[PropertyResult] = field(default_factory=list)
    skipped_reason: str | None = None

    @property
    def all_valid(self) -> bool:
        return self.ran and bool(self.results) and all(
            r.status == "valid" for r in self.results
        )

    def to_text(self) -> str:
        if not self.ran:
            return f"checker skipped: {self.skipped_reason}"
        lines = [f"checker: {self.checker}"]
        lines.extend(f"  {r.unit}: {r.name}: {r.status}" for r in self.results)
        verdict = "all properties valid" if self.all_valid else "NOT all properties valid"
        lines.append(verdict)
        return "\n".join(lines)


def resolve_checker(checker: str | None = None) -> str | None:
    """Checker executable to use: explicit path, then the STLOBS_CHECKER
    environment variable, then `kind2` on PATH. None when unavailable."""
    if checker:
        return checker
    env = os.environ.get(CHECKER_ENV_VAR)
    if env:
        return env
    return shutil.which("kind2")


def _parse_checker_output(unit_name: str, stdout: str) -> list[PropertyResult]:
    results: list[PropertyResult] = []
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, list):
        for entry in payload:
            if isinstance(entry, dict) and entry.get("objectType") == "property":
                answer = entry.get("answer", {})
                value = answer.get("value", "unknown") if isinstance(answer, dict) else "unknown"
                results.append(PropertyResult(unit_name, str(entry.get("name")), str(value)))
        return results
    # Plain-text fallback: one "<name>: <status>" pair per line.
    for match in re.finditer(r"(\S+)\s*:\s*(valid|falsifiable|unknown)", stdout):
        results.append(PropertyResult(unit_name, match.group(1), match.group(2)))
    return results


def run_kind2(
    units: Sequence[LustreSourceUnit],
    timeout: float = 60.0,
    checker: str | None = None,
    work_dir: str | Path | None = None,
) -> CheckerReport:
    """Run the model checker over each unit, one invocation per file.

    Returns a skipped (not failed) report when no checker executable can be
    found, so environments without one still exercise everything else.
    Raises `CheckerError` when the checker cannot start, fails without a
    result, times out, or reports no property for any unit.
    """
    executable = resolve_checker(checker)
    if executable is None:
        return CheckerReport(
            ran=False,
            skipped_reason=f"no checker executable ({CHECKER_ENV_VAR} unset, kind2 not on PATH)",
        )
    report = CheckerReport(ran=True, checker=executable)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(work_dir) if work_dir is not None else Path(tmp)
        paths = write_units(units, directory)
        for unit, path in zip(units, paths):
            command = [
                executable,
                "-json",
                "--modular",
                "true",
                "--timeout",
                str(timeout),
                str(path),
            ]
            try:
                completed = subprocess.run(
                    command,
                    capture_output=True,
                    text=True,
                    timeout=timeout + 30,
                )
            except OSError as exc:  # missing, a directory, not executable
                raise CheckerError(f"cannot run {executable}: {exc.strerror or exc}") from exc
            except subprocess.TimeoutExpired as exc:
                raise CheckerError(f"checker timed out on {unit.file_name}") from exc
            results = _parse_checker_output(unit.file_name, completed.stdout)
            if not results and completed.returncode != 0:
                detail = completed.stderr.strip() or completed.stdout.strip()
                raise CheckerError(
                    f"checker failed on {unit.file_name} "
                    f"(exit {completed.returncode}): {detail[:500]}"
                )
            report.results.extend(results)
    if not report.results:  # nothing checked is no verdict, valid or not
        raise CheckerError(f"{executable} reported no property")
    return report
