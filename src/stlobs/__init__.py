"""Online monitoring of bounded temporal formulas with three-valued verdicts.

The package parses formulas whose temporal operators carry integer windows
and whose operands are linear predicates over named signals, compiles them to
constant-state streaming monitors, checks those monitors against reference
semantics, and emits Lustre observer units for external model checking.
"""

from .errors import (
    CheckerError,
    EnumerationCapError,
    FlagConflictError,
    FormulaError,
    FormulaSyntaxError,
    IntervalBoundError,
    InvalidFormulaError,
    MissingSignalError,
    NestedOperatorError,
    ShortTraceError,
    StlObsError,
    TraceError,
    TraceFormatError,
    UnknownSignalError,
)
from .trilean import FALSE, TRUE, UNKNOWN, Trilean, and3, implies3, not3, or3
from .formula import (
    Always,
    And,
    Atom,
    AtomicPredicate,
    Eventually,
    Formula,
    Implies,
    Interval,
    Not,
    Or,
    Until,
    horizon,
    linear_atom,
    render,
    signal_atom,
    signals_of,
    validate,
)
from .parser import parse
from .monitor import Monitor, VerdictRecord, compile_formula
from .traceio import VerdictWriter

# `check` loads only the modules above. The recorded `Trace`, the oracle,
# the conformance checks and the Lustre emitter, with what they import, load
# on first use of one of their names (PEP 562).
_LAZY = {
    "Trace": "trace",
    "identity_check": "oracle",
    "offline_eval": "oracle",
    "three_valued_eval": "oracle",
    "ConformanceReport": "conformance",
    "differential_sweep": "conformance",
    "induction_suite": "conformance",
    "property_suite": "conformance",
    "random_formula": "conformance",
    "CheckerReport": "lustregen",
    "LustreSourceUnit": "lustregen",
    "emit_basic_nodes": "lustregen",
    "emit_operator_nodes": "lustregen",
    "emit_proof_node": "lustregen",
    "emit_units": "lustregen",
    "run_kind2": "lustregen",
    "write_units": "lustregen",
}
_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    # `from stlobs import cli` asks here before it imports the submodule.
    if name not in _LAZY and name not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Always",
    "And",
    "Atom",
    "AtomicPredicate",
    "CheckerError",
    "CheckerReport",
    "ConformanceReport",
    "EnumerationCapError",
    "Eventually",
    "FALSE",
    "FlagConflictError",
    "Formula",
    "FormulaError",
    "FormulaSyntaxError",
    "Implies",
    "Interval",
    "IntervalBoundError",
    "InvalidFormulaError",
    "LustreSourceUnit",
    "MissingSignalError",
    "Monitor",
    "NestedOperatorError",
    "Not",
    "Or",
    "ShortTraceError",
    "StlObsError",
    "TRUE",
    "Trace",
    "TraceError",
    "TraceFormatError",
    "Trilean",
    "UNKNOWN",
    "UnknownSignalError",
    "Until",
    "VerdictRecord",
    "VerdictWriter",
    "and3",
    "compile_formula",
    "differential_sweep",
    "emit_basic_nodes",
    "emit_operator_nodes",
    "emit_proof_node",
    "emit_units",
    "horizon",
    "identity_check",
    "implies3",
    "induction_suite",
    "linear_atom",
    "not3",
    "offline_eval",
    "or3",
    "parse",
    "property_suite",
    "random_formula",
    "render",
    "run_kind2",
    "signal_atom",
    "signals_of",
    "three_valued_eval",
    "validate",
    "write_units",
]
