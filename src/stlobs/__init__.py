"""Online monitoring of bounded temporal formulas with three-valued verdicts.

The package parses formulas whose temporal operators carry integer windows
and whose operands are linear predicates over named signals, compiles them to
constant-state streaming monitors, checks those monitors against reference
semantics, and emits Lustre observer units for external model checking.
"""

__version__ = "0.1.0"

# Each submodule and the public names it gives the package. A name, or the
# submodule itself, loads on first use (PEP 562), so `import stlobs` loads no
# submodule and `check` only those it runs.
_NAMES = {
    "errors": (
        "CheckerError", "EnumerationCapError", "FlagConflictError", "FormulaError", "FormulaSyntaxError",
        "IntervalBoundError", "InvalidFormulaError", "MissingSignalError", "NestedOperatorError",
        "ShortTraceError", "StlObsError", "TraceError", "TraceFormatError", "UnknownSignalError",
    ),
    "trilean": ("FALSE", "TRUE", "UNKNOWN", "Trilean", "and3", "implies3", "not3", "or3"),
    "formula": (
        "Always", "And", "Atom", "AtomicPredicate", "Eventually", "Formula", "Implies", "Interval", "Not",
        "Or", "Until", "horizon", "linear_atom", "render", "signal_atom", "signals_of", "validate",
    ),
    "parser": ("parse",),
    "monitor": ("Monitor", "VerdictRecord", "compile_formula"),
    "traceio": ("VerdictWriter",),
    "trace": ("Trace",),
    "oracle": ("identity_check", "offline_eval", "three_valued_eval"),
    "conformance": (
        "ConformanceReport", "differential_sweep", "induction_suite", "property_suite", "random_formula",
    ),
    "lustregen": (
        "CheckerReport", "LustreSourceUnit", "emit_basic_nodes", "emit_operator_nodes", "emit_proof_node",
        "emit_units", "run_kind2", "write_units",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # `from stlobs import cli` asks here before it imports the submodule.
    module = _MODULE_OF.get(name, name)
    if module not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_NAMES})
