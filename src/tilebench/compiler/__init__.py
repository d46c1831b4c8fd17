"""Compilers from machine-checked color predicates to Wang tile sets."""

from .fixedpoint import (
    FixedPointSet,
    SelfCertificate,
    assemble_self_patch,
    build_fixed_point,
    certificate,
    decode_self_patch,
    mutation_trials,
    run_checker,
)
from .layout import SimulationLayout, plan_layout
from .robust import (
    CorrectionReport,
    Robustification,
    check_window_robust,
    correct_errors,
    lift,
    project,
    robustify,
)
from .simulate import (
    CompiledTileSet,
    CompileError,
    assemble_macro_tile,
    chessboard_predicate_machine,
    compile_simulation,
    macro_payloads,
    payload_accepted,
)

__all__ = [
    "FixedPointSet",
    "SelfCertificate",
    "assemble_self_patch",
    "build_fixed_point",
    "certificate",
    "decode_self_patch",
    "mutation_trials",
    "run_checker",
    "SimulationLayout",
    "plan_layout",
    "CompiledTileSet",
    "CompileError",
    "assemble_macro_tile",
    "chessboard_predicate_machine",
    "compile_simulation",
    "macro_payloads",
    "payload_accepted",
    "CorrectionReport",
    "Robustification",
    "check_window_robust",
    "correct_errors",
    "lift",
    "project",
    "robustify",
]
