"""Choreographic language toolchain.

Parse role-annotated sources, check types and role constraints, project
each role to a role-free local program, and execute both the global
choreography and the projected system for differential testing.
"""

from .checker import Checker, check_program
from .diagnostics import Code, Diagnostic, Reporter, Severity
from .differential import Comparison, RunSpec, differential_run, load_manifest
from .distributed import eval_distributed
from .interpreter import ExecutionReport, eval_global
from .merging import MergeError, big_merge, merge_stm, normalize_exp, normalize_stm
from .parser import parse_program
from .pipeline import compile_files, compile_sources, front_end, load_prelude
from .printer import render_unit
from .projector import ProjectionFailed, project_program, project_type, project_type_name
from .runtime import (
    UNIT, AssertionFailure, ChannelEndpoint, ChoreoRuntimeError, DeadlockTimeout,
    EnumV, ExecutionContext, ListV, OptionalV, assert_builtin,
)
from .testkit import discover_tests, run_tests

__all__ = [
    "Checker", "check_program", "Code", "Diagnostic", "Reporter",
    "Severity", "Comparison", "RunSpec", "differential_run", "load_manifest",
    "eval_distributed", "ExecutionReport", "eval_global", "MergeError",
    "big_merge", "merge_stm", "normalize_exp", "normalize_stm",
    "parse_program", "compile_files",
    "compile_sources", "front_end", "load_prelude", "render_unit",
    "ProjectionFailed", "project_program", "project_type", "project_type_name",
    "UNIT", "AssertionFailure", "ChannelEndpoint", "ChoreoRuntimeError",
    "DeadlockTimeout", "EnumV", "ExecutionContext", "ListV", "OptionalV",
    "assert_builtin",
    "discover_tests", "run_tests",
]
