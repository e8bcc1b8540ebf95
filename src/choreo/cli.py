"""Command line: check, project, oracle, run, test, and bench.

Exit codes: 0 on success, 1 on diagnostics or test failures, 2 on usage
errors. ``--json-diagnostics`` switches diagnostics to one JSON record per
line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .differential import load_manifest
from .distributed import eval_distributed
from .interpreter import error_report, eval_global
from .metrics import collect_metrics, to_csv
from .pipeline import compile_files
from .printer import render_unit
from .projector import project_program
from .testkit import run_tests, summarize


def emit_diagnostics(reporter, json_mode):
    for d in reporter.items:
        if json_mode:
            print(d.to_json())
        else:
            print(d.render())
            print()
    return 1 if reporter.has_errors() else 0


def cmd_check(args):
    checked, reporter = compile_files(args.files)
    return emit_diagnostics(reporter, args.json_diagnostics)


def cmd_project(args):
    checked, reporter = compile_files(args.files)
    if reporter.has_errors() or checked is None:
        return emit_diagnostics(reporter, args.json_diagnostics)
    units, reporter = project_program(checked, reporter, annotate=args.annotate)
    code = emit_diagnostics(reporter, args.json_diagnostics)
    out = Path(args.out)
    manifest = []
    for unit in units.units:
        if args.role is not None and unit.role != args.role:
            continue
        role_dir = out / unit.role
        role_dir.mkdir(parents=True, exist_ok=True)
        file_path = role_dir / f"{unit.generated_name}.lchor"
        file_path.write_text(render_unit(unit, courtesy=args.courtesy))
        manifest.append({
            "sourceChoreography": unit.source_name,
            "role": unit.role,
            "file": str(file_path.relative_to(out)),
            "generatedName": unit.generated_name,
        })
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps({"units": manifest}, indent=2) + "\n")
    return code


def _report_lines(report):
    lines = [f"status: {report.status}"]
    if report.error:
        lines.append(f"error: {report.error}")
    for role in sorted(report.returns):
        lines.append(f"return[{role}]: {report.returns[role]!r}")
    for role in sorted(report.transcripts):
        for entry in report.transcripts[role]:
            lines.append(f"console[{role}]: {entry}")
    lines.append(f"duration: {report.duration:.3f}s")
    return lines


def _print_reports(manifest, evaluate):
    """Prints the report ``evaluate(spec)`` gives for each run of the
    manifest; 1 when any run failed."""
    code = 0
    for spec in load_manifest(manifest):
        report = evaluate(spec)
        if spec.name:
            print(f"== {spec.name}")
        print("\n".join(_report_lines(report)))
        if report.status != "ok":
            code = 1
    return code


def cmd_oracle(args):
    checked, reporter = compile_files([args.file])
    if reporter.has_errors() or checked is None:
        return emit_diagnostics(reporter, args.json_diagnostics)
    return _print_reports(args.manifest, lambda spec: eval_global(
        checked, spec.entry_class, spec.entry_method, spec.args, spec.channels))


def cmd_run(args):
    checked, reporter = compile_files([args.file])
    if reporter.has_errors() or checked is None:
        return emit_diagnostics(reporter, args.json_diagnostics)
    units, reporter = project_program(checked, reporter)
    if reporter.has_errors():
        return emit_diagnostics(reporter, args.json_diagnostics)

    def run(spec):
        info = checked.decl_info(spec.entry_class)
        if info is None:
            return error_report(f"unknown entry class '{spec.entry_class}'")
        deadline = args.deadline if args.deadline is not None else spec.deadline
        return eval_distributed(units, spec.entry_class, info.role_names,
                                spec.entry_method, spec.args, spec.channels, deadline)

    return _print_reports(args.manifest, run)


def cmd_test(args):
    checked, reporter = compile_files(args.files)
    if reporter.has_errors() or checked is None:
        return emit_diagnostics(reporter, args.json_diagnostics)
    results, reporter = run_tests(checked, deadline=args.deadline)
    code = emit_diagnostics(reporter, args.json_diagnostics)
    print(summarize(results))
    if args.json_results:
        for r in results:
            print(json.dumps(r.to_record(), sort_keys=True))
    if any(not r.passed for r in results):
        return 1
    return code


def cmd_bench(args):
    rows, reporter = collect_metrics(args.files, warmup=args.warmup,
                                     measured=args.measured)
    code = emit_diagnostics(reporter, args.json_diagnostics)
    csv = to_csv(rows)
    if args.csv:
        Path(args.csv).write_text(csv)
    print(csv, end="")
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="choreo",
        description="Choreographic language toolchain: check, project, and run.",
    )
    parser.add_argument("--json-diagnostics", action="store_true",
                        help="emit diagnostics as JSON records")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check sources")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("project", help="project sources to per-role units")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--role", default=None)
    p.add_argument("--annotate", action="store_true",
                   help="record provenance annotations on generated units")
    p.add_argument("--courtesy", action="store_true",
                   help="add zero-parameter wrappers for all-unit signatures")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("oracle", help="run the global evaluator on a manifest")
    p.add_argument("file")
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("run", help="project and run one worker per role")
    p.add_argument("file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--deadline", type=float, default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("test", help="discover and run choreographic tests")
    p.add_argument("files", nargs="+")
    p.add_argument("--deadline", type=float, default=10.0)
    p.add_argument("--json-results", action="store_true")
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("bench", help="measure sizes and compile times")
    p.add_argument("files", nargs="+")
    p.add_argument("--csv", default=None)
    p.add_argument("--warmup", type=int, default=50)
    p.add_argument("--measured", type=int, default=200)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)  # for the command only; the caller keeps its own
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
