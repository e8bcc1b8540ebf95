"""Differential harness: the global oracle against the projected system.

Runs the same entry with identical inputs through both evaluators and
compares per-role return values and per-role console transcripts. Cross-role
interleaving is nondeterministic and deliberately not compared.
"""

from __future__ import annotations

import json
from pathlib import Path

from .diagnostics import Reporter
from .distributed import eval_distributed
from .interpreter import eval_global
from .projector import project_program
from .record import field, record


@record
class Comparison:
    equal: bool
    diffs: list
    global_report: object
    distributed_report: object

    def summary(self):
        if self.equal:
            return "equal"
        return "mismatch:\n" + "\n".join(f"  - {d}" for d in self.diffs)


def compare_reports(roles, global_report, dist_report):
    diffs = []
    if global_report.status != "ok":
        diffs.append(f"global run failed: {global_report.error}")
    if dist_report.status != "ok":
        diffs.append(f"distributed run failed ({dist_report.status}): {dist_report.error}")
    if diffs:
        return Comparison(False, diffs, global_report, dist_report)
    for role in roles:
        g = global_report.returns.get(role, "unit")
        d = dist_report.returns.get(role, "unit")
        if g != d:
            diffs.append(f"return value at {role}: global {g!r} != distributed {d!r}")
        gt = global_report.transcripts.get(role, [])
        dt = dist_report.transcripts.get(role, [])
        if gt != dt:
            diffs.append(f"transcript at {role}: global {gt!r} != distributed {dt!r}")
    return Comparison(not diffs, diffs, global_report, dist_report)


def differential_run(checked, entry_class, entry_method, args_by_role=None,
                     channels=None, deadline=10.0, local_program=None):
    """Project (unless given) and compare both executions; see Comparison."""
    info = checked.decl_info(entry_class)
    if info is None:
        return Comparison(False, [f"unknown entry class '{entry_class}'"], None, None)
    roles = info.role_names
    global_report = eval_global(checked, entry_class, entry_method,
                                args_by_role, channels)
    if local_program is None:
        reporter = Reporter()
        local_program, reporter = project_program(checked, reporter)
        if reporter.has_errors():
            msgs = [d.render() for d in reporter.errors]
            return Comparison(False, ["projection failed:"] + msgs, global_report, None)
    dist_report = eval_distributed(local_program, entry_class, roles, entry_method,
                                   args_by_role, channels, deadline)
    return compare_reports(roles, global_report, dist_report)


# ------------------------------------------------------------ run manifests

@record
class RunSpec:
    """One execution: entry point, per-role args, channel wiring."""

    entry_class: str
    entry_method: str
    args: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    deadline: float = 10.0
    name: str = None

    @classmethod
    def from_dict(cls, obj):
        entry = obj["entry"]
        return cls(
            entry_class=entry["class"],
            entry_method=entry["method"],
            args=obj.get("args", {}),
            channels=obj.get("channels", {}),
            deadline=obj.get("deadline", 10.0),
            name=obj.get("name"),
        )


def load_manifest(path):
    """A manifest holds one run or a list under the "runs" key."""
    obj = json.loads(Path(path).read_text())
    if "runs" in obj:
        return [RunSpec.from_dict(r) for r in obj["runs"]]
    return [RunSpec.from_dict(obj)]
