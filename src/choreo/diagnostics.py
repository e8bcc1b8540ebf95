"""Structured diagnostics with caret rendering and a JSON record form."""

from __future__ import annotations

import enum
import json

from .record import field, record
from .span import Span


class Code(enum.Enum):
    SyntaxError = "SyntaxError"
    UnknownName = "UnknownName"
    KindMismatch = "KindMismatch"
    TypeMismatch = "TypeMismatch"
    RoleAliasing = "RoleAliasing"
    RoleSetMismatch = "RoleSetMismatch"
    CyclicInheritance = "CyclicInheritance"
    IllegalOverload = "IllegalOverload"
    AmbiguousOverload = "AmbiguousOverload"
    BadSelectionAnnotation = "BadSelectionAnnotation"
    MergeFailure = "MergeFailure"
    BadTestShape = "BadTestShape"
    DuplicateName = "DuplicateName"
    UnusedRole = "UnusedRole"
    InternalError = "InternalError"


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@record(frozen=True)
class Diagnostic:
    code: Code
    span: Span
    message: str
    severity: Severity = Severity.ERROR
    # Optional pretty-printed (expecting, found) type pair.
    expecting: str = None
    found: str = None

    def render(self):
        """Box-style rendering: excerpt, caret line, then `Code: message`."""
        src = self.span.source
        line, col = src.line_col(self.span.start)
        out = [f"{src.name}:{line}:{col}"]
        text = src.line_text(line)
        if text.strip():
            out.append(text)
            out.append("-" * max(col - 1, 0) + "^")
        msg = self.message
        if self.expecting is not None:
            msg += f" expecting '{self.expecting}' found '{self.found}'."
        out.append(f"{self.code.value}: {msg}")
        return "\n".join(out)

    def to_json(self):
        line, col = self.span.source.line_col(self.span.start)
        rec = {
            "code": self.code.value,
            "severity": self.severity.value,
            "file": self.span.source.name,
            "line": line,
            "col": col,
            "start": self.span.start,
            "end": self.span.end,
            "message": self.message,
        }
        if self.expecting is not None:
            rec["expecting"] = self.expecting
            rec["found"] = self.found
        return json.dumps(rec, sort_keys=True)


class DiagnosticError(Exception):
    """Raised to abort a phase on a hard diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


@record
class Reporter:
    """Accumulates diagnostics for one compilation."""

    items: list = field(default_factory=list)

    def add(self, diag: Diagnostic):
        self.items.append(diag)
        return diag

    def error(self, code, span, message, expecting=None, found=None):
        return self.add(Diagnostic(code, span, message, Severity.ERROR, expecting, found))

    def warn(self, code, span, message):
        return self.add(Diagnostic(code, span, message, Severity.WARNING))

    @property
    def errors(self):
        return [d for d in self.items if d.severity is Severity.ERROR]

    def has_errors(self):
        return bool(self.errors)
