"""Source files and spans.

Spans are half-open byte offsets into a named source text; 1-based line and
column numbers are derived lazily for rendering.
"""

from __future__ import annotations

import bisect
import functools

from .record import record


@record(frozen=True)
class SourceFile:
    name: str
    text: str

    @functools.cached_property
    def line_starts(self):
        """Offsets at which lines begin, computed on first use."""
        starts = [0]
        at = self.text.find("\n")
        while at != -1:
            starts.append(at + 1)
            at = self.text.find("\n", at + 1)
        return tuple(starts)

    def line_col(self, offset):
        """1-based (line, column) of a byte offset."""
        starts = self.line_starts
        line = bisect.bisect_right(starts, offset) - 1
        return line + 1, offset - starts[line] + 1

    def line_text(self, line):
        starts = self.line_starts
        begin = starts[line - 1]
        end = starts[line] - 1 if line < len(starts) else len(self.text)
        return self.text[begin:end]


@record(frozen=True)
class Span:
    """Half-open [start, end) region of one source file."""

    source: SourceFile
    start: int
    end: int

    @property
    def line(self):
        return self.source.line_col(self.start)[0]

    @property
    def col(self):
        return self.source.line_col(self.start)[1]

    def to(self, other: "Span") -> "Span":
        return Span(self.source, self.start, other.end)

    def __repr__(self):
        return f"{self.source.name}:{self.line}:{self.col}"
