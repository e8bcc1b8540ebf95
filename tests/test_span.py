"""Line and column lookup on source files."""

import pytest

from choreo.span import SourceFile


def rescan_line_col(text, offset):
    """1-based (line, column) of an offset, counted from the text itself."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


@pytest.mark.parametrize("text", [
    "", "a", "ab\ncd", "ab\ncd\n", "\n", "\n\nx\n\n", "x\r\ny\n", "é\nü",
])
def test_line_index_answers_match_a_rescan(text):
    src = SourceFile("t.chor", text)
    for offset in range(len(text) + 1):  # every line end and the end of file
        assert src.line_col(offset) == rescan_line_col(text, offset), offset
    for line, expected in enumerate(text.split("\n"), 1):
        assert src.line_text(line) == expected
    assert src.line_starts is src.line_starts
    assert src == SourceFile("t.chor", text)
    assert hash(src) == hash(SourceFile("t.chor", text))
