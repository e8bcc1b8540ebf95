"""Hand-rolled lexer for choreography sources.

Produces a token stream that reproduces the input exactly when concatenated
with the skipped trivia. ``>>`` is lexed greedily; the parser splits it back
into two ``>`` tokens inside type-argument lists.
"""

from __future__ import annotations

import re

from .diagnostics import Code, Diagnostic, DiagnosticError, Severity
from .span import SourceFile, Span

KEYWORDS = {
    "class", "interface", "enum", "extends", "implements",
    "public", "protected", "private", "abstract", "final", "static",
    "return", "if", "else", "switch", "case", "default", "try", "catch",
    "new", "this", "super", "null", "true", "false", "void", "throw",
}

OPERATORS = [
    "::", "->", ">>", "||", "&&", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "&=", "|=", "%=",
    "<", ">", "+", "-", "*", "/", "%", "=", "&", "|", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ".", "@", ":",
]

# One alternation, longest operators first, so that a match is greedy.
_OPERATOR = re.compile("|".join(
    re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True)))
_SPACE = re.compile(r"[ \t\r\n]+")
# The rest of an identifier: \w is str.isalnum() or "_".
_WORD_REST = re.compile(r"\w*")


class Token:
    """One token: its kind, its lexeme and its half-open offsets in ``source``.

    A ``Span`` is built only on demand, for an AST node or a diagnostic.
    """

    __slots__ = ("kind", "lexeme", "start", "end", "source")

    def __init__(self, kind, lexeme, start, end, source):
        self.kind = kind  # "ident" | "keyword" | "int" | "float" | "string" | "op" | "eof"
        self.lexeme = lexeme
        self.start = start
        self.end = end
        self.source = source

    @property
    def span(self):
        return Span(self.source, self.start, self.end)

    def __repr__(self):
        return f"Token({self.kind!r}, {self.lexeme!r}, {self.start}, {self.end})"


def lex(source: SourceFile):
    text = source.text
    n = len(text)
    i = 0
    tokens = []

    def err(start, msg):
        raise DiagnosticError(
            Diagnostic(Code.SyntaxError, Span(source, start, start + 1), msg, Severity.ERROR)
        )

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i = _SPACE.match(text, i).end()
            continue
        if ch == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if ch == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                err(i, "unterminated block comment")
            i = j + 2
            continue
        start = i
        if ch.isalpha() or ch == "_":
            i = _WORD_REST.match(text, i + 1).end()
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start, i, source))
            continue
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            kind = "int"
            if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
                kind = "float"
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(Token(kind, text[start:i], start, i, source))
            continue
        if ch == '"':
            i += 1
            buf = []
            while True:
                if i >= n:
                    err(start, "unterminated string literal")
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        err(start, "unterminated string escape")
                    esc = text[i + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc))
                    if buf[-1] is None:
                        err(i, f"unknown escape '\\{esc}'")
                    i += 2
                    continue
                if c == '"':
                    i += 1
                    break
                if c == "\n":
                    err(start, "unterminated string literal")
                buf.append(c)
                i += 1
            tokens.append(Token("string", "".join(buf), start, i, source))
            continue
        m = _OPERATOR.match(text, i)
        if m is None:
            err(i, f"unexpected character {ch!r}")
        i = m.end()
        tokens.append(Token("op", m.group(), start, i, source))
    tokens.append(Token("eof", "", n, n, source))
    return tokens
