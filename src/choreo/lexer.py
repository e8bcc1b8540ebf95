"""Hand-rolled lexer for choreography sources.

Produces a token stream that reproduces the input exactly when concatenated
with the skipped trivia. ``>>`` is lexed greedily; the parser splits it back
into two ``>`` tokens inside type-argument lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "keyword" | "int" | "float" | "string" | "op" | "eof"
    lexeme: str
    span: Span


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
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                err(i, "unterminated block comment")
            i = j + 2
            continue
        start = i
        if ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, Span(source, start, i)))
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
            tokens.append(Token(kind, text[start:i], Span(source, start, i)))
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
            tokens.append(Token("string", "".join(buf), Span(source, start, i)))
            continue
        m = _OPERATOR.match(text, i)
        if m is None:
            err(i, f"unexpected character {ch!r}")
        i = m.end()
        tokens.append(Token("op", m.group(), Span(source, start, i)))
    tokens.append(Token("eof", "", Span(source, n, n)))
    return tokens
