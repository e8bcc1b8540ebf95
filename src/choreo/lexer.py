"""Lexer for choreography sources: one regular expression of named token
classes, walked with ``finditer`` and dispatched on the group that matched.

The classes, tried in this order at each offset: trivia (whitespace, ``//``
and closed ``/* */`` comments), word, float, int, well-formed string,
operator (longest first), and a catch-all for one character. Tokens follow
Java's (JLS SE 17, chapter 3): a word starts with a letter (``str.isalpha``)
or ``_`` and goes on with ``\\w``, and a number has ASCII digits only. An
unclosed comment or string and any character that starts no token reach the
catch-all, whose one slow path reports the error. The tokens, with the
skipped trivia between them, reproduce the input. ``>>`` is lexed greedily;
the parser splits it back into two ``>`` tokens inside type-argument lists.
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

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
# A string up to its closing quote; what stops it short is the error.
_OPEN_STRING = re.compile(r'"(?:[^"\\\n]|\\[nt"\\])*')

_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in [
    ("trivia", r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/"),
    ("word", r"[^\W\d]\w*"),  # lex rejects a numeral such as '²', which is \w
    ("float", r"[0-9]+\.[0-9]+"),
    ("int", r"[0-9]+"),
    ("string", _OPEN_STRING.pattern + '"'),
    ("op", r"(?!/\*)(?:" + "|".join(  # leaves an unclosed '/*' to the catch-all
        re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True)) + ")"),
    ("error", "."),
]), re.S)
_ESCAPE = re.compile(r"\\(.)")


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
    tokens = []
    for m in _TOKEN.finditer(source.text):
        kind = m.lastgroup
        if kind == "trivia":
            continue
        lexeme = m.group()
        if kind == "word":
            if lexeme[0] > "z" and not lexeme[0].isalpha():  # not ASCII, not a letter
                _fail(source, m.start())
            kind = "keyword" if lexeme in KEYWORDS else "ident"
        elif kind == "string":
            lexeme = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], lexeme[1:-1])
        elif kind == "error":
            _fail(source, m.start())
        tokens.append(Token(kind, lexeme, m.start(), m.end(), source))
    tokens.append(Token("eof", "", len(source.text), len(source.text), source))
    return tokens


def _fail(source, i):
    """Report the lexical error at offset ``i``, where no token matched."""
    text = source.text
    at, msg = i, f"unexpected character {text[i]!r}"
    if text.startswith("/*", i):
        msg = "unterminated block comment"
    elif text[i] == '"':
        j = _OPEN_STRING.match(text, i).end()
        if text[j:j + 1] != "\\":  # the end of the line or of the text
            msg = "unterminated string literal"
        elif j + 1 == len(text):
            msg = "unterminated string escape"
        else:
            at, msg = j, f"unknown escape '\\{text[j + 1]}'"
    raise DiagnosticError(
        Diagnostic(Code.SyntaxError, Span(source, at, at + 1), msg, Severity.ERROR))
