"""Recursive-descent parser for ``.chor`` sources.

It builds the desugared tree directly: a forward chain ``a >> obj::<T>m``
is parsed as the call ``obj.<T>m(a)``, and a literal list
``lit@[R1,..,Rn]`` in an argument position as n located literals, one per
role. A literal list anywhere else is reported, once every source has
parsed, and keeps its first role.

Each repeated form has one parse function: ``separated`` for a list whose
items a separator joins, ``listed`` for a list up to its closing token,
``type_args`` for ``<...>`` (splitting a ``>>``), ``parse_bare_literal``
for a literal's value, and one method-body parse for constructors and
methods.

A ``local_mode`` flag reuses the grammar for the role-free local language
(no role annotations on literals or names, ``throw`` allowed); ``local_reader``
uses it to read printed units back. Only ``decl_roles``, ``name_roles`` and
the literal and ``throw`` parses test it.
"""

from __future__ import annotations

from .diagnostics import Code, Diagnostic, DiagnosticError, Reporter, Severity
from .lexer import Token, lex
from .span import SourceFile, Span
from . import surface as S

MODIFIERS = {"public", "protected", "private", "abstract", "final", "static"}
ASG_OPS = {"=", "+=", "-=", "*=", "/=", "&=", "|=", "%="}

# Conventional precedence tiers for the binary operator set.
BIN_TIERS = [
    ["||"],
    ["&&"],
    ["|"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]
PREC = {op: tier for tier, ops in enumerate(BIN_TIERS) for op in ops}


class Parser:
    def __init__(self, source: SourceFile, reporter: Reporter, local_mode=False):
        self.src = source
        # The tokens end in the one ``eof`` token, which ``next`` never moves
        # past; ``peek(1)`` is only asked for after a token that is not ``eof``.
        self.tokens = lex(source)
        self.pos = 0
        self.reporter = reporter
        self.local_mode = local_mode
        self.role_lists = {}  # literal parsed from lit@[R1,..,Rn] -> [R1,..,Rn]

    # ------------------------------------------------------------ helpers

    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, lexeme, kind=None):
        tok = self.tokens[self.pos]
        if kind and tok.kind != kind:
            return False
        return tok.lexeme == lexeme

    def at_kind(self, kind):
        return self.tokens[self.pos].kind == kind

    def split_shr(self):
        """Split a ``>>`` token into two ``>`` tokens (nested generics)."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.lexeme == ">>":
            self.tokens[self.pos:self.pos + 1] = [
                Token("op", ">", tok.start, tok.start + 1, tok.source),
                Token("op", ">", tok.start + 1, tok.end, tok.source),
            ]

    def err(self, span, msg):
        return DiagnosticError(Diagnostic(Code.SyntaxError, span, msg, Severity.ERROR))

    def expect(self, lexeme, what=None):
        tok = self.peek()
        if tok.lexeme != lexeme or tok.kind not in ("op", "keyword"):
            raise self.err(tok.span, f"expected '{lexeme}'" + (f" {what}" if what else "") +
                           f", found '{tok.lexeme or tok.kind}'")
        return self.next()

    def expect_ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "ident":
            raise self.err(tok.span, f"expected {what}, found '{tok.lexeme or tok.kind}'")
        return self.next()

    def span_from(self, start_tok):
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(self.src, start_tok.start, prev.end)

    def separated(self, item, sep=","):
        """One or more ``item``s, each after the first preceded by ``sep``."""
        out = [item()]
        while self.at(sep, "op"):
            self.next()
            out.append(item())
        return out

    def listed(self, close, item):
        """``item``s up to ``close``, each optionally followed by a comma,
        then ``close``."""
        out = []
        while not self.at(close, "op"):
            out.append(item())
            if self.at(",", "op"):
                self.next()
        self.expect(close)
        return out

    def role_name(self):
        return self.expect_ident("role name").lexeme

    def role_names(self):
        """``(A, B, ...)`` or ``A``."""
        if self.at("(", "op"):
            self.next()
            roles = self.separated(self.role_name)
            self.expect(")")
            return roles
        return [self.role_name()]

    def decl_roles(self):
        """The roles a declaration or type parameter binds; none in the
        local language."""
        return [] if self.local_mode else self.parse_role_params()

    def name_roles(self):
        """The roles after a name in a type or an expression, if any."""
        if self.at("@", "op") and not self.local_mode:
            return self.parse_role_params()
        return []

    def type_args(self, what=None):
        """``<TE, ...>``, whose ``>`` may be the first half of a ``>>``."""
        self.expect("<")
        args = self.separated(self.parse_te)
        self.split_shr()
        self.expect(">", what)
        return args

    # ------------------------------------------------------------ program

    def parse_program(self):
        decls = []
        while not self.at_kind("eof"):
            start = self.pos
            try:
                decls.append(self.parse_decl())
            except DiagnosticError as e:
                self.reporter.add(e.diagnostic)
                self.recover_to_decl()
            except RecursionError:  # the parser recurses per nesting level
                self.pos = start
                self.reporter.error(Code.InternalError, self.peek().span,
                                    "declaration is nested too deeply to parse.")
                self.recover_to_decl()
        return decls

    def recover_to_decl(self):
        depth = 0
        while not self.at_kind("eof"):
            tok = self.next()
            if tok.lexeme == "{":
                depth += 1
            elif tok.lexeme == "}":
                depth -= 1
                if depth <= 0:
                    return

    # -------------------------------------------------------- declarations

    def parse_annotations(self):
        out = []
        while self.at("@", "op") and self.peek(1).kind == "ident":
            at = self.next()
            name = self.expect_ident("annotation name").lexeme
            args = []
            if self.at("(", "op"):
                self.next()
                args = self.listed(")", self.parse_annotation_arg)
            out.append(S.Annotation(self.span_from(at), name, args))
        return out

    def parse_annotation_arg(self):
        key = self.expect_ident("annotation key").lexeme
        self.expect("=")
        tok = self.peek()
        if tok.kind in ("string", "int", "float") or tok.lexeme in ("true", "false"):
            return key, self.parse_bare_literal()
        raise self.err(tok.span, "expected literal annotation value")

    def parse_modifiers(self):
        mods = []
        while self.peek().kind == "keyword" and self.peek().lexeme in MODIFIERS:
            mods.append(self.next().lexeme)
        return mods

    def parse_decl(self):
        start = self.peek()
        annotations = self.parse_annotations()
        modifiers = self.parse_modifiers()
        tok = self.peek()
        if tok.lexeme == "enum":
            return self.parse_enum(start, annotations, modifiers)
        if tok.lexeme == "interface":
            return self.parse_interface(start, annotations, modifiers)
        if tok.lexeme == "class":
            return self.parse_class(start, annotations, modifiers)
        raise self.err(tok.span, f"expected declaration, found '{tok.lexeme or tok.kind}'")

    def parse_role_params(self):
        """``@A`` or ``@(A, B, ...)`` after a declared name."""
        self.expect("@", "role parameters")
        return self.role_names()

    def parse_enum(self, start, annotations, modifiers):
        self.expect("enum")
        name = self.expect_ident("enum name").lexeme
        roles = self.decl_roles()
        self.expect("{")
        cases = self.listed("}", lambda: self.expect_ident("enum case").lexeme)
        return S.EnumDecl(self.span_from(start), annotations, modifiers, name, roles, cases)

    def parse_ftps(self):
        if not self.at("<", "op"):
            return []
        self.next()
        ftps = self.separated(self.parse_ftp)
        self.split_shr()
        self.expect(">", "to close type parameters")
        return ftps

    def parse_ftp(self):
        tok = self.peek()
        name = self.expect_ident("type parameter").lexeme
        roles = self.decl_roles()
        bounds = []
        if self.at("extends", "keyword"):
            self.next()
            bounds = self.separated(self.parse_te, "&")
        return S.FTP(self.span_from(tok), name, roles, bounds)

    def parse_interface(self, start, annotations, modifiers):
        self.expect("interface")
        name = self.expect_ident("interface name").lexeme
        roles = self.decl_roles()
        ftps = self.parse_ftps()
        extends = []
        if self.at("extends", "keyword"):
            self.next()
            extends = self.separated(self.parse_te)
        self.expect("{")
        methods = []
        while not self.at("}", "op"):
            member = self.parse_member(class_name=None)
            if isinstance(member, S.FieldDecl):
                self.reporter.error(Code.SyntaxError, member.span,
                                    "interfaces cannot declare fields")
            else:
                methods.append(member)
        self.expect("}")
        return S.InterfaceDecl(self.span_from(start), annotations, modifiers, name, roles, ftps,
                               extends, methods)

    def parse_class(self, start, annotations, modifiers):
        self.expect("class")
        name = self.expect_ident("class name").lexeme
        roles = self.decl_roles()
        ftps = self.parse_ftps()
        extends = None
        implements = []
        if self.at("extends", "keyword"):
            self.next()
            extends = self.parse_te()
        if self.at("implements", "keyword"):
            self.next()
            implements = self.separated(self.parse_te)
        self.expect("{")
        decl = S.ClassDecl(
            self.span_from(start), annotations, modifiers, name, roles, ftps,
            extends, implements, [], [], [],
        )
        while not self.at("}", "op"):
            member = self.parse_member(class_name=name)
            if isinstance(member, S.FieldDecl):
                decl.fields.append(member)
            elif member.is_constructor:
                decl.constructors.append(member)
            else:
                decl.methods.append(member)
        self.expect("}")
        decl.span = self.span_from(start)
        return decl

    def parse_member(self, class_name):
        start = self.peek()
        annotations = self.parse_annotations()
        modifiers = self.parse_modifiers()
        ftps = self.parse_ftps()
        # Constructor: the class name followed directly by '('.
        if (
            class_name is not None
            and self.peek().kind == "ident"
            and self.peek().lexeme == class_name
            and self.peek(1).lexeme == "("
        ):
            te, name = None, self.next().lexeme
        else:
            te = self.parse_te()
            name = self.expect_ident("member name").lexeme
        if te is None or self.at("(", "op"):
            params = self.parse_params()
            body = None
            if self.at(";", "op"):
                self.next()
            else:
                body = self.parse_block_stm()
            return S.Method(self.span_from(start), annotations, modifiers, ftps, te, name,
                            params, body, is_constructor=te is None)
        if ftps:
            raise self.err(self.peek().span, "fields cannot declare type parameters")
        self.expect(";", "after field declaration")
        return S.FieldDecl(self.span_from(start), annotations, modifiers, te, name)

    def parse_params(self):
        self.expect("(")
        return self.listed(")", self.parse_param)

    def parse_param(self):
        tok = self.peek()
        te = self.parse_te()
        name = self.expect_ident("parameter name").lexeme
        return S.Param(self.span_from(tok), te, name)

    # ------------------------------------------------------------- types

    def parse_te(self):
        tok = self.peek()
        if tok.lexeme == "void":
            self.next()
            return S.TE(tok.span, "void", [], [], is_void=True)
        name = self.expect_ident("type name").lexeme
        roles = self.name_roles()
        args = self.type_args("to close type arguments") if self.at("<", "op") else []
        return S.TE(self.span_from(tok), name, roles, args)

    # --------------------------------------------------------- statements

    def parse_block_stm(self):
        """Parse ``{ stm* }`` into a continuation chain ending in Nil."""
        self.expect("{")
        stms = []
        # At the end of the file the loop stops and expect("}") reports it;
        # recover_to_stm cannot move past the end.
        while not self.at("}", "op") and not self.at_kind("eof"):
            try:
                stms.append(self.parse_stm())
            except DiagnosticError as e:
                self.reporter.add(e.diagnostic)
                self.recover_to_stm()
        close = self.expect("}")
        return self.link(stms, close.span)

    def recover_to_stm(self):
        depth = 0
        while not self.at_kind("eof"):
            tok = self.peek()
            if depth == 0 and tok.lexeme in (";", "}"):
                if tok.lexeme == ";":
                    self.next()
                return
            self.next()
            if tok.lexeme == "{":
                depth += 1
            elif tok.lexeme == "}":
                depth -= 1

    def link(self, stms, end_span):
        # Return has no continuation in the grammar; anything parsed after it
        # in the same block is unreachable and dropped.
        chain = S.Nil(end_span)
        for stm in reversed(stms):
            if isinstance(stm, (S.Nil, S.Return, S.Throw)):
                chain = stm
            else:
                stm.cont = chain
                chain = stm
        return chain

    def parse_stm(self):
        tok = self.peek()
        if tok.lexeme == "return":
            self.next()
            value = None
            if not self.at(";", "op"):
                value = self.parse_exp()
            self.expect(";")
            return S.Return(self.span_from(tok), value)
        if tok.lexeme == "if":
            self.next()
            self.expect("(")
            guard = self.parse_exp()
            self.expect(")")
            then = self.parse_block_stm()
            orelse = S.Nil(self.span_from(tok))
            if self.at("else", "keyword"):
                self.next()
                orelse = self.parse_block_stm()
            return S.If(self.span_from(tok), guard, then, orelse, None)
        if tok.lexeme == "switch":
            return self.parse_switch()
        if tok.lexeme == "try":
            self.next()
            body = self.parse_block_stm()
            handlers = []
            while self.at("catch", "keyword"):
                ctok = self.next()
                self.expect("(")
                te = self.parse_te()
                name = self.expect_ident("exception name").lexeme
                self.expect(")")
                hbody = self.parse_block_stm()
                handlers.append(S.CatchClause(self.span_from(ctok), te, name, hbody))
            return S.TryCatch(self.span_from(tok), body, handlers, None)
        if tok.lexeme == "{":
            body = self.parse_block_stm()
            return S.Block(self.span_from(tok), body, None)
        if tok.lexeme == "throw":
            if not self.local_mode:
                raise self.err(tok.span, "'throw' is only part of the generated local language")
            self.next()
            self.expect("new")
            self.expect_ident("exception class")
            self.expect("(")
            msg = ""
            if self.at_kind("string"):
                msg = self.next().lexeme
            self.expect(")")
            self.expect(";")
            return S.Throw(self.span_from(tok), msg)
        # VarDecl: a TE followed by an identifier, then '=' or ';'.
        # Only that prefix backtracks: an initializer's own error is reported.
        mark = self.pos
        try:
            te = self.parse_te()
            is_decl = self.at_kind("ident") and self.peek(1).lexeme in ("=", ";")
        except DiagnosticError:
            is_decl = False
        if is_decl:
            name = self.expect_ident().lexeme
            init = None
            if self.at("=", "op"):
                self.next()
                init = self.parse_exp()
            self.expect(";")
            return S.VarDecl(self.span_from(tok), te, name, init, None)
        self.pos = mark
        exp = self.parse_exp()
        nxt = self.peek()
        if nxt.kind == "op" and nxt.lexeme in ASG_OPS:
            op = self.next().lexeme
            value = self.parse_exp()
            self.expect(";")
            return S.Assign(self.span_from(tok), exp, op, value, None)
        self.expect(";", "after expression statement")
        return S.ExpStm(self.span_from(tok), exp, None)

    def parse_switch(self):
        tok = self.expect("switch")
        self.expect("(")
        guard = self.parse_exp()
        self.expect(")")
        self.expect("{")
        cases = []
        default = None
        while not self.at("}", "op"):
            ctok = self.peek()
            if self.at("default", "keyword"):
                self.next()
                self.expect("->")
                body = self.parse_block_stm()
                if default is not None:
                    raise self.err(ctok.span, "duplicate default case")
                default = body
                continue
            self.expect("case")
            label_tok = self.peek()
            if label_tok.kind == "ident":
                label = self.next().lexeme
            elif label_tok.kind in ("int", "float", "string") or label_tok.lexeme in ("true", "false"):
                label = S.Literal(label_tok.span, self.parse_bare_literal(), [])
            else:
                raise self.err(label_tok.span, "expected case label")
            self.expect("->")
            body = self.parse_block_stm()
            cases.append(S.SwitchCase(self.span_from(ctok), label, body))
        self.expect("}")
        return S.Switch(self.span_from(tok), guard, cases, default, None)

    def parse_bare_literal(self):
        tok = self.next()
        if tok.kind == "int":
            return int(tok.lexeme)
        if tok.kind == "float":
            return float(tok.lexeme)
        if tok.kind == "string":
            return tok.lexeme
        if tok.lexeme in ("true", "false"):
            return tok.lexeme == "true"
        if tok.lexeme == "null":
            return None
        raise self.err(tok.span, "expected literal")

    # -------------------------------------------------------- expressions

    def parse_exp(self):
        """A binary expression, then each ``>>`` link as a call of the link
        on what is left of it."""
        exp = self.parse_binary(0)
        while self.at(">>", "op"):
            self.next()
            exp = self.parse_chain_link(exp)
        return exp

    def parse_chain_link(self, operand):
        """``target::<TAs>method`` or ``id@(..)<TAs>::new`` after a ``>>``:
        the call or ``new`` of it on the one argument ``operand``, spanning
        the link."""
        tok = self.peek()
        target = None
        if tok.lexeme == "this":
            self.next()
            target = S.Name(tok.span, "this")
        else:
            name_tok = self.expect_ident("chain target")
            if self.at("@", "op"):
                roles = self.parse_role_params()
                target = S.StaticRef(self.span_from(name_tok), name_tok.lexeme, roles)
                # Constructor reference: id@(..)[<TEs>]::new
                type_args = self.type_args() if self.at("<", "op") else []
                if self.at("::", "op") and self.peek(1).lexeme == "new":
                    self.next()
                    self.next()
                    return S.New(self.span_from(tok), name_tok.lexeme, roles, type_args,
                                 self.arguments(operand))
                if type_args:
                    raise self.err(self.peek().span, "expected '::new' after constructor reference")
            else:
                target = S.Name(name_tok.span, name_tok.lexeme)
        while self.at(".", "op"):
            self.next()
            fname = self.expect_ident("member name")
            target = S.FieldAcc(self.span_from(tok), target, fname.lexeme)
        self.expect("::", "in chain target")
        type_args = self.type_args() if self.at("<", "op") else []
        method = self.expect_ident("method name").lexeme
        return S.Call(self.span_from(tok), target, type_args, method, self.arguments(operand))

    def parse_binary(self, tier):
        """An operand followed by operators of ``tier`` or higher, by
        precedence climbing: every operator associates to the left, so its
        right operand holds only operators of higher tiers."""
        left = self.parse_postfix()
        while True:
            tok = self.peek()
            op_tier = PREC.get(tok.lexeme, -1) if tok.kind == "op" else -1
            if op_tier < tier:
                return left
            self.next()
            right = self.parse_binary(op_tier + 1)
            span = Span(self.src, left.span.start, right.span.end)
            left = S.Binary(span, left, tok.lexeme, right)

    def parse_postfix(self):
        exp = self.parse_atom()
        while self.at(".", "op"):
            self.next()
            if self.at("<", "op"):
                type_args = self.type_args()
                name = self.expect_ident("method name").lexeme
                args = self.parse_args()
                exp = S.Call(self.span_from_exp(exp), exp, type_args, name, args)
                continue
            name = self.expect_ident("member name").lexeme
            if self.at("(", "op"):
                args = self.parse_args()
                exp = S.Call(self.span_from_exp(exp), exp, [], name, args)
            else:
                exp = S.FieldAcc(self.span_from_exp(exp), exp, name)
        return exp

    def span_from_exp(self, exp):
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(self.src, exp.span.start, prev.end)

    def parse_args(self):
        self.expect("(")
        return [arg for exp in self.listed(")", self.parse_exp) for arg in self.arguments(exp)]

    def arguments(self, exp):
        """The arguments that the argument ``exp`` stands for: one literal
        per role when it is a literal list, else ``exp`` alone."""
        roles = self.role_lists.pop(exp, None)
        if roles is None:
            return [exp]
        return [S.Literal(exp.span, exp.value, [role]) for role in roles]

    def parse_atom(self):
        tok = self.peek()
        if tok.kind in ("int", "float", "string") or tok.lexeme in ("true", "false", "null"):
            return self.parse_literal()
        if tok.lexeme == "this":
            self.next()
            return S.Name(tok.span, "this")
        if tok.lexeme == "super":
            self.next()
            args = self.parse_args()
            return S.Call(self.span_from(tok), None, [], "super", args)
        if tok.lexeme == "(":
            self.next()
            exp = self.parse_exp()
            self.expect(")")
            return exp
        if tok.lexeme == "new":
            self.next()
            ctor_type_args = self.type_args() if self.at("<", "op") else []
            name = self.expect_ident("class name").lexeme
            roles = self.name_roles()
            type_args = self.type_args() if self.at("<", "op") else []
            args = self.parse_args()
            return S.New(self.span_from(tok), name, roles, ctor_type_args + type_args, args)
        if tok.lexeme == "<":
            # Unqualified generic call: <TE,..>name(args)
            type_args = self.type_args()
            name = self.expect_ident("method name").lexeme
            args = self.parse_args()
            return S.Call(self.span_from(tok), None, type_args, name, args)
        if tok.kind == "ident":
            self.next()
            roles = self.name_roles()
            if roles:
                return S.StaticRef(self.span_from(tok), tok.lexeme, roles)
            if self.at("(", "op"):
                args = self.parse_args()
                return S.Call(self.span_from(tok), None, [], tok.lexeme, args)
            return S.Name(tok.span, tok.lexeme)
        raise self.err(tok.span, f"expected expression, found '{tok.lexeme or tok.kind}'")

    def parse_literal(self):
        tok = self.peek()
        value = self.parse_bare_literal()
        if self.local_mode:
            return S.Literal(tok.span, value, [])
        if not self.at("@", "op"):
            raise self.err(tok.span, "literal must carry a role annotation, e.g. 1@A")
        self.next()
        if self.at("[", "op"):
            self.next()
            roles = self.separated(self.role_name)
            self.expect("]")
            literal = S.Literal(self.span_from(tok), value, roles[:1])
            self.role_lists[literal] = roles
            return literal
        roles = self.role_names()
        if value is not None and len(roles) > 1:
            raise self.err(self.span_from(tok), "only null may be located at several roles")
        return S.Literal(self.span_from(tok), value, roles)


# ------------------------------------------------------------- public API

def parse_program(sources, reporter: Reporter = None):
    """Parse one program from (name, text) pairs or SourceFiles. The
    literal lists left out of argument positions are reported after every
    source's syntax errors, in the order of ``surface.walk``."""
    reporter = reporter if reporter is not None else Reporter()
    decls, misplaced = [], {}
    for src in sources:
        if not isinstance(src, SourceFile):
            src = SourceFile(*src)
        try:
            parser = Parser(src, reporter)
            decls.extend(parser.parse_program())
            misplaced.update(parser.role_lists)
        except DiagnosticError as e:
            reporter.add(e.diagnostic)
    program = S.SurfaceProgram(decls)
    if misplaced:
        # Those in statements that a syntax error dropped are in no tree.
        for node in S.walk(program):
            if node in misplaced:
                reporter.error(Code.SyntaxError, node.span,
                               "literal role lists are only allowed in argument positions")
    return program, reporter


def desugar_program(program):
    # A no-op, as the parser desugars; its only caller is perfbench/run.py.
    return program


def expand_literal_lists(program, reporter: Reporter = None):
    # A no-op, as the parser expands lists; its only caller is perfbench/run.py.
    return program, reporter if reporter is not None else Reporter()
