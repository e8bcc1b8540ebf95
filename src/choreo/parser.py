"""Recursive-descent parser for ``.chor`` sources.

Also houses the two desugaring passes: forward-chain elimination
(``a >> obj::<T>m`` becomes ``obj.<T>m(a)``) and expansion of
``lit@[R1,..,Rn]`` literal lists into one located literal per role.

A ``local_mode`` flag reuses the grammar for the role-free local language
(no role annotations on literals or names, ``throw`` allowed); ``local_reader``
uses it to read printed units back.
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


class _Stream:
    """The token list, ending in the one ``eof`` token, which ``next`` never
    moves past; ``peek(1)`` is only asked for after a token that is not
    ``eof``."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.pos = 0

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

    def mark(self):
        return self.pos

    def reset(self, mark):
        self.pos = mark

    def split_shr(self):
        """Split a ``>>`` token into two ``>`` tokens (nested generics)."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.lexeme == ">>":
            self.tokens[self.pos:self.pos + 1] = [
                Token("op", ">", tok.start, tok.start + 1, tok.source),
                Token("op", ">", tok.start + 1, tok.end, tok.source),
            ]


class Parser:
    def __init__(self, source: SourceFile, reporter: Reporter, local_mode=False):
        self.src = source
        self.ts = _Stream(lex(source))
        self.reporter = reporter
        self.local_mode = local_mode

    # ------------------------------------------------------------ helpers

    def err(self, span, msg):
        return DiagnosticError(Diagnostic(Code.SyntaxError, span, msg, Severity.ERROR))

    def expect(self, lexeme, what=None):
        tok = self.ts.peek()
        if tok.lexeme != lexeme or tok.kind not in ("op", "keyword"):
            raise self.err(tok.span, f"expected '{lexeme}'" + (f" {what}" if what else "") +
                           f", found '{tok.lexeme or tok.kind}'")
        return self.ts.next()

    def expect_ident(self, what="identifier"):
        tok = self.ts.peek()
        if tok.kind != "ident":
            raise self.err(tok.span, f"expected {what}, found '{tok.lexeme or tok.kind}'")
        return self.ts.next()

    def span_from(self, start_tok):
        prev = self.ts.tokens[max(self.ts.pos - 1, 0)]
        return Span(self.src, start_tok.start, prev.end)

    # ------------------------------------------------------------ program

    def parse_program(self):
        decls = []
        while not self.ts.at_kind("eof"):
            try:
                decls.append(self.parse_decl())
            except DiagnosticError as e:
                self.reporter.add(e.diagnostic)
                self.recover_to_decl()
        return decls

    def recover_to_decl(self):
        depth = 0
        while not self.ts.at_kind("eof"):
            tok = self.ts.next()
            if tok.lexeme == "{":
                depth += 1
            elif tok.lexeme == "}":
                depth -= 1
                if depth <= 0:
                    return

    # -------------------------------------------------------- declarations

    def parse_annotations(self):
        out = []
        while self.ts.at("@", "op") and self.ts.peek(1).kind == "ident":
            at = self.ts.next()
            name = self.expect_ident("annotation name").lexeme
            args = []
            if self.ts.at("(", "op"):
                self.ts.next()
                while not self.ts.at(")", "op"):
                    key = self.expect_ident("annotation key").lexeme
                    self.expect("=")
                    args.append((key, self.parse_annotation_value()))
                    if self.ts.at(",", "op"):
                        self.ts.next()
                self.expect(")")
            out.append(S.Annotation(self.span_from(at), name, args))
        return out

    def parse_annotation_value(self):
        tok = self.ts.peek()
        if tok.kind in ("string", "int", "float") or tok.lexeme in ("true", "false"):
            return self.parse_bare_literal()
        raise self.err(tok.span, "expected literal annotation value")

    def parse_modifiers(self):
        mods = []
        while self.ts.peek().kind == "keyword" and self.ts.peek().lexeme in MODIFIERS:
            mods.append(self.ts.next().lexeme)
        return mods

    def parse_decl(self):
        start = self.ts.peek()
        annotations = self.parse_annotations()
        modifiers = self.parse_modifiers()
        tok = self.ts.peek()
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
        if self.ts.at("(", "op"):
            self.ts.next()
            roles = [self.expect_ident("role name").lexeme]
            while self.ts.at(",", "op"):
                self.ts.next()
                roles.append(self.expect_ident("role name").lexeme)
            self.expect(")")
            return roles
        return [self.expect_ident("role name").lexeme]

    def parse_enum(self, start, annotations, modifiers):
        self.expect("enum")
        name = self.expect_ident("enum name").lexeme
        roles = [] if self.local_mode else self.parse_role_params()
        self.expect("{")
        cases = []
        while not self.ts.at("}", "op"):
            cases.append(self.expect_ident("enum case").lexeme)
            if self.ts.at(",", "op"):
                self.ts.next()
        self.expect("}")
        return S.EnumDecl(self.span_from(start), annotations, modifiers, name, roles, cases)

    def parse_ftps(self):
        if not self.ts.at("<", "op"):
            return []
        self.ts.next()
        ftps = []
        while True:
            tok = self.ts.peek()
            name = self.expect_ident("type parameter").lexeme
            roles = [] if self.local_mode else self.parse_role_params()
            bounds = []
            if self.ts.at("extends", "keyword"):
                self.ts.next()
                bounds.append(self.parse_te())
                while self.ts.at("&", "op"):
                    self.ts.next()
                    bounds.append(self.parse_te())
            ftps.append(S.FTP(self.span_from(tok), name, roles, bounds))
            if self.ts.at(",", "op"):
                self.ts.next()
                continue
            break
        self.ts.split_shr()
        self.expect(">", "to close type parameters")
        return ftps

    def parse_interface(self, start, annotations, modifiers):
        self.expect("interface")
        name = self.expect_ident("interface name").lexeme
        roles = [] if self.local_mode else self.parse_role_params()
        ftps = self.parse_ftps()
        extends = []
        if self.ts.at("extends", "keyword"):
            self.ts.next()
            extends.append(self.parse_te())
            while self.ts.at(",", "op"):
                self.ts.next()
                extends.append(self.parse_te())
        self.expect("{")
        methods = []
        while not self.ts.at("}", "op"):
            methods.append(self.parse_member(class_name=None))
        self.expect("}")
        return S.InterfaceDecl(
            self.span_from(start), annotations, modifiers, name, roles, ftps, extends, methods
        )

    def parse_class(self, start, annotations, modifiers):
        self.expect("class")
        name = self.expect_ident("class name").lexeme
        roles = [] if self.local_mode else self.parse_role_params()
        ftps = self.parse_ftps()
        extends = None
        implements = []
        if self.ts.at("extends", "keyword"):
            self.ts.next()
            extends = self.parse_te()
        if self.ts.at("implements", "keyword"):
            self.ts.next()
            implements.append(self.parse_te())
            while self.ts.at(",", "op"):
                self.ts.next()
                implements.append(self.parse_te())
        self.expect("{")
        decl = S.ClassDecl(
            self.span_from(start), annotations, modifiers, name, roles, ftps,
            extends, implements, [], [], [],
        )
        while not self.ts.at("}", "op"):
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
        start = self.ts.peek()
        annotations = self.parse_annotations()
        modifiers = self.parse_modifiers()
        ftps = self.parse_ftps()
        # Constructor: the class name followed directly by '('.
        if (
            class_name is not None
            and self.ts.peek().kind == "ident"
            and self.ts.peek().lexeme == class_name
            and self.ts.peek(1).lexeme == "("
        ):
            name_tok = self.ts.next()
            params = self.parse_params()
            if self.ts.at(";", "op"):
                self.ts.next()
                body = None
            else:
                body = self.parse_block_stm()
            return S.Method(
                self.span_from(start), annotations, modifiers, ftps, None,
                name_tok.lexeme, params, body, is_constructor=True,
            )
        te = self.parse_te()
        name = self.expect_ident("member name").lexeme
        if self.ts.at("(", "op"):
            params = self.parse_params()
            if self.ts.at(";", "op"):
                self.ts.next()
                body = None
            else:
                body = self.parse_block_stm()
            return S.Method(self.span_from(start), annotations, modifiers, ftps, te, name, params, body)
        if ftps:
            raise self.err(self.ts.peek().span, "fields cannot declare type parameters")
        self.expect(";", "after field declaration")
        return S.FieldDecl(self.span_from(start), annotations, modifiers, te, name)

    def parse_params(self):
        self.expect("(")
        params = []
        while not self.ts.at(")", "op"):
            tok = self.ts.peek()
            te = self.parse_te()
            name = self.expect_ident("parameter name").lexeme
            params.append(S.Param(self.span_from(tok), te, name))
            if self.ts.at(",", "op"):
                self.ts.next()
        self.expect(")")
        return params

    # ------------------------------------------------------------- types

    def parse_te(self):
        tok = self.ts.peek()
        if tok.lexeme == "void":
            self.ts.next()
            return S.TE(tok.span, "void", [], [], is_void=True)
        name = self.expect_ident("type name").lexeme
        roles = []
        if self.ts.at("@", "op") and not self.local_mode:
            roles = self.parse_role_params()
        args = []
        if self.ts.at("<", "op"):
            self.ts.next()
            args.append(self.parse_te())
            while self.ts.at(",", "op"):
                self.ts.next()
                args.append(self.parse_te())
            self.ts.split_shr()
            self.expect(">", "to close type arguments")
        return S.TE(self.span_from(tok), name, roles, args)

    # --------------------------------------------------------- statements

    def parse_block_stm(self):
        """Parse ``{ stm* }`` into a continuation chain ending in Nil."""
        self.expect("{")
        stms = []
        # At the end of the file the loop stops and expect("}") reports it;
        # recover_to_stm cannot move past the end.
        while not self.ts.at("}", "op") and not self.ts.at_kind("eof"):
            try:
                stms.append(self.parse_stm())
            except DiagnosticError as e:
                self.reporter.add(e.diagnostic)
                self.recover_to_stm()
        close = self.expect("}")
        return self.link(stms, close.span)

    def recover_to_stm(self):
        depth = 0
        while not self.ts.at_kind("eof"):
            tok = self.ts.peek()
            if depth == 0 and tok.lexeme in (";", "}"):
                if tok.lexeme == ";":
                    self.ts.next()
                return
            self.ts.next()
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
        tok = self.ts.peek()
        if tok.lexeme == "return":
            self.ts.next()
            value = None
            if not self.ts.at(";", "op"):
                value = self.parse_exp()
            self.expect(";")
            return S.Return(self.span_from(tok), value)
        if tok.lexeme == "if":
            self.ts.next()
            self.expect("(")
            guard = self.parse_exp()
            self.expect(")")
            then = self.parse_block_stm()
            orelse = S.Nil(self.span_from(tok))
            if self.ts.at("else", "keyword"):
                self.ts.next()
                orelse = self.parse_block_stm()
            return S.If(self.span_from(tok), guard, then, orelse, None)
        if tok.lexeme == "switch":
            return self.parse_switch()
        if tok.lexeme == "try":
            self.ts.next()
            body = self.parse_block_stm()
            handlers = []
            while self.ts.at("catch", "keyword"):
                ctok = self.ts.next()
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
            self.ts.next()
            self.expect("new")
            self.expect_ident("exception class")
            self.expect("(")
            msg = ""
            if self.ts.at_kind("string"):
                msg = self.ts.next().lexeme
            self.expect(")")
            self.expect(";")
            return S.Throw(self.span_from(tok), msg)
        # VarDecl: a TE followed by an identifier, then '=' or ';'.
        # Only that prefix backtracks: an initializer's own error is reported.
        mark = self.ts.mark()
        try:
            te = self.parse_te()
            is_decl = self.ts.at_kind("ident") and self.ts.peek(1).lexeme in ("=", ";")
        except DiagnosticError:
            is_decl = False
        if is_decl:
            name = self.expect_ident().lexeme
            init = None
            if self.ts.at("=", "op"):
                self.ts.next()
                init = self.parse_exp()
            self.expect(";")
            return S.VarDecl(self.span_from(tok), te, name, init, None)
        self.ts.reset(mark)
        exp = self.parse_exp()
        nxt = self.ts.peek()
        if nxt.kind == "op" and nxt.lexeme in ASG_OPS:
            op = self.ts.next().lexeme
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
        while not self.ts.at("}", "op"):
            ctok = self.ts.peek()
            if self.ts.at("default", "keyword"):
                self.ts.next()
                self.expect("->")
                body = self.parse_block_stm()
                if default is not None:
                    raise self.err(ctok.span, "duplicate default case")
                default = body
                continue
            self.expect("case")
            label_tok = self.ts.peek()
            if label_tok.kind == "ident":
                label = self.ts.next().lexeme
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
        tok = self.ts.next()
        if tok.kind == "int":
            return int(tok.lexeme)
        if tok.kind == "float":
            return float(tok.lexeme)
        if tok.kind == "string":
            return tok.lexeme
        if tok.lexeme in ("true", "false"):
            return tok.lexeme == "true"
        raise self.err(tok.span, "expected literal")

    # -------------------------------------------------------- expressions

    def parse_exp(self):
        first = self.parse_binary(0)
        if not self.ts.at(">>", "op"):
            return first
        links = []
        start = self.ts.peek()
        while self.ts.at(">>", "op"):
            self.ts.next()
            links.append(self.parse_chain_link())
        return S.Chain(Span(self.src, first.span.start, self.span_from(start).end), first, links)

    def parse_chain_link(self):
        tok = self.ts.peek()
        target = None
        if tok.lexeme == "this":
            self.ts.next()
            target = S.Name(tok.span, "this")
        else:
            name_tok = self.expect_ident("chain target")
            if self.ts.at("@", "op"):
                roles = self.parse_role_params()
                target = S.StaticRef(self.span_from(name_tok), name_tok.lexeme, roles)
                # Constructor reference: id@(..)[<TEs>]::new
                type_args = []
                if self.ts.at("<", "op"):
                    self.ts.next()
                    type_args.append(self.parse_te())
                    while self.ts.at(",", "op"):
                        self.ts.next()
                        type_args.append(self.parse_te())
                    self.ts.split_shr()
                    self.expect(">")
                if self.ts.at("::", "op") and self.ts.peek(1).lexeme == "new":
                    self.ts.next()
                    self.ts.next()
                    return S.ChainLink(
                        self.span_from(tok), None, type_args, "new",
                        new_class=name_tok.lexeme, new_roles=roles,
                    )
                if type_args:
                    raise self.err(self.ts.peek().span, "expected '::new' after constructor reference")
            else:
                target = S.Name(name_tok.span, name_tok.lexeme)
        while self.ts.at(".", "op"):
            self.ts.next()
            fname = self.expect_ident("member name")
            target = S.FieldAcc(self.span_from(tok), target, fname.lexeme)
        self.expect("::", "in chain target")
        type_args = []
        if self.ts.at("<", "op"):
            self.ts.next()
            type_args.append(self.parse_te())
            while self.ts.at(",", "op"):
                self.ts.next()
                type_args.append(self.parse_te())
            self.ts.split_shr()
            self.expect(">")
        method = self.expect_ident("method name").lexeme
        return S.ChainLink(self.span_from(tok), target, type_args, method)

    def parse_binary(self, tier):
        """An operand followed by operators of ``tier`` or higher, by
        precedence climbing: every operator associates to the left, so its
        right operand holds only operators of higher tiers."""
        left = self.parse_postfix()
        while True:
            tok = self.ts.peek()
            op_tier = PREC.get(tok.lexeme, -1) if tok.kind == "op" else -1
            if op_tier < tier:
                return left
            self.ts.next()
            right = self.parse_binary(op_tier + 1)
            span = Span(self.src, left.span.start, right.span.end)
            left = S.Binary(span, left, tok.lexeme, right)

    def parse_postfix(self):
        exp = self.parse_atom()
        while self.ts.at(".", "op"):
            self.ts.next()
            if self.ts.at("<", "op"):
                type_args = self.parse_call_type_args()
                name = self.expect_ident("method name").lexeme
                args = self.parse_args()
                exp = S.Call(self.span_from_exp(exp), exp, type_args, name, args)
                continue
            name = self.expect_ident("member name").lexeme
            if self.ts.at("(", "op"):
                args = self.parse_args()
                exp = S.Call(self.span_from_exp(exp), exp, [], name, args)
            else:
                exp = S.FieldAcc(self.span_from_exp(exp), exp, name)
        return exp

    def span_from_exp(self, exp):
        prev = self.ts.tokens[max(self.ts.pos - 1, 0)]
        return Span(self.src, exp.span.start, prev.end)

    def parse_call_type_args(self):
        self.expect("<")
        args = [self.parse_te()]
        while self.ts.at(",", "op"):
            self.ts.next()
            args.append(self.parse_te())
        self.ts.split_shr()
        self.expect(">")
        return args

    def parse_args(self):
        self.expect("(")
        args = []
        while not self.ts.at(")", "op"):
            args.append(self.parse_exp())
            if self.ts.at(",", "op"):
                self.ts.next()
        self.expect(")")
        return args

    def parse_atom(self):
        tok = self.ts.peek()
        if tok.kind in ("int", "float", "string") or tok.lexeme in ("true", "false", "null"):
            return self.parse_literal()
        if tok.lexeme == "this":
            self.ts.next()
            return S.Name(tok.span, "this")
        if tok.lexeme == "super":
            self.ts.next()
            args = self.parse_args()
            return S.Call(self.span_from(tok), None, [], "super", args)
        if tok.lexeme == "(":
            self.ts.next()
            exp = self.parse_exp()
            self.expect(")")
            return exp
        if tok.lexeme == "new":
            self.ts.next()
            ctor_type_args = []
            if self.ts.at("<", "op"):
                ctor_type_args = self.parse_call_type_args()
            name = self.expect_ident("class name").lexeme
            roles = []
            if self.ts.at("@", "op") and not self.local_mode:
                roles = self.parse_role_params()
            type_args = []
            if self.ts.at("<", "op"):
                type_args = self.parse_call_type_args()
            args = self.parse_args()
            return S.New(self.span_from(tok), name, roles, ctor_type_args + type_args, args)
        if tok.lexeme == "<":
            # Unqualified generic call: <TE,..>name(args)
            type_args = self.parse_call_type_args()
            name = self.expect_ident("method name").lexeme
            args = self.parse_args()
            return S.Call(self.span_from(tok), None, type_args, name, args)
        if tok.kind == "ident":
            self.ts.next()
            if self.ts.at("@", "op") and not self.local_mode:
                roles = self.parse_role_params()
                return S.StaticRef(self.span_from(tok), tok.lexeme, roles)
            if self.ts.at("(", "op"):
                args = self.parse_args()
                return S.Call(self.span_from(tok), None, [], tok.lexeme, args)
            return S.Name(tok.span, tok.lexeme)
        raise self.err(tok.span, f"expected expression, found '{tok.lexeme or tok.kind}'")

    def parse_literal(self):
        tok = self.ts.next()
        if tok.kind == "int":
            value = int(tok.lexeme)
        elif tok.kind == "float":
            value = float(tok.lexeme)
        elif tok.kind == "string":
            value = tok.lexeme
        elif tok.lexeme == "true":
            value = True
        elif tok.lexeme == "false":
            value = False
        elif tok.lexeme == "null":
            value = None
        else:
            raise self.err(tok.span, "expected literal")
        if self.local_mode:
            return S.Literal(tok.span, value, [])
        nxt = self.ts.peek()
        if not (nxt.kind == "op" and nxt.lexeme == "@"):
            raise self.err(tok.span, "literal must carry a role annotation, e.g. 1@A")
        self.ts.next()
        if self.ts.at("[", "op"):
            self.ts.next()
            roles = [self.expect_ident("role name").lexeme]
            while self.ts.at(",", "op"):
                self.ts.next()
                roles.append(self.expect_ident("role name").lexeme)
            self.expect("]")
            return S.Literal(self.span_from(tok), value, roles, is_list_sugar=True)
        if self.ts.at("(", "op"):
            self.ts.next()
            roles = [self.expect_ident("role name").lexeme]
            while self.ts.at(",", "op"):
                self.ts.next()
                roles.append(self.expect_ident("role name").lexeme)
            self.expect(")")
            if value is not None and len(roles) > 1:
                raise self.err(self.span_from(tok), "only null may be located at several roles")
            return S.Literal(self.span_from(tok), value, roles)
        role = self.expect_ident("role name").lexeme
        return S.Literal(self.span_from(tok), value, [role])


# ------------------------------------------------------------- public API

def parse_program(sources, reporter: Reporter = None):
    """Parse one program from (name, text) pairs or SourceFiles."""
    reporter = reporter if reporter is not None else Reporter()
    decls = []
    for src in sources:
        if not isinstance(src, SourceFile):
            src = SourceFile(*src)
        try:
            decls.extend(Parser(src, reporter).parse_program())
        except DiagnosticError as e:
            reporter.add(e.diagnostic)
    return S.SurfaceProgram(decls), reporter


# ------------------------------------------------------------ desugaring

def desugar_chain(exp):
    """Rewrite every forward chain in ``exp`` into nested calls,
    left-associatively, one chain at a time as the walk reaches it."""
    exp = _unchain(exp)
    for node in S.walk(exp):
        if not isinstance(node, (S.Exp, S.Stm)):
            continue  # only expressions and statements hold expressions
        for name in S.fields_of(node):
            value = getattr(node, name)
            if type(value) is S.Chain:
                setattr(node, name, _unchain(value))
            elif type(value) is list and S.Chain in map(type, value):
                setattr(node, name, list(map(_unchain, value)))
    return exp


def _unchain(exp):
    """A chain as nested calls on its operands, which stay as they are;
    anything else as it is."""
    if type(exp) is not S.Chain:
        return exp
    acc = exp.first
    for link in exp.links:
        if link.method == "new":
            acc = S.New(link.span, link.new_class, link.new_roles, list(link.type_args), [acc])
        else:
            acc = S.Call(link.span, link.target, list(link.type_args), link.method, [acc])
    return acc


def desugar_program(program):
    """Apply chain desugaring to every declaration in place."""
    desugar_chain(program)
    return program


def expand_literal_lists(program, reporter: Reporter = None):
    """Expand ``lit@[R1,..,Rn]`` arguments into n located literal arguments."""
    reporter = reporter if reporter is not None else Reporter()
    for node in S.walk(program):
        if isinstance(node, (S.Call, S.New)):
            args = []
            for a in node.args:
                if isinstance(a, S.Literal) and a.is_list_sugar:
                    args.extend(S.Literal(a.span, a.value, [role]) for role in a.roles)
                else:
                    args.append(a)
            node.args = args
        elif isinstance(node, S.Literal) and node.is_list_sugar:
            reporter.error(Code.SyntaxError, node.span,
                           "literal role lists are only allowed in argument positions")
            node.roles, node.is_list_sugar = node.roles[:1], False
    return program, reporter
