"""A small surface parser for refinement formulas, types, terms, and
declarations.

Tests and the future CLI write signatures the way the paper does::

    x:Int -> y:Int -> {Int | nu >= x && nu >= y}
    {Int | nu != 0} -> Bool
    xs:List Int -> {Int | nu >= len(xs)}

and programs and declarations in a Haskell-ish surface syntax::

    fix length . \\xs . match xs with Nil -> 0 | Cons y ys -> inc (length ys)

    data List a where
        Nil :: {List a | len(nu) == 0}
      | Cons :: x:a -> xs:List a -> {List a | len(nu) == 1 + len(xs)}

    measure len :: List a -> {Int | nu >= 0} where
        Nil -> 0 | Cons x xs -> 1 + len(xs)

The parser is scope-aware: variable occurrences inside refinements must be
either arrow binders to their left or names in the caller-provided
``scope`` mapping, and each occurrence is built at its binding sort, so a
parsed formula is sort-correct by construction (it is additionally run
through :func:`repro.logic.sortcheck.check_sort` to reject ill-sorted
operator applications).  Measures (``len(xs)``) resolve through a
``measures`` signature map.

Declarations are mutually referential — constructor refinements mention
measures, measure cases mention constructor binders — so
:func:`parse_declarations` and :func:`parse_program` resolve a block in
three passes: measure *headers* first (their signatures), then datatypes
(with every measure signature in scope), then measure *cases* (with
constructor shapes giving the binder sorts).

A block or program is tokenized once.  It is split into declarations on
that token list, and each declaration is parsed from its slice of the
list, so no text is tokenized twice; a measure's header, parsed in the
first pass, is not parsed again in the third.  Parse errors inside a
declaration give positions relative to the declaration's own text.

Only monotypes are parsed; schemas (type/predicate quantifiers) are built
through :mod:`repro.syntax.types` directly, except for constructor
signatures, which are implicitly quantified over their datatype's
parameters.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, TypeVar

from ..logic import ops
from ..logic.formulas import VALUE_VAR, Formula, Var, value_var
from ..logic.measures import MeasureCase, MeasureDef
from ..logic.qualifiers import sorts_compatible
from ..logic.sortcheck import MeasureSignatures, SortError, check_sort
from ..logic.sorts import BOOL, Sort, VarSort
from .datatypes import Constructor, Datatype
from .terms import (
    Annot,
    AppTerm,
    BoolConst,
    FixTerm,
    IfTerm,
    IntConst,
    LambdaTerm,
    LetTerm,
    MatchCase,
    MatchTerm,
    Term,
    VarTerm,
)
from .types import (
    BOOL_BASE,
    INT_BASE,
    BaseType,
    DataBase,
    FunctionType,
    RType,
    ScalarType,
    TypeSchema,
    TypeVarBase,
    base_sort,
)


class ParseError(ValueError):
    """A syntax or scoping error in surface text."""

    def __init__(self, message: str, text: str, position: int) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.position = position


class _Token(NamedTuple):
    kind: str
    value: str
    #: Offset of the token in the tokenized text.
    position: int


#: Builds a token from a ``(kind, value, position)`` tuple without the
#: Python-level ``NamedTuple.__new__``.
_new_token = tuple.__new__

#: One match per token: the whitespace and ``--`` comments before a token
#: belong to its match.  Every position matches — ``eof`` at the end of the
#: text, ``error`` on a character that starts no token — so the skip is
#: never backtracked into and the scan stays linear.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*)*
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<symbol><==>|==>|->|&&|\|\||==|!=|<=|>=|::|\?\?|<|>|[{}()\[\]|:,.+\-*!\\=])
      | (?P<int>\d+)
      | (?P<eof>\Z)
      | (?P<error>.)
    )
    """,
    re.VERBOSE,
)

#: Reserved words of the term/declaration grammar; they never parse as
#: variables, binders, or constructor names.
_KEYWORDS = frozenset(
    {"if", "then", "else", "let", "in", "match", "with", "fix", "data", "measure", "where"}
)

_COMPARISONS = {
    "==": ops.eq,
    "!=": ops.neq,
    "<=": ops.le,
    "<": ops.lt,
    ">=": ops.ge,
    ">": ops.gt,
}


def _tokenize(text: str) -> List[_Token]:
    """The tokens of ``text``, ending with an ``eof`` token at its end."""
    tokens: List[_Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "eof":
            break
        if kind == "error":
            position = match.start(kind)
            raise ParseError(f"unexpected character {text[position]!r}", text, position)
        append(_new_token(_Token, (kind, match[kind], match.start(kind))))
    append(_new_token(_Token, ("eof", "", len(text))))
    return tokens


_Result = TypeVar("_Result")


class _Parser:
    """Recursive-descent parser over a token stream.

    ``tokens`` ends with an ``eof`` token.  It may be a declaration's slice
    of a longer text's tokens: ``text`` is then the declaration's own text,
    starting at ``offset`` in the longer one, and errors report positions
    in ``text``.
    """

    def __init__(
        self,
        text: str,
        tokens: List[_Token],
        offset: int,
        scope: Mapping[str, Sort],
        measures: Optional[MeasureSignatures],
    ) -> None:
        self.text = text
        self.tokens = tokens
        self.offset = offset
        self.index = 0
        self.scope: Dict[str, Sort] = dict(scope)
        self.measures = measures or {}
        self.value_sort: Optional[Sort] = None
        self._anonymous = 0

    def run(self, rule: Callable[..., _Result], *args) -> _Result:
        """Apply the grammar rule ``rule(self, *args)`` from the current
        token.  Nesting deeper than the interpreter's recursion limit is a
        parse error at the token where the parser gave out."""
        try:
            return rule(self, *args)
        except RecursionError:
            raise self.fail("nesting too deep") from None

    def parse(self, rule: Callable[..., _Result], *args) -> _Result:
        """:meth:`run` ``rule``, which must consume every token."""
        result = self.run(rule, *args)
        token = self.tokens[self.index]
        if token.kind != "eof":
            raise self.error(f"trailing input {token.value!r}", token)
        return result

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value`` (never empty, so never
        the ``eof`` token)."""
        if self.tokens[self.index].value == value:
            self.index += 1
            return True
        return False

    def expect(self, value: str) -> _Token:
        token = self.tokens[self.index]
        if token.value != value:
            raise self.error(f"expected {value!r}, found {token.value or 'end of input'!r}", token)
        self.index += 1
        return token

    def error(self, message: str, token: _Token) -> ParseError:
        return ParseError(message, self.text, token.position - self.offset)

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.tokens[self.index])

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "ident" and token.value == word:
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.fail(f"expected keyword {word!r}")

    def ident(self, what: str = "an identifier") -> str:
        token = self.peek()
        if token.kind != "ident" or token.value in _KEYWORDS:
            raise self.fail(f"expected {what}")
        return self.advance().value

    def upper_ident(self, what: str) -> str:
        name = self.ident(what)
        if not name[0].isupper():
            raise self.error(
                f"{what} must be capitalized, got `{name}`", self.tokens[self.index - 1]
            )
        return name

    # -- types ---------------------------------------------------------------

    def type_(self) -> RType:
        """``arrowType ::= [ident ':'] atomType '->' arrowType | atomType``"""
        binder: Optional[str] = None
        checkpoint = self.index
        if (self.peek().kind == "ident" and self.tokens[self.index + 1].value == ":"):
            binder = self.advance().value
            self.advance()  # ':'
        argument = self.atom_type()
        if not self.accept("->"):
            if binder is not None:
                self.index = checkpoint
                raise self.fail("binder without an arrow")
            return argument
        if binder is None:
            binder = f"_arg{self._anonymous}"
            self._anonymous += 1
        outer = self.scope.get(binder)
        if isinstance(argument, ScalarType):
            self.scope[binder] = argument.sort
        result = self.type_()
        if outer is None:
            self.scope.pop(binder, None)
        else:
            self.scope[binder] = outer
        return FunctionType(binder, argument, result)

    def atom_type(self) -> RType:
        """``atomType ::= '{' base '|' formula '}' | '(' type ')' | base``"""
        if self.accept("("):
            inner = self.type_()
            self.expect(")")
            return inner
        if self.accept("{"):
            base = self.base_type()
            self.expect("|")
            saved = self.value_sort
            self.value_sort = sort = base_sort(base)
            start = self.peek()
            refinement = self.formula()
            self.value_sort = saved
            self.expect("}")
            self._check_refinement(refinement, sort, start)
            return ScalarType(base, refinement)
        return ScalarType(self.base_type())

    def base_type(self) -> BaseType:
        token = self.peek()
        if token.kind != "ident":
            raise self.fail("expected a base type")
        name = self.advance().value
        if name == "Int":
            return INT_BASE
        if name == "Bool":
            return BOOL_BASE
        if name[0].isupper():
            # Haskell-style application: bare idents are nullary arguments
            # (Int, Bool, nullary datatypes, type variables); an applied
            # argument needs parentheses, e.g. ``Pair (List Int) Bool``.
            args: List[RType] = []
            while True:
                token = self.peek()
                if token.kind == "ident" and self.tokens[self.index + 1].value != ":":
                    value = self.advance().value
                    if value == "Int":
                        args.append(ScalarType(INT_BASE))
                    elif value == "Bool":
                        args.append(ScalarType(BOOL_BASE))
                    elif value[0].isupper():
                        args.append(ScalarType(DataBase(value)))
                    else:
                        args.append(ScalarType(TypeVarBase(value)))
                elif token.value == "(" and token.kind == "symbol":
                    self.advance()
                    args.append(self.type_())
                    self.expect(")")
                else:
                    break
            return DataBase(name, tuple(args))
        return TypeVarBase(name)

    def _check_refinement(self, refinement: Formula, value_sort: Sort, start: _Token) -> None:
        scope = dict(self.scope)
        scope[VALUE_VAR] = value_sort
        sort = self._sort_of(refinement, scope, start)
        if sort != BOOL:
            raise self.error(f"refinement must have sort Bool, got {sort}", start)

    def _sort_of(self, formula: Formula, scope: Mapping[str, Sort], start: _Token) -> Sort:
        """:func:`check_sort`, an ill-sorted formula being a parse error at
        ``start``, the formula's first token."""
        try:
            return check_sort(formula, scope, self.measures)
        except SortError as error:
            raise self.error(str(error), start) from error

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        """``term ::= '\\' x '.' term | if/let/match/fix | application``"""
        token = self.peek()
        if token.kind == "symbol" and token.value == "\\":
            self.advance()
            binder = self.ident("a lambda binder")
            self.expect(".")
            return LambdaTerm(binder, self.term())
        if token.kind == "ident":
            if self.accept_keyword("if"):
                cond = self.term()
                self.expect_keyword("then")
                then_ = self.term()
                self.expect_keyword("else")
                return IfTerm(cond, then_, self.term())
            if self.accept_keyword("let"):
                name = self.ident("a let binder")
                self.expect("=")
                value = self.term()
                self.expect_keyword("in")
                return LetTerm(name, value, self.term())
            if self.accept_keyword("match"):
                scrutinee = self.term()
                self.expect_keyword("with")
                self.accept("|")
                cases = [self.match_case()]
                while self.accept("|"):
                    cases.append(self.match_case())
                return MatchTerm(scrutinee, tuple(cases))
            if self.accept_keyword("fix"):
                name = self.ident("a fix binder")
                self.expect(".")
                return FixTerm(name, self.term())
        return self.app_term()

    def match_case(self) -> MatchCase:
        """``case ::= Ctor binder* '->' term`` (the body extends greedily, so
        an inner match must be parenthesized to close before the next alt)."""
        constructor = self.upper_ident("a constructor name")
        binders: List[str] = []
        while self.peek().kind == "ident" and self.peek().value not in _KEYWORDS:
            binders.append(self.advance().value)
        self.expect("->")
        return MatchCase(constructor, tuple(binders), self.term())

    def app_term(self) -> Term:
        result = self.atom_term()
        while self._at_term_atom():
            result = AppTerm(result, self.atom_term())
        return result

    def _at_term_atom(self) -> bool:
        token = self.peek()
        if token.kind == "int":
            return True
        if token.kind == "ident":
            return token.value not in _KEYWORDS
        return token.kind == "symbol" and token.value == "("

    def atom_term(self) -> Term:
        token = self.peek()
        if token.kind == "int":
            return IntConst(int(self.advance().value))
        if token.kind == "ident":
            if token.value in _KEYWORDS:
                raise self.fail(f"unexpected keyword `{token.value}` in a term")
            name = self.advance().value
            if name == "True":
                return BoolConst(True)
            if name == "False":
                return BoolConst(False)
            return VarTerm(name)
        if self.accept("("):
            inner = self.term()
            if self.accept("::"):
                inner = Annot(inner, self.type_())
            self.expect(")")
            return inner
        raise self.fail("expected a term")

    # -- declarations --------------------------------------------------------

    def datatype_decl(self) -> Datatype:
        """``data D a1 ... ak where C1 :: T1 | C2 :: T2 | ...``"""
        self.expect_keyword("data")
        name = self.upper_ident("a datatype name")
        params: List[str] = []
        while self.peek().kind == "ident" and self.peek().value not in _KEYWORDS:
            param = self.advance().value
            if param[0].isupper():
                raise self.fail(f"type parameter `{param}` must be lowercase")
            params.append(param)
        self.expect_keyword("where")
        self.accept("|")
        constructors = [self._constructor_decl(name, tuple(params))]
        while self.accept("|"):
            constructors.append(self._constructor_decl(name, tuple(params)))
        seen = set()
        for ctor in constructors:
            if ctor.name in seen:
                raise self.fail(f"duplicate constructor `{ctor.name}`")
            seen.add(ctor.name)
        return Datatype(name, tuple(params), tuple(constructors))

    def _constructor_decl(self, datatype: str, params: Tuple[str, ...]) -> Constructor:
        name = self.upper_ident("a constructor name")
        self.expect("::")
        body = self.type_()
        result: RType = body
        while isinstance(result, FunctionType):
            result = result.result_type
        produces_datatype = (
            isinstance(result, ScalarType)
            and isinstance(result.base, DataBase)
            and result.base.name == datatype
        )
        if not produces_datatype:
            raise self.fail(f"constructor `{name}` must produce `{datatype}`, got `{result!r}`")
        return Constructor(name, TypeSchema(params, (), body))

    def measure_header(self) -> "Tuple[str, MeasureDef]":
        """Parse ``measure m :: D ps -> {S | post}`` up to (excluding)
        ``where``, returning the name and a case-less :class:`MeasureDef`."""
        self.expect_keyword("measure")
        name = self.ident("a measure name")
        self.expect("::")
        checkpoint = self.index
        mtype = self.type_()
        if not isinstance(mtype, FunctionType):
            self.index = checkpoint
            raise self.fail(f"measure `{name}` must have an arrow signature")
        arg, result = mtype.arg_type, mtype.result_type
        if not (isinstance(arg, ScalarType) and isinstance(arg.base, DataBase)):
            self.index = checkpoint
            raise self.fail(f"measure `{name}` must consume a datatype")
        if not isinstance(result, ScalarType):
            self.index = checkpoint
            raise self.fail(f"measure `{name}` must produce a scalar")
        return name, MeasureDef(
            name=name,
            datatype=arg.base.name,
            arg_sort=base_sort(arg.base),
            result_sort=base_sort(result.base),
            postcondition=result.refinement,
        )

    def measure_decl(self, datatypes: Mapping[str, Datatype]) -> MeasureDef:
        """A full measure declaration, cases included."""
        _, header = self.measure_header()
        return self.measure_cases(header, datatypes)

    def measure_cases(self, header: MeasureDef, datatypes: Mapping[str, Datatype]) -> MeasureDef:
        """The rest of a measure declaration after its ``header``, from
        ``where`` on.  The measure's own signature joins ``self.measures``
        so case bodies may recurse."""
        name = header.name
        self.measures = dict(self.measures)
        self.measures[name] = header.signature()
        datatype = datatypes.get(header.datatype)
        if datatype is None:
            raise self.fail(f"measure `{name}` consumes undeclared datatype `{header.datatype}`")
        self.expect_keyword("where")
        self.accept("|")
        cases = [self._measure_case(header, datatype)]
        while self.accept("|"):
            cases.append(self._measure_case(header, datatype))
        seen = set()
        for case in cases:
            if case.constructor in seen:
                raise self.fail(f"duplicate measure case for `{case.constructor}`")
            seen.add(case.constructor)
        return MeasureDef(
            name=header.name,
            datatype=header.datatype,
            arg_sort=header.arg_sort,
            result_sort=header.result_sort,
            cases=tuple(cases),
            postcondition=header.postcondition,
        )

    def _measure_case(self, header: MeasureDef, datatype: Datatype) -> MeasureCase:
        cname = self.upper_ident("a constructor name")
        ctor = datatype.find(cname)
        if ctor is None:
            raise self.fail(
                f"`{cname}` is not a constructor of `{datatype.name}` "
                f"(has: {', '.join(datatype.constructor_names())})"
            )
        binders: List[str] = []
        while self.peek().kind == "ident" and self.peek().value not in _KEYWORDS:
            binders.append(self.advance().value)
        if len(binders) != ctor.arity():
            raise self.fail(
                f"constructor `{cname}` takes {ctor.arity()} arguments, "
                f"the case binds {len(binders)}"
            )
        if len(set(binders)) != len(binders):
            raise self.fail(f"measure case `{cname}` binds a name twice")
        self.expect("->")
        binder_vars: List[Var] = []
        scope = dict(self.scope)
        node: RType = ctor.schema.body
        for binder in binders:
            assert isinstance(node, FunctionType)
            if isinstance(node.arg_type, ScalarType):
                sort = node.arg_type.sort
                scope[binder] = sort
            else:
                # Function-typed constructor arguments have no logical sort;
                # a case body mentioning one is rejected as unbound.
                sort = VarSort(f"_{binder}")
            binder_vars.append(Var(binder, sort))
            node = node.result_type
        outer_scope = self.scope
        self.scope = scope
        start = self.peek()
        try:
            body = self.formula()
        finally:
            self.scope = outer_scope
        sort = self._sort_of(body, scope, start)
        if not sorts_compatible(sort, header.result_sort):
            raise self.error(
                f"measure case `{cname}` has sort {sort}, "
                f"expected {header.result_sort}",
                start,
            )
        return MeasureCase(cname, tuple(binder_vars), body)

    # -- formulas (precedence climbing) --------------------------------------

    def formula(self) -> Formula:
        return self.iff_level()

    def iff_level(self) -> Formula:
        lhs = self.implies_level()
        while self.accept("<==>"):
            lhs = ops.iff(lhs, self.implies_level())
        return lhs

    def implies_level(self) -> Formula:
        lhs = self.or_level()
        if self.accept("==>"):
            return ops.implies(lhs, self.implies_level())
        return lhs

    def or_level(self) -> Formula:
        lhs = self.and_level()
        while self.accept("||"):
            lhs = ops.or_(lhs, self.and_level())
        return lhs

    def and_level(self) -> Formula:
        lhs = self.compare_level()
        while self.accept("&&"):
            lhs = ops.and_(lhs, self.compare_level())
        return lhs

    def compare_level(self) -> Formula:
        lhs = self.additive_level()
        token = self.peek()
        if token.value in _COMPARISONS and token.kind == "symbol":
            self.advance()
            return _COMPARISONS[token.value](lhs, self.additive_level())
        if token.kind == "ident" and token.value == "in":
            self.advance()
            return ops.member(lhs, self.additive_level())
        return lhs

    def additive_level(self) -> Formula:
        lhs = self.multiplicative_level()
        while True:
            if self.accept("+"):
                lhs = ops.plus(lhs, self.multiplicative_level())
            elif self.accept("-"):
                lhs = ops.minus(lhs, self.multiplicative_level())
            else:
                return lhs

    def multiplicative_level(self) -> Formula:
        lhs = self.unary_level()
        while self.accept("*"):
            lhs = ops.times(lhs, self.unary_level())
        return lhs

    def unary_level(self) -> Formula:
        if self.accept("!"):
            return ops.not_(self.unary_level())
        if self.accept("-"):
            return ops.neg(self.unary_level())
        return self.atom()

    def atom(self) -> Formula:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ops.int_lit(int(token.value))
        if token.value == "(":
            self.advance()
            inner = self.formula()
            self.expect(")")
            return inner
        if token.value == "[":
            return self.set_literal()
        if token.kind == "ident":
            return self.identifier()
        raise self.fail(f"expected a formula atom, found {token.value or 'end of input'!r}")

    def set_literal(self) -> Formula:
        self.expect("[")
        if self.accept("]"):
            raise self.fail("empty set literals need an element sort; use ops.empty_set")
        elements = [self.formula()]
        while self.accept(","):
            elements.append(self.formula())
        self.expect("]")
        return ops.set_lit(elements[0].sort, elements)

    def identifier(self) -> Formula:
        token = self.advance()
        name = token.value
        if name == "True":
            return ops.bool_lit(True)
        if name == "False":
            return ops.bool_lit(False)
        if name in ("nu", "_v"):
            if self.value_sort is None:
                raise self.error("the value variable is only available inside a refinement", token)
            return value_var(self.value_sort)
        if self.peek().value == "(" and self.peek().kind == "symbol":
            return self.measure_app(name, token)
        sort = self.scope.get(name)
        if sort is None:
            raise self.error(f"unbound variable `{name}`", token)
        return ops.var(name, sort)

    def measure_app(self, name: str, token: _Token) -> Formula:
        signature = self.measures.get(name)
        if signature is None:
            raise self.error(f"unknown measure `{name}`", token)
        arg_sorts, result_sort = signature
        self.expect("(")
        args = [self.formula()]
        while self.accept(","):
            args.append(self.formula())
        self.expect(")")
        if len(args) != len(arg_sorts):
            raise self.error(
                f"measure `{name}` expects {len(arg_sorts)} arguments, got {len(args)}", token
            )
        return ops.app(name, args, result_sort)

    # -- program declarations ------------------------------------------------

    def signature_decl(self) -> Tuple[str, RType]:
        """``name :: type``"""
        name = self.ident("a component name")
        self.expect("::")
        return name, self.type_()

    def definition_decl(self) -> Tuple[str, Optional[Term]]:
        """``name = term``, or ``name = ??`` (a goal: no term)."""
        name = self.ident("a definition name")
        self.expect("=")
        if self.accept("??"):
            return name, None
        return name, self.term()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _text_parser(
    text: str, scope: Optional[Mapping[str, Sort]], measures: Optional[MeasureSignatures]
) -> _Parser:
    return _Parser(text, _tokenize(text), 0, scope or {}, measures)


def parse_type(
    text: str,
    scope: Optional[Mapping[str, Sort]] = None,
    measures: Optional[MeasureSignatures] = None,
) -> RType:
    """Parse a refinement type; arrow binders scope over refinements to
    their right, ``scope`` supplies any other free variables."""
    return _text_parser(text, scope, measures).parse(_Parser.type_)


def parse_formula(
    text: str,
    scope: Optional[Mapping[str, Sort]] = None,
    value_sort: Optional[Sort] = None,
    measures: Optional[MeasureSignatures] = None,
) -> Formula:
    """Parse a refinement formula; pass ``value_sort`` to make ``nu``
    available.  The result is sort-checked before it is returned."""
    parser = _text_parser(text, scope, measures)
    parser.value_sort = value_sort
    result = parser.parse(_Parser.formula)
    check_scope: Dict[str, Sort] = dict(scope or {})
    if value_sort is not None:
        check_scope[VALUE_VAR] = value_sort
    check_sort(result, check_scope, measures)
    return result


def parse_term(
    text: str,
    scope: Optional[Mapping[str, Sort]] = None,
    measures: Optional[MeasureSignatures] = None,
) -> Term:
    """Parse a program term.  ``scope`` and ``measures`` are only consulted
    for the types of ``(term :: type)`` ascriptions; the term language
    itself is untyped at parse time."""
    return _text_parser(text, scope, measures).parse(_Parser.term)


def parse_datatype(
    text: str,
    measures: Optional[MeasureSignatures] = None,
) -> Datatype:
    """Parse one ``data D ... where ...`` declaration.  ``measures`` supplies
    the signatures the constructor refinements may apply."""
    return _text_parser(text, None, measures).parse(_Parser.datatype_decl)


def parse_measure(
    text: str,
    datatypes: Mapping[str, Datatype],
    measures: Optional[MeasureSignatures] = None,
) -> MeasureDef:
    """Parse one ``measure m :: ... where ...`` declaration.  ``datatypes``
    provides the constructor shapes that give case binders their sorts; the
    measure's own signature is available to its cases (recursion)."""
    return _text_parser(text, None, measures).parse(_Parser.measure_decl, datatypes)


class Declarations(NamedTuple):
    """A resolved block of surface declarations."""

    datatypes: Dict[str, Datatype]
    measures: Dict[str, MeasureDef]


def _chunks(text: str, tokens: List[_Token], starts: List[int]) -> List[Tuple[str, _Parser]]:
    """One ``(kind, parser)`` per declaration of ``text``, whose tokens are
    ``tokens`` and whose declarations start at the token indices
    ``starts``.  The kind is ``data``, ``measure``, ``sig`` (``name ::
    type``) or ``def`` (``name = term``); each parser reads its
    declaration's slice of ``tokens``, up to the next declaration."""
    chunks: List[Tuple[str, _Parser]] = []
    for which, index in enumerate(starts):
        # The next declaration's first token, or the eof token.
        stop = starts[which + 1] if which + 1 < len(starts) else len(tokens) - 1
        start, end = tokens[index].position, tokens[stop].position
        sliced = tokens[index:stop]
        sliced.append(_new_token(_Token, ("eof", "", end)))
        keyword = tokens[index].value
        if keyword in ("data", "measure"):
            kind = keyword
        elif tokens[index + 1].value == "::":
            kind = "sig"
        else:
            kind = "def"
        chunks.append((kind, _Parser(text[start:end], sliced, start, {}, None)))
    return chunks


def _resolve_declarations(text: str, chunks: List[Tuple[str, _Parser]]) -> Declarations:
    """Parse the ``data`` and ``measure`` chunks of ``text`` in three passes
    (see the module docstring).  Every chunk's parser is left with the
    measure signatures in scope."""
    signatures: Dict[str, Tuple[Tuple[Sort, ...], Sort]] = {}
    headers: List[Tuple[_Parser, MeasureDef]] = []
    for kind, parser in chunks:
        if kind == "measure":
            name, header = parser.run(_Parser.measure_header)
            if name in signatures:
                raise ParseError(f"duplicate measure `{name}`", text, parser.offset)
            signatures[name] = header.signature()
            headers.append((parser, header))
    for _, parser in chunks:
        parser.measures = signatures

    datatypes: Dict[str, Datatype] = {}
    for kind, parser in chunks:
        if kind == "data":
            datatype = parser.parse(_Parser.datatype_decl)
            if datatype.name in datatypes:
                raise ParseError(f"duplicate datatype `{datatype.name}`", text, parser.offset)
            datatypes[datatype.name] = datatype

    measures: Dict[str, MeasureDef] = {}
    for parser, header in headers:
        measure = parser.parse(_Parser.measure_cases, header, datatypes)
        measures[measure.name] = measure
    return Declarations(datatypes, measures)


def parse_declarations(text: str) -> Declarations:
    """Parse a block of ``data`` / ``measure`` declarations, in any order.

    Mutual references are resolved in three passes: measure signatures are
    collected first, datatypes are parsed with them in scope, and measure
    cases are parsed last against the constructor shapes.
    """
    tokens = _tokenize(text)
    starts = [
        index
        for index, token in enumerate(tokens)
        if token.kind == "ident" and token.value in ("data", "measure")
    ]
    if not starts or starts[0] != 0:
        position = tokens[0].position if tokens[0].kind != "eof" else 0
        raise ParseError("expected a `data` or `measure` declaration", text, position)
    return _resolve_declarations(text, _chunks(text, tokens, starts))


class Program(NamedTuple):
    """A parsed ``.sq``-style source file: declarations, component
    signatures, definitions to check, and synthesis goals."""

    datatypes: Dict[str, Datatype]
    measures: Dict[str, MeasureDef]
    #: Component and goal signatures, ``name :: type``, file order.
    signatures: Dict[str, RType]
    #: Definitions ``name = term`` to be checked against their signature.
    definitions: Dict[str, Term]
    #: Names declared ``name = ??`` — programs to be synthesized.
    goals: Tuple[str, ...]


def _split_program(text: str) -> List[Tuple[str, _Parser]]:
    """Split a program into declaration chunks (see :func:`_chunks`).

    A declaration starts at a top-level identifier in column 0 (bracket
    depth zero, not indented) that is either the keyword ``data`` /
    ``measure`` or is followed by ``::`` (a signature) or ``=`` (a
    definition); continuation lines must be indented, Haskell-style.  The
    column anchoring is what lets definition bodies contain ``let x = ...``
    and ascriptions ``(e :: T)``, and multi-line declarations indented
    constructor lines, without closing the chunk early.
    """
    tokens = _tokenize(text)
    starts: List[int] = []
    depth = 0
    for index, (kind, value, position) in enumerate(tokens):
        if kind == "symbol":
            if value in "([{":
                depth += 1
            elif value in ")]}":
                depth = max(0, depth - 1)
        elif (
            kind == "ident"
            and depth == 0
            and (position == 0 or text[position - 1] == "\n")
            and (value in ("data", "measure") or tokens[index + 1].value in ("::", "="))
        ):
            starts.append(index)
    if tokens[0].kind == "eof":
        raise ParseError("empty program", text, 0)
    if not starts or starts[0] != 0:
        raise ParseError(
            "expected a declaration (`data`, `measure`, `name :: type`, or `name = term`)",
            text,
            tokens[0].position,
        )
    return _chunks(text, tokens, starts)


def parse_program(text: str) -> Program:
    """Parse a ``.sq``-style program file.

    The file interleaves, in any order, ``data`` / ``measure`` declarations
    (resolved mutually as in :func:`parse_declarations`), component
    signatures ``name :: type``, checked definitions ``name = term``, and
    synthesis goals ``name = ??``.  Every definition and goal must have a
    signature; ``--`` starts a line comment.
    """
    chunks = _split_program(text)
    datatypes, measures = _resolve_declarations(text, chunks)

    component_types: Dict[str, RType] = {}
    definitions: Dict[str, Term] = {}
    goals: List[str] = []
    defined_at: Dict[str, int] = {}
    for kind, parser in chunks:
        if kind == "sig":
            name, rtype = parser.parse(_Parser.signature_decl)
            if name in component_types:
                raise ParseError(f"duplicate signature for `{name}`", text, parser.offset)
            component_types[name] = rtype
        elif kind == "def":
            name, term = parser.parse(_Parser.definition_decl)
            if name in definitions or name in goals:
                raise ParseError(f"duplicate definition of `{name}`", text, parser.offset)
            if term is None:
                goals.append(name)
            else:
                definitions[name] = term
            defined_at[name] = parser.offset
    for name in list(definitions) + goals:
        if name not in component_types:
            raise ParseError(
                f"`{name}` is defined but has no `{name} :: type` signature",
                text,
                defined_at[name],
            )
    return Program(datatypes, measures, component_types, definitions, tuple(goals))
