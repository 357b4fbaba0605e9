"""A small expression language for q-series verification.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' signed_int]
    atom   := integer | 'q' ['^' exponent] | 'P' '(' int ',' int ')'
            | 'slice' '(' expr ',' int ',' int ')' | '(' expr ')' | '-' factor
    exponent := signed_int | '(' signed_int '/' int ')'

P(g, d) is the single-residue product over n > 0, n = g mod d of (1 - q^n),
with P(0, d) the full (q^d; q^d) factor; slice(e, m, t) extracts
sum_n c[m n + t] q^n from the series of e.  Evaluation is exact and uses the
plain product constructors only, so it is an independent route from the
theta-based expansions used elsewhere.
"""

from __future__ import annotations

from fractions import Fraction

from .series import QSeries, pochhammer


class ParseError(ValueError):
    pass


_TOKENS = ("+", "-", "*", "/", "^", "(", ")", ",")


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKENS:
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ParseError("unexpected character %r" % ch)
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got))

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ParseError("trailing input at %r" % self.peek())
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        node = self.atom()
        if self.peek() == "^":
            self.next()
            node = ("pow", node, self.signed_int())
        return node

    def signed_int(self):
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        tok = self.next()
        if not isinstance(tok, int):
            raise ParseError("expected an integer exponent, got %r" % tok)
        return -tok if neg else tok

    def q_exponent(self) -> Fraction:
        if self.peek() == "(":
            self.next()
            num = self.signed_int()
            if self.peek() == "/":
                self.next()
                den = self.signed_int()
                value = Fraction(num, den)
            else:
                value = Fraction(num)
            self.expect(")")
            return value
        return Fraction(self.signed_int())

    def atom(self):
        tok = self.next()
        if tok == "-":
            return ("neg", self.factor())
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if isinstance(tok, int):
            return ("const", Fraction(tok))
        if tok == "q":
            if self.peek() == "^":
                self.next()
                return ("q", self.q_exponent())
            return ("q", Fraction(1))
        if tok == "P":
            self.expect("(")
            g = self.signed_int()
            self.expect(",")
            d = self.signed_int()
            self.expect(")")
            return ("poch", g, d)
        if tok == "slice":
            self.expect("(")
            inner = self.expr()
            self.expect(",")
            m = self.signed_int()
            self.expect(",")
            t = self.signed_int()
            self.expect(")")
            return ("slice", inner, m, t)
        raise ParseError("unexpected token %r" % tok)


def parse(text: str):
    return _Parser(_tokenize(text)).parse()


def evaluate(node, order: int, memo=None) -> QSeries:
    """Expand an AST to the requested order (exponents below `order` known);
    memo holds this call's P(g, d) expansions, keyed (g, d, order)."""
    memo = {} if memo is None else memo
    kind = node[0]
    if kind == "const":
        c = node[1]
        return QSeries({0: c} if c else {}, order)
    if kind == "q":
        return QSeries.monomial(node[1], 1, order)
    if kind == "poch":
        key = (node[1], node[2], max(order, 1))
        return memo[key] if key in memo else memo.setdefault(key, pochhammer(*key))
    if kind == "neg":
        return -evaluate(node[1], order, memo)
    if kind == "pow":
        _, base, k = node
        inner_order = order
        if k:
            # a pole of the base deepens the needed range of the inner series
            lead = evaluate(base, max(order, 4), memo).leading()
            if lead is not None and lead[0] < 0:
                inner_order = order + int(-lead[0]) * (abs(k) + 1)
        return evaluate(base, inner_order, memo) ** k
    if kind == "slice":
        _, inner, m, t = node
        full = evaluate(inner, m * order + t + 1, memo)
        if full.denom != 1:
            raise ParseError("slice needs integer exponents")
        return full.sift(m, t)
    op, left, right = node
    if op == "+":
        return evaluate(left, order, memo) + evaluate(right, order, memo)
    if op == "-":
        return evaluate(left, order, memo) - evaluate(right, order, memo)
    if op == "*":
        return evaluate(left, order, memo) * evaluate(right, order, memo)
    if op == "/":
        num = evaluate(left, order, memo)
        lead = evaluate(right, 4, memo).leading()
        extra = int(2 * abs(lead[0])) + 2 if lead is not None and lead[0] != 0 else 0
        return num * evaluate(right, order + extra, memo).invert()
    raise ParseError("unknown node %r" % (node,))


def expand(text: str, order: int) -> QSeries:
    return evaluate(parse(text), order).truncated(order)
