"""A small expression language for q-series verification.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' signed_int]
    atom   := integer | 'q' ['^' exponent] | 'P' '(' int ',' int ')'
            | 'slice' '(' expr ',' int ',' int ')' | '(' expr ')' | '-' factor
    exponent := signed_int | '(' signed_int '/' int ')'

P(g, d) is the single-residue product over n > 0, n = g mod d of (1 - q^n),
with P(0, d) (and so P(d, d)) the full (q^d; q^d) factor; slice(e, m, t)
extracts sum_n c[m n + t] q^n from the series of e.

Evaluation is exact.  Every subtree that multiplies, divides, raises or
negates constants, q^s and P atoms collapses to one monomial
c q^s prod P(g, d)^e, whose product is read from the derivation's
reference route (eta.reference_product): one integer Euler transform, held
in the process-wide product cache under the product's exponent
progressions, and sharing no code with the theta-series fast route.  Sums
and slices combine those expansions as series, each factor deepened by the
poles of the others so that every result is known to the requested order.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .eta import progressions, reference_product
from .series import QSeries, ZeroSeries


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
            if d < 1 or g < 0:
                raise ParseError("need delta >= 1 and g >= 0")
            return ("poch", g % d, d)
        if tok == "slice":
            self.expect("(")
            inner = self.expr()
            self.expect(",")
            m = self.signed_int()
            self.expect(",")
            t = self.signed_int()
            self.expect(")")
            if m < 1:
                raise ParseError("slice needs m >= 1")
            return ("slice", inner, m, t)
        raise ParseError("unexpected token %r" % tok)


def parse(text: str):
    return _Parser(_tokenize(text)).parse()


def _monomial(node):
    """(c, s, {(g, d): e}) when node is c q^s prod P(g, d)^e, else None.

    A monomial is a product, quotient, power or negation of constants, q^s
    and P atoms.
    """
    kind = node[0]
    if kind == "const":
        return node[1], Fraction(0), {}
    if kind == "q":
        return Fraction(1), node[1], {}
    if kind == "poch":
        _, g, d = node
        return Fraction(1), Fraction(0), {(g, d): 1}
    if kind == "neg":
        m = _monomial(node[1])
        return m and (-m[0], m[1], m[2])
    if kind == "pow":
        m = _monomial(node[1])
        if m is None:
            return None
        (c, s, exps), k = m, node[2]
        if k < 0 and not c:
            raise ZeroSeries("series has no known nonzero term below its truncation")
        return c ** k, s * k, {key: e * k for key, e in exps.items()}
    if kind == "/":
        return _monomial(("*", node[1], ("pow", node[2], -1)))
    if kind != "*":
        return None
    left = _monomial(node[1])
    right = left and _monomial(node[2])
    if right is None:
        return None
    (c, s, exps), (rc, rs, rexps) = left, right
    for key, e in rexps.items():
        exps[key] = exps.get(key, 0) + e
    return c * rc, s + rs, exps


def _expand_monomial(c, s, exps, order) -> QSeries:
    """c q^s prod P(g, d)^e to q^order through the reference-route product cache.

    P(g, d), its g read modulo d by the parser, contributes e to the
    exponent of (1 - q^n) for every n = g (mod d) from n = g (n = d when
    g = 0), as the plain product does: the progression (g or d, d).  A
    monomial starting at or past q^order is zero to that order.
    """
    if s >= order:
        return QSeries.zero(order)
    lead = QSeries.monomial(s, c, order)
    product = progressions(((g or d, d), e) for (g, d), e in exps.items())
    if not c or not product:
        return lead
    return QSeries.from_ints(reference_product(product, ceil(order - s))).shift(s).scale(c)


def _pole(series: QSeries) -> int:
    lead = series.leading()
    return max(0, ceil(-lead[0])) if lead else 0


def evaluate(node, order: int) -> QSeries:
    """Expand an AST with every exponent below `order` known.

    A nested expression re-expands a factor at a deeper order for every pole
    around it; the product cache turns each repeat of a monomial's product
    into a prefix or an extension of the longest expansion held, in this
    call, an earlier one or a derivation's.
    """
    mono = _monomial(node)
    if mono is not None:
        return _expand_monomial(*mono, order)
    kind = node[0]
    if kind == "neg":
        return -evaluate(node[1], order)
    if kind == "pow":
        _, base, k = node
        inner = evaluate(base, order)
        lead = inner.leading()
        # inner**k is known to (1 - k) * lead fewer exponents than inner
        extra = ceil((1 - k) * lead[0]) if lead else 0
        if extra > 0:
            inner = evaluate(base, order + extra)
        return inner ** k
    if kind == "slice":
        _, inner, m, t = node
        full = evaluate(inner, m * order + t + 1)
        if full.denom != 1:
            raise ParseError("slice needs integer exponents")
        return full.sift(m, t)
    op, left, right = node
    if op == "+":
        return evaluate(left, order) + evaluate(right, order)
    if op == "-":
        return evaluate(left, order) - evaluate(right, order)
    if op == "/":
        op, right = "*", ("pow", right, -1)
    if op == "*":
        a, b = evaluate(left, order), evaluate(right, order)
        # a pole of order p in one factor costs the other p known exponents
        pa, pb = _pole(a), _pole(b)
        if pb:
            a = evaluate(left, order + pb)
        if pa:
            b = evaluate(right, order + pa)
        return a * b
    raise ParseError("unknown node %r" % (node,))


def expand(text: str, order: int) -> QSeries:
    return evaluate(parse(text), order).truncated(order)
