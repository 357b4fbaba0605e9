"""A small expression language for q-series verification.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' signed_int]
    atom   := integer | 'q' ['^' exponent] | 'P' '(' int ',' int ')'
            | 'slice' '(' expr ',' int ',' int ')' | '(' expr ')' | '-' factor
    exponent := signed_int | '(' signed_int '/' int ')'

Tokens are ASCII: decimal integers, names of letters and digits, and the
symbols above.  Any other character, a non-ASCII digit or letter among
them, is a ParseError, as is a q exponent with a zero denominator.

P(g, d) is the single-residue product over n > 0, n = g mod d of (1 - q^n),
with P(0, d) (and so P(d, d)) the full (q^d; q^d) factor; slice(e, m, t)
extracts sum_n c[m n + t] q^n from the series of e.

The parser folds monomials as it reads them: every product, quotient, power
or negation of integers, q^s and P atoms is one node
("mono", c, s, {(g, d): e}) for c q^s prod P(g, d)^e, a quotient arriving as
a product with a power -1.  A sum is one flat node ("sum", [(sign, term),
...]).  Evaluation is exact.  A monomial's product is read by
eta.reference_product from the process-wide product cache, under the
product's exponent progressions, where every entry is proved; on a miss it
is one integer Euler transform, sharing no code with the fast route's
pentagonal recurrence.
Sums, slices and the remaining products and powers combine those expansions
as series, each factor deepened by the poles of the others so that every
result is known to the requested order.  Input nested past Python's
recursion limit (at the default, about 240 levels of parentheses or a
product of about 1,000 sums) is a ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import ceil

from .eta import progressions, reference_product
from .series import QSeries, ZeroSeries


class ParseError(ValueError):
    pass


# a number, a name, a symbol, or any other visible character (an error)
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^(),])|(\S)", re.ASCII)


def _tokenize(text: str):
    out = []
    for number, name, symbol, other in _TOKEN.findall(text):
        if other:
            raise ParseError("unexpected character %r" % other)
        out.append(int(number) if number else name or symbol)
    return out


def _mono(c=1, s=0, exps=None):
    return ("mono", Fraction(c), Fraction(s), exps or {})


def _times(a, b):
    """a * b, one monomial when both are."""
    if a[0] != "mono" or b[0] != "mono":
        return ("*", a, b)
    exps = dict(a[3])
    for key, e in b[3].items():
        exps[key] = exps.get(key, 0) + e
    return ("mono", a[1] * b[1], a[2] + b[2], exps)


def _power(a, k: int):
    """a ** k, one monomial when a is."""
    if a[0] != "mono":
        return ("pow", a, k)
    _, c, s, exps = a
    if k < 0 and not c:
        raise ZeroSeries("series has no known nonzero term below its truncation")
    return ("mono", c ** k, s * k, {key: e * k for key, e in exps.items()})


def _negate(a):
    return ("mono", -a[1]) + a[2:] if a[0] == "mono" else ("neg", a)


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

    def accept(self, tok) -> bool:
        found = self.peek() == tok
        self.pos += found
        return found

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
        terms = [(1, self.term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.next() == "+" else -1
            terms.append((sign, self.term()))
        return terms[0][1] if len(terms) == 1 else ("sum", terms)

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            node = _times(node, rhs if op == "*" else _power(rhs, -1))
        return node

    def factor(self):
        node = self.atom()
        return _power(node, self.signed_int()) if self.accept("^") else node

    def signed_int(self):
        neg = False
        while self.accept("-"):
            neg = not neg
        tok = self.next()
        if not isinstance(tok, int):
            raise ParseError("expected an integer exponent, got %r" % tok)
        return -tok if neg else tok

    def q_exponent(self) -> Fraction:
        if not self.accept("("):
            return Fraction(self.signed_int())
        num, den = self.signed_int(), 1
        if self.accept("/"):
            den = self.signed_int()
            if not den:
                raise ParseError("q exponent %d/0 has a zero denominator" % num)
        self.expect(")")
        return Fraction(num, den)

    def atom(self):
        tok = self.next()
        if tok == "-":
            return _negate(self.factor())
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if isinstance(tok, int):
            return _mono(tok)
        if tok == "q":
            return _mono(s=self.q_exponent() if self.accept("^") else 1)
        if tok == "P":
            self.expect("(")
            g = self.signed_int()
            self.expect(",")
            d = self.signed_int()
            self.expect(")")
            if d < 1 or g < 0:
                raise ParseError("need delta >= 1 and g >= 0")
            return _mono(exps={(g % d, d): 1})
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


def _expand_monomial(c, s, exps, order) -> QSeries:
    """c q^s prod P(g, d)^e to q^order through the product cache (reference_product).

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
    """Expand a parsed expression with every exponent below `order` known.

    A nested expression re-expands a factor at a deeper order for every pole
    around it; the product cache turns each repeat of a monomial's product
    into a prefix or an extension of the longest expansion held, in this
    call, an earlier one or a derivation's.
    """
    kind = node[0]
    if kind == "mono":
        return _expand_monomial(*node[1:], order)
    if kind == "sum":
        (_, first), *rest = node[1]
        total = evaluate(first, order)
        for sign, term in rest:
            part = evaluate(term, order)
            total = total + part if sign > 0 else total - part
        return total
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
    _, left, right = node
    a, b = evaluate(left, order), evaluate(right, order)
    # a pole of order p in one factor costs the other p known exponents
    pa, pb = _pole(a), _pole(b)
    if pb:
        a = evaluate(left, order + pb)
    if pa:
        b = evaluate(right, order + pa)
    return a * b


def expand(text: str, order: int) -> QSeries:
    try:
        return evaluate(parse(text), order).truncated(order)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
