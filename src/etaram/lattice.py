"""Exact integer linear algebra: Hermite forms, Diophantine solving,
bounded coset enumeration, least coset points from reachability tables over
a lattice's quotient Z x F (CosetTables), and Hilbert bases of linear
Diophantine systems.  GroupBits holds subsets of a finite group as ints,
for those tables and for the zero-sum walk below.

Matrices are dense lists of python ints, and the implementations favor
verifiability over asymptotics.  The prefactor lattices and the level
monoids have tens of rows and columns; a multiplier system is wider: 17
rows and 295 columns for p(2n), 21 rows and 1,963 columns for cphi_2(5n+3)
at level 20, whose U holds 3.9 million entries.  hnf_column is the one
elimination routine.  It takes A by rows and gives H and U by columns,
which is how every reader here takes them apart.  A Hilbert basis
is found in the projection of the solution lattice to the nonnegative
coordinates, a lattice L in Z^k; one column Hermite form of the equality
rows stacked on those coordinates' unit rows holds the lineality, a basis
of L and its lifts.  When L has full rank k, which holds for every
pole-free system at levels 2-48, its points in N^k are the y whose class
in the finite group G = Z^k / L is 0, and the minimal ones are the
minimal zero-sum sequences over the columns' classes.
minimal_zero_sum_sequences walks them depth first; by the Davenport bound
(Olson 1969) none is longer than |G|.  minimal_points returns those points
with their coordinates in L's basis, before any lift, and hilbert_basis
lifts every one of them.  The walk raises StepBudgetExceeded at
once when |G| > 2^14, since its path holds up to |G| subset-sum sets of |G|
bits each, and when it would enter more than its node budget of sequences.

A lattice of lower rank takes the slack completion (Contejean-Devie), whose
reducibility scan compares hundreds of thousands of nonnegative vectors
coordinatewise.  It holds each vector packed into one int: entry i sits in
bits [W i, W i + W), and W is chosen so that every entry stays below its
field's top bit, the guard.  With H the sum of the guard bits, s <= x holds
exactly when ((x + H) - s) & H == H: field i of x + H is
x[i] + 2^(W-1) < 2^W, so subtracting s[i] borrows nothing from the field
above and leaves the guard set exactly when x[i] >= s[i].  A field cannot
carry because W leaves room for the largest entry that can occur: the
completion's entries are bounded by its step budget, the scan's by the
largest candidate entry.
"""

from __future__ import annotations

import threading
from math import prod
from operator import add, mul
from typing import NamedTuple


class StepBudgetExceeded(RuntimeError):
    """A Hilbert-basis computation ran out of its budget: the slack
    completion's pops, the zero-sum walk's nodes, or the walk's group order."""


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf_column(A):
    """Column Hermite form of the row-major matrix A.

    Returns (H, U, pivots) with H = A * U, U unimodular, H in column echelon
    form, H and U as lists of columns: pivots is the list of pivot rows, one
    per leading column, strictly increasing; columns past len(pivots) are
    zero.  Each column of H is held with the same column of U below it, so a
    column swap, negation or subtraction of a multiple is one list operation.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    cols = [[row[j] for row in A] + [0] * j + [1] + [0] * (n - j - 1) for j in range(n)]
    pivots = []
    col = 0
    for row in range(m):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if cols[j][row]]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
            cols[col], cols[j0] = cols[j0], cols[col]
            p = cols[col]
            done = True
            for j in range(col + 1, n):
                if cols[j][row]:
                    q = cols[j][row] // p[row]
                    cols[j] = [a - q * b for a, b in zip(cols[j], p)]
                    if cols[j][row]:
                        done = False
            if done:
                break
        p = cols[col]
        if p[row]:
            if p[row] < 0:
                p = cols[col] = [-a for a in p]
            for j in range(col):
                q = cols[j][row] // p[row]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], p)]
            pivots.append(row)
            col += 1
    return [c[:m] for c in cols], [c[m:] for c in cols], pivots


def _combination(coeffs, vectors, n):
    """sum c_j vectors[j] as a list of length n, summing only the vectors
    whose coefficient is nonzero."""
    terms = [v if c == 1 else [c * a for a in v] for c, v in zip(coeffs, vectors) if c]
    return list(map(sum, zip(*terms))) if terms else [0] * n


def kernel_basis(A, hnf=None):
    """Basis (list of int vectors) of the integer kernel of A: the columns of
    U past the rank.

    hnf, when given, must be hnf_column(A), as in solve_diophantine.
    """
    _, U, pivots = hnf_column(A) if hnf is None else hnf
    return [list(u) for u in U[len(pivots):]]


def solve_diophantine(A, b, hnf=None):
    """One integer solution of A x = b, or None.

    hnf, when given, must be hnf_column(A): one factorization then serves
    every right-hand side.  Use kernel_basis for the homogeneous part.
    """
    H, U, pivots = hnf_column(A) if hnf is None else hnf
    y = _hnf_coordinates(b, H, pivots)
    # x = U y, y zero past the rank
    return None if y is None else _combination(y, U, len(U))


def lattice_hnf(vectors, dim):
    """Column-HNF basis of the lattice generated by the given vectors."""
    if not vectors:
        return []
    H, _, pivots = hnf_column([[v[i] for v in vectors] for i in range(dim)])
    return H[:len(pivots)]


# the greedy size reduction often has not settled after these passes, so the
# pinned generator records and identity documents depend on this cap
SIZE_REDUCTION_PASSES = 4


def _size_reducer(basis):
    """Greedy size reduction against one lattice basis, the size-reduction
    step of Lenstra-Lenstra-Lovasz (1982) without its Gram-Schmidt
    orthogonalization: returns reduce(x).

    Each of up to SIZE_REDUCTION_PASSES passes visits the basis in order and
    subtracts k b from x, with k the dot product x.b over b.b rounded half to
    even; a pass that changes nothing ends the reduction.  The norms and each
    vector's nonzero entries are taken once per call, so a step costs the
    support of b, not the length of x: the lineality vectors hilbert_basis
    reduces against have 3 to 8 nonzero entries among up to 295.
    """
    norms = [sum(map(mul, b, b)) for b in basis]
    supports = [[(j, c) for j, c in enumerate(b) if c] for b in basis]

    def reduce(x):
        x = list(x)
        for _ in range(SIZE_REDUCTION_PASSES):
            changed = False
            for support, bb in zip(supports, norms):
                if not bb:
                    continue
                # round half to even, as round(Fraction(dot, bb)) does
                k, r = divmod(sum([x[j] * c for j, c in support]), bb)
                k += 2 * r > bb or (2 * r == bb and k % 2)
                if k:
                    for j, c in support:
                        x[j] -= k * c
                    changed = True
            if not changed:
                break
        return x

    return reduce


def enumerate_coset(v0, basis, weight_bound):
    """All vectors v0 + (integer combination of basis) with l1-norm <= bound,
    as plain lists.

    The walk runs over a column-Hermite form of the basis and visits only
    genuine coset points: fixing the coefficient of column j settles the
    rows from its pivot up to the next pivot.  One running vector holds the
    point being built, and stepping a coefficient adds its column's nonzero
    entries to it, so the settled rows are read off directly.  Leaving a
    column undoes nothing: the vector stays in the coset, and each column's
    coefficient range is read afresh from the vector's pivot row, so the
    walk finds the same points from any starting multiple of a column, and
    from any representative of the coset.  v0 is size-reduced against the
    Hermite columns first, which keeps the walk's entries small.
    """
    dim = len(v0)
    H, _, pivots = hnf_column([[b[i] for b in basis] for i in range(dim)])
    rank = len(pivots)
    cols = H[:rank]
    current = _size_reducer(cols)(v0)
    # rows above the first pivot are the same at every point of a coset
    head = pivots[0] if rank else dim
    used = sum(map(abs, current[:head]))
    if used > weight_bound:
        return []
    if not rank:
        return [current]
    # per column: its pivot row, the end of the rows it settles, the pivot
    # entry and the nonzero entries (row, value), all at or below the pivot
    levels = [(lo, hi, cols[j][lo], [(i, cols[j][i]) for i in range(lo, dim) if cols[j][i]])
              for j, (lo, hi) in enumerate(zip(pivots, pivots[1:] + [dim]))]
    points = []

    def rec(j, used):
        lo, hi, p, support = levels[j]
        budget = weight_bound - used
        # admissible coefficient range from |current[lo] + k p| <= budget,
        # so the pivot row needs no further check
        k_lo = -((budget + current[lo]) // p)
        k_hi = (budget - current[lo]) // p
        if k_lo > k_hi:
            return
        for i, c in support:
            current[i] += (k_lo - 1) * c
        last = j + 1 == rank
        wide = hi - lo > 1
        for _ in range(k_lo, k_hi + 1):
            for i, c in support:
                current[i] += c
            weight = used + abs(current[lo])
            if wide:
                weight += sum(map(abs, current[lo + 1:hi]))
                if weight > weight_bound:
                    continue
            if last:
                points.append(current[:])
            else:
                rec(j + 1, weight)

    rec(0, used)
    return points


def _guard_bits(n, width):
    """The top bit of each of n fields of the given width."""
    return sum(1 << (width * i + width - 1) for i in range(n))


def minimal_nonneg_solutions(rows, progress_limit=2_000_000):
    """Minimal nonzero solutions of (rows) x = 0 over nonnegative integers.

    Breadth-first completion (Contejean-Devie): grow candidate vectors
    coordinatewise, only along directions whose column value decreases the
    current defect, pruning anything dominated by a known solution.  Complete
    and terminating.  Raises StepBudgetExceeded as soon as more than
    progress_limit candidates are certain to be popped, so a frontier that
    cannot be finished is never built in full.
    x grown along j has a parent that passed the dominance test, so a minimal
    s <= x has s[j] == x[j]: x is tested only against minimals under (j, x[j]).
    The directions a candidate grows along depend on its defect v = rows x
    alone, and few defects recur across many pops (241 for 97,996 pops at
    level 18), so each defect's moves are computed once, into `moves`.

    Vectors are packed as the module docstring describes, in fields of
    W = (progress_limit + n).bit_length() + 1 bits, so growing along j adds
    1 << (W j) and a dominance test is one guarded subtraction.  No field
    carries: a level holds the vectors of one coordinate sum and pops at
    least one of them, so before the budget raises no vector is built with
    an entry above progress_limit + 1 < 2^(W-1).  Only the minimals are
    unpacked, to tuples, in the order they were found.
    """
    if not rows:
        raise ValueError("need at least one equation row")
    n = len(rows[0])
    cols = list(zip(*rows))
    width = (progress_limit + n).bit_length() + 1
    mask = (1 << width) - 1
    shifts = [width * j for j in range(n)]
    units = [1 << s for s in shifts]
    H = _guard_bits(n, width)
    minimals = []
    by_entry = {}        # (i, s[i]) -> packed minimals s with that entry
    frontier = {units[j]: (cols[j], j) for j in range(n)}
    moves = {}           # defect v -> (unit_j, (v + col_j, j)) per admissible j
    steps = 0            # candidates popped, this level's counted up front
    while frontier:
        steps += len(frontier)
        if steps > progress_limit:
            raise StepBudgetExceeded("completion exceeded the step budget")
        nxt = {}
        for x, (v, grown) in frontier.items():
            xh = x + H
            for s in by_entry.get((grown, x >> shifts[grown] & mask), ()):
                if (xh - s) & H == H:
                    break           # x is dominated by the minimal s: pruned
            else:
                if not any(v):
                    minimals.append(x)
                    for i in range(n):
                        by_entry.setdefault((i, x >> shifts[i] & mask), []).append(x)
                    continue
                grow = moves.get(v)
                if grow is None:
                    grow = moves[v] = [(units[j], (tuple(map(add, v, cols[j])), j))
                                       for j in range(n) if sum(map(mul, v, cols[j])) < 0]
                for unit, child in grow:
                    x2 = x + unit
                    # x2 sums to one more than x, so only nxt can hold it
                    if x2 not in nxt:
                        nxt[x2] = child
                # every vector of nxt is popped on the next level
                if steps + len(nxt) > progress_limit:
                    raise StepBudgetExceeded("completion exceeded the step budget")
        frontier = nxt
    return [tuple(x >> s & mask for s in shifts) for x in minimals]


class GroupBits:
    """Subsets of a finite group G = prod Z/d held as |G|-bit ints.

    Element a sits at bit index(a) = a_0 + d_0 (a_1 + d_1 (...)).  A set is
    translated by g one factor Z/d at a time: the bits whose digit stays
    below d - g_i move up by g_i strides, the others wrap down by d - g_i.
    steps(g) lists those moves, one (low mask, high mask, up, down) per
    nonzero g_i, for _translate; the masks are made once per (factor,
    amount) and shared by every translation that needs them.
    """

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.strides = tuple(prod(self.moduli[:i]) for i in range(len(self.moduli)))
        self._full = (1 << prod(self.moduli)) - 1
        self._masks = {}

    def index(self, g):
        return sum(a % d * s for a, d, s in zip(g, self.moduli, self.strides))

    def steps(self, g):
        out = []
        for i, (a, d, stride) in enumerate(zip(g, self.moduli, self.strides)):
            a %= d
            if a:
                step = self._masks.get((i, a))
                if step is None:
                    # the bits whose digit of this factor is below d - a
                    low = ((1 << (d - a) * stride) - 1) * (self._full // ((1 << stride * d) - 1))
                    step = self._masks[i, a] = (low, self._full ^ low, a * stride,
                                                (d - a) * stride)
                out.append(step)
        return tuple(out)


def _translate(S, steps):
    """The set S translated by the element whose GroupBits.steps are given."""
    for low, high, up, down in steps:
        S = (S & low) << up | (S & high) >> down
    return S


class CosetTables:
    """The least points of the cosets of one lattice, found from
    reachability tables over its quotient.

    The lattice L is the set of x in Z^dim that extend to an integer
    solution (x, s) of A (x, s) = 0, with hnf = hnf_column(A).  x -> A (x, 0)
    maps Z^dim onto im A / S, S the span of A's columns past dim, with
    kernel L.  H's leading columns, as hnf_column returns them, are a basis
    of im A; in their coordinates S is spanned by the coordinates of A's
    columns past dim, and _congruence_rows of their Hermite basis read the
    quotient as Z^e x F, F finite: the class of x is (z, f), z its value on
    the equality rows and f its residues on the congruence rows.  e must be
    at most 1 (z is 0 when e = 0).  For the prefactor criterion, z is the
    value of its equality row and F is [24, 20] at level 10 and [24, 288]
    at 144.

    Unit vector j has class g_j = (zs[j], classes[j]).  Table T[j][w] holds
    the classes of the vectors on coordinates j, j+1, ... of l1 weight
    exactly w, as {z: |F|-bit int of the f} (GroupBits), and satisfies
    T[j][w] = union over |x| <= w of T[j+1][w - |x|] + x g_j.  The union
    splits by the sign of x into P[j][w] = T[j+1][w] | (P[j][w-1] + g_j)
    and its mirror N[j][w] with -g_j, so a radius costs two translations per
    coordinate, and only the last radius's P and N are kept.

    The tables do not depend on the coset, so one set serves every coset
    of L.  least(v0, bound) grows them radius by radius to the least R whose
    T[0][R] holds v0's class, then fixes x_0, x_1, ... in turn, each at the
    least value that keeps the rest of the class reachable at the weight
    left: the result is the least (weight, vector) of the coset.  A growth
    builds the new radius under a lock and replaces the tables whole, so
    threads share them and read them without the lock.  They hold at most
    dim (R+1)^2 sets of |F| bits.
    """

    def __init__(self, A, hnf, dim):
        H, _, pivots = hnf
        rank = len(pivots)

        def coordinates(j):
            return _hnf_coordinates([row[j] for row in A], H, pivots)

        slack = lattice_hnf([coordinates(j) for j in range(dim, len(A[0]))], rank)
        if rank - len(slack) > 1:
            raise ValueError("the quotient has more than one free factor")
        rows, moduli = _congruence_rows(slack, rank)
        cong = [(row, d) for row, d in zip(rows, moduli) if d]
        free = [row for row, d in zip(rows, moduli) if not d] or [[0] * rank]
        units = [coordinates(j) for j in range(dim)]
        self.dim = dim
        self.group = GroupBits([d for _, d in cong])
        self.zs = tuple(sum(map(mul, free[0], y)) for y in units)
        self.classes = tuple(tuple(sum(map(mul, row, y)) % d for row, d in cong)
                             for y in units)
        # per coordinate: the moves of +g_j and of -g_j
        self._moves = tuple(
            ((z, self.group.steps(g)), (-z, self.group.steps([-a for a in g])))
            for z, g in zip(self.zs, self.classes))
        self._lock = threading.Lock()
        # (radius, T, PN), PN[j] = (P[j][radius], N[j][radius]); T[dim] is
        # the empty suffix, whose one vector is 0
        zero = ({0: 1},)
        self._tables = (0, (zero,) * (dim + 1), ((zero[0], zero[0]),) * dim)

    def _grown(self):
        """The tables one radius on, built from the published ones; the
        caller holds the lock."""
        radius, tables, pn = self._tables
        radius += 1
        below = tables[self.dim] + ({},)
        new_tables = [below]
        new_pn = []
        for j in range(self.dim - 1, -1, -1):
            # P[j][radius] and N[j][radius], then T[j][radius] as their union
            signed = []
            for last, (dz, steps) in zip(pn[j], self._moves[j]):
                grown = dict(below[radius])
                for z, S in last.items():
                    grown[z + dz] = grown.get(z + dz, 0) | _translate(S, steps)
                signed.append(grown)
            total = dict(signed[0])
            for z, S in signed[1].items():
                total[z] = total.get(z, 0) | S
            below = tables[j] + (total,)
            new_tables.append(below)
            new_pn.append(tuple(signed))
        return radius, tuple(new_tables[::-1]), tuple(new_pn[::-1])

    def least(self, v0, bound):
        """The least (weight, vector) point of v0 + L as (weight, list), or
        None when every point weighs more than bound."""
        moduli = self.group.moduli
        z = sum(map(mul, self.zs, v0))
        f = [sum(c[i] * v for c, v in zip(self.classes, v0)) % d for i, d in enumerate(moduli)]
        for weight in range(bound + 1):
            if weight > self._tables[0]:
                with self._lock:
                    if weight > self._tables[0]:
                        self._tables = self._grown()
            tables = self._tables[1]
            if tables[0][weight].get(z, 0) >> self.group.index(f) & 1:
                break
        else:
            return None
        vec = []
        left = weight
        strides = self.group.strides
        for j in range(self.dim):
            if not left:
                vec += [0] * (self.dim - j)
                break
            below, zj, cj = tables[j + 1], self.zs[j], self.classes[j]
            for x in range(-left, left + 1):
                S = below[left - abs(x)].get(z - x * zj)
                if S:
                    g = [(a - x * c) % d for a, c, d in zip(f, cj, moduli)]
                    if S >> sum(map(mul, g, strides)) & 1:
                        break
            vec.append(x)
            z -= x * zj
            f = g
            left -= abs(x)
        return weight, vec


# the walk's subset-sum sets are |G|-bit ints, up to |G| of them on its path
MAX_GROUP_ORDER = 1 << 14
# nodes the walk may enter: level 20 needs 36,210, level 17 over 1.5 million
ZERO_SUM_NODE_LIMIT = 200_000


def minimal_zero_sum_sequences(classes, moduli, node_limit=ZERO_SUM_NODE_LIMIT):
    """Minimal nonzero y >= 0 with sum y_j classes[j] = 0 in G = prod Z/d.

    classes[j] is column j's residue tuple, one entry in [0, d) per modulus d.
    These y are the minimal zero-sum sequences over the columns, the Hilbert
    basis of the lattice of y whose class is 0 intersected with N^k; by the
    Davenport bound none is longer than |G| (Olson 1969).  The walk is depth
    first over nondecreasing sequences of columns that are zero-sum free.
    It carries the sequence's subset sums, the empty one included, as one
    |G|-bit int S (element a sits at bit a_0 + d_0 (a_1 + d_1 (...))), and
    its total t as the one bit of S that is the sum of all.  Column j with
    -g_j == t closes a minimal sequence y + e_j: a proper part summing to 0
    would leave a zero-sum part of y.  Otherwise j extends y exactly when
    -g_j is not in S, and S grows by its translate by g_j (GroupBits).
    Each sequence is reached once, so no minimal vector is found twice and
    none needs a dominance test.

    Raises StepBudgetExceeded at once when |G| > MAX_GROUP_ORDER, and when
    the walk would enter more than node_limit sequences.
    """
    order = prod(moduli)
    if order > MAX_GROUP_ORDER:
        raise StepBudgetExceeded("group of order %d exceeds the zero-sum walk's "
                                 "limit of %d" % (order, MAX_GROUP_ORDER))
    group = GroupBits(moduli)
    translations = [group.steps(g) for g in classes]
    neg = [1 << group.index([-a for a in g]) for g in classes]   # the bit of -g_j

    k = len(classes)
    y = [0] * k
    found = []
    nodes = 0
    path = [[0, 1, 1]]         # per sequence: next column, subset sums S, total t
    while path:
        frame = path[-1]
        j, S, t = frame
        if j == k:
            path.pop()
            if path:            # the parent's cursor is one past our column
                y[path[-1][0] - 1] -= 1
            continue
        frame[0] = j + 1
        if neg[j] == t:
            y[j] += 1
            found.append(tuple(y))
            y[j] -= 1
        elif not S & neg[j]:
            nodes += 1
            if nodes > node_limit:
                raise StepBudgetExceeded("zero-sum walk over a group of order %d "
                                         "exceeded %d nodes" % (order, node_limit))
            y[j] += 1
            steps = translations[j]
            path.append([j, S | _translate(S, steps), _translate(t, steps)])
    return found


class MinimalPoints(NamedTuple):
    """The projected side of a Hilbert basis, before any lift (minimal_points)."""
    points: list      # (y, c) per minimal y of L in N^k, c its coordinates in L's basis
    lifts: list       # the lift in Z^n of each basis vector of L
    lineality: list   # a basis of the solutions that are 0 on every nonneg coordinate

    def lifter(self):
        """lift(c): the solution sum c_j lifts[j], size-reduced against the
        lineality, a list of length n."""
        reduce = _size_reducer(self.lineality)
        n = len(self.lifts[0]) if self.lifts else 0
        return lambda c: reduce(_combination(c, self.lifts, n))


def minimal_points(equalities, nonneg) -> MinimalPoints:
    """The minimal points of the projection of the solutions of
    (equalities) x = 0 to the nonnegative coordinates, with their HNF
    coordinates, the lifts and the lineality: hilbert_basis's input checks
    and factorization, without the lifts.

    One factorization (H, U, pivots) of the equality rows stacked on the
    nonnegative coordinates' unit rows (sorted) gives, as lists of columns,
    the lineality (U's columns past the pivots), the column-HNF basis of the
    projected lattice L (H's columns pivoting in a unit row, sliced to the
    unit rows) and its lifts (U's same columns).  The minimal points of L
    in N^k come from the zero-sum walk when L has full rank (no equality row
    among the congruence rows of _congruence_rows), else from the slack
    completion.  A point y lifts to sum c_j lifts[j], determined up to the
    lineality; a reader that ranks the points by a linear function that
    vanishes on the lineality can rank them by c alone.  Raises
    StepBudgetExceeded when the path taken runs out of its budget.
    """
    if not equalities:
        raise ValueError("need at least one equation row")
    n = len(equalities[0])
    P = sorted(nonneg)
    if any(len(r) != n for r in equalities):
        raise ValueError("ragged equality rows")

    unit_rows = [[1 if j == i else 0 for j in range(n)] for i in P]
    lift_rows = [*equalities, *unit_rows]
    lift_hnf = H, U, pivots = hnf_column(lift_rows)
    lineality = kernel_basis(lift_rows, lift_hnf)
    # a column pivoting in a unit row is zero on every equality row, so those
    # columns of H, read on the unit rows, are the column-HNF basis of L, and
    # the same columns of U are its lifts
    m = len(equalities)
    cols = [j for j, p in enumerate(pivots) if p >= m]
    if not cols:
        return MinimalPoints([], [], lineality)

    k = len(P)
    basis = [H[j][m:] for j in cols]
    rows, moduli = _congruence_rows(basis, k)
    # a modulus 0 marks an equality row: only then has the lattice rank < k
    keep = (_slack_minimals if 0 in moduli else _group_minimals)(rows, moduli, k)

    basis_pivots = [pivots[j] - m for j in cols]
    points = []
    for y in keep:
        c = _hnf_coordinates(y, basis, basis_pivots)
        if c is None:
            raise RuntimeError("projected generator failed to lift")
        points.append((y, c))
    return MinimalPoints(points, [U[j] for j in cols], lineality)


def hilbert_basis(equalities, nonneg):
    """Generators of the solution monoid of a linear Diophantine system: the
    x in Z^n with (equalities) x = 0 and x_i >= 0 for i in nonneg.  There is
    at least one equality row, all of length n; a zero row stands for none.
    The rows are read, never changed.

    Returns (pointed, lineality): every solution is a nonnegative integer
    combination of pointed vectors plus an arbitrary integer combination of
    lineality vectors, and no pointed vector decomposes into others.

    minimal_points gives the minimal points of the projection to the
    nonnegative coordinates with their HNF coordinates; every one of them is
    lifted through its coordinates and size-reduced against the lineality,
    and the lifts are sorted by l1 norm, then entrywise.  Raises
    StepBudgetExceeded when the projected step runs out of its budget.
    """
    minimal = minimal_points(equalities, nonneg)
    lift = minimal.lifter()
    # c is sparse: about 4-5 of 9-10 coordinates at levels 18 and 20
    pointed = [lift(c) for _, c in minimal.points]
    pointed.sort(key=lambda v: (sum(map(abs, v)), v))
    return pointed, minimal.lineality


def _congruence_rows(basis, k):
    """Rows and moduli such that y in Z^k lies in the lattice spanned by the
    column-HNF basis exactly when row . y = 0 mod d for every pair, where a
    modulus 0 marks an equality row.

    Column Hermite forms of the basis matrix B's transpose and of B itself,
    alternated, reach a diagonal D = R B V (Kannan-Bachem 1979); only the
    row transform R is kept.  A form's columns are the rows of the next
    form's input, so no matrix is transposed.  y lies in the lattice exactly
    when R y lies in D Z^r, so rows below the rank r are R's rows reduced
    mod D's entries (the entries 1 give no condition) and the rows past r
    are equality rows.
    """
    M = basis
    R = _identity(k)
    while any(c for j, col in enumerate(M) for i, c in enumerate(col) if i != j):
        # hnf_column reads the columns it is given as rows: T = M^T V
        T, V, _ = hnf_column(M)
        R = [_combination(v, R, k) for v in V]
        M = hnf_column(T)[0]
    rows = []
    moduli = []
    for i in range(len(basis)):
        d = M[i][i]
        if d > 1:
            rows.append([c - d if c > d - c else c for c in (c % d for c in R[i])])
            moduli.append(d)
    return rows + R[len(basis):], moduli + [0] * (k - len(basis))


def _hnf_coordinates(y, basis, pivots):
    """The integers c with y = sum c_j basis[j], by back-substitution on the
    pivot rows of a column-HNF basis, or None when y is not in its lattice."""
    residual = list(y)
    c = []
    for b, p in zip(basis, pivots):
        q, r = divmod(residual[p], b[p])
        if r:
            return None
        c.append(q)
        if q:
            for i in range(p, len(residual)):
                residual[i] -= q * b[i]
    return None if any(residual) else c


def _group_minimals(rows, moduli, k):
    """The Hilbert basis of the full-rank lattice {y : row . y = 0 mod d}
    intersected with N^k: the minimal zero-sum sequences over the columns'
    classes in the product of the Z/d."""
    return minimal_zero_sum_sequences(
        [tuple(r[j] % d for r, d in zip(rows, moduli)) for j in range(k)], moduli)


def _slack_minimals(rows, moduli, k):
    """The same Hilbert basis for rows that may include equality rows
    (modulus 0), by the completion over one (-d, +d) slack pair per
    congruence row, projected to the first k coordinates and filtered to
    its minimal vectors."""
    width = k + 2 * sum(1 for d in moduli if d)
    full_rows = []
    slack_at = k
    for row, d in zip(rows, moduli):
        r = row + [0] * (width - k)
        if d:
            r[slack_at] = -d
            r[slack_at + 1] = d
            slack_at += 2
        full_rows.append(r)
    if not full_rows:
        full_rows = [[0] * width]

    raw = minimal_nonneg_solutions(full_rows)
    candidates = dict.fromkeys(y for y in (tuple(x[:k]) for x in raw) if any(y))

    # every candidate lies in the lattice, so one dominated by another is
    # their sum with a lattice vector of N^k: y is kept unless some other
    # candidate g0 <= y, one guarded subtraction on packed vectors
    bits = max(map(max, candidates), default=0).bit_length() + 1
    H = _guard_bits(k, bits)
    packed = [sum(c << (bits * i) for i, c in enumerate(y)) for y in candidates]
    keep = []
    for y, yp in zip(candidates, packed):
        yh = yp + H
        if not any((yh - g) & H == H and g != yp for g in packed):
            keep.append(y)
    return keep
