import itertools
import random
from math import prod
from operator import mul

import pytest

from etaram import identities, lattice
from etaram.cusps import cusp_order_bounds
from etaram.eta import PartitionSpec
from etaram.generators import generators, pole_free_system
from etaram.identities import find_multiplier
from etaram.lattice import (
    CosetTables, GroupBits, StepBudgetExceeded, _size_reducer, enumerate_coset,
    hilbert_basis, hnf_column, kernel_basis, lattice_hnf, minimal_nonneg_solutions,
    minimal_zero_sum_sequences, solve_diophantine,
)
from etaram.modularity import find_level, find_prefactor


def _row_major_hnf(A):
    """The column Hermite form by the row-major elimination: each column
    operation walks every row of H and of U.  The oracle for hnf_column,
    which holds the same matrices by columns."""
    m = len(A)
    n = len(A[0]) if m else 0
    H = [row[:] for row in A]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(i, j):
        for M in (H, U):
            for row in M:
                row[i], row[j] = row[j], row[i]

    def col_addmul(dst, src, q):
        if q:
            for M in (H, U):
                for row in M:
                    row[dst] -= q * row[src]

    def col_negate(i):
        for M in (H, U):
            for row in M:
                row[i] = -row[i]

    pivots = []
    col = 0
    for row in range(m):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if H[row][j]]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(H[row][j]))
            if j0 != col:
                col_swap(col, j0)
            done = True
            for j in range(col + 1, n):
                if H[row][j]:
                    col_addmul(j, col, H[row][j] // H[row][col])
                    if H[row][j]:
                        done = False
            if done:
                break
        if H[row][col]:
            if H[row][col] < 0:
                col_negate(col)
            for j in range(col):
                col_addmul(j, col, H[row][j] // H[row][col])
            pivots.append(row)
            col += 1
    return H, U, pivots


def _columns(M, n):
    """The n columns of the row-major matrix M."""
    return [[row[j] for row in M] for j in range(n)]


def _random_matrix(rng, m, n):
    """An m x n matrix with entries in [-6, 6], some of its rows and columns
    zero, some rows repeated."""
    A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    for row in A:
        if rng.random() < 0.2:
            row[:] = [0] * n
    for j in range(n):
        if rng.random() < 0.2:
            for row in A:
                row[j] = 0
    if m > 1 and rng.random() < 0.3:
        A[-1] = A[0][:]
    return A


def test_hnf_column_is_the_row_major_elimination_by_columns():
    rng = random.Random(1)
    # no rows ([], which has no columns either) and rows of no columns
    shapes = [(0, 0), (3, 0)] + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(300)]
    ranks = set()
    for m, n in shapes:
        A = _random_matrix(rng, m, n)
        H, U, pivots = _row_major_hnf(A)
        assert hnf_column(A) == (_columns(H, n), _columns(U, n), pivots), A
        ranks.add(min(len(pivots), 2) if m and n else None)
    assert ranks == {None, 0, 1, 2}
    # zero rows and zero columns at once: rank 0, U the identity
    for m, n in [(1, 1), (3, 2), (2, 4)]:
        A = [[0] * n for _ in range(m)]
        H, U, pivots = hnf_column(A)
        assert (H, pivots) == ([[0] * m] * n, [])
        assert U == [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def test_hnf_reproduces_matrix():
    rng = random.Random(1)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        H, U, pivots = hnf_column(A)
        # A u_j = h_j, column by column
        assert [[sum(map(mul, row, u)) for row in A] for u in U] == H
        for j, row in enumerate(pivots):
            assert H[j][row] > 0
            assert all(H[j][r] == 0 for r in range(row))
        assert all(not any(h) for h in H[len(pivots):])


def test_rank_zero_and_empty_systems():
    # the zero vector of length n solves A x = 0 at rank 0, and nothing
    # solves A x = b for b != 0
    for m, n in [(1, 1), (2, 3), (3, 1)]:
        A = [[0] * n for _ in range(m)]
        assert solve_diophantine(A, [0] * m) == [0] * n
        assert solve_diophantine(A, [1] + [0] * (m - 1)) is None
        assert kernel_basis(A) == [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    # no columns: only b = 0 is reached, by the empty vector
    assert solve_diophantine([[], []], [0, 0]) == []
    assert solve_diophantine([[], []], [0, 1]) is None
    assert kernel_basis([[], []]) == []
    # no rows
    assert solve_diophantine([], []) == [] and kernel_basis([]) == []
    assert lattice_hnf([], 3) == [] and lattice_hnf([[0, 0, 0]], 3) == []


def test_kernel_and_solve():
    rng = random.Random(2)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        for v in kernel_basis(A):
            assert all(sum(A[i][j] * v[j] for j in range(n)) == 0 for i in range(m))
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
        sol = solve_diophantine(A, b)
        assert sol is not None
        assert [sum(A[i][j] * sol[j] for j in range(n)) for i in range(m)] == b


def test_solve_detects_infeasible():
    assert solve_diophantine([[2]], [1]) is None
    assert solve_diophantine([[2, 4]], [3]) is None
    assert solve_diophantine([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None


def test_solve_with_precomputed_hnf_matches_fresh_solve():
    rng = random.Random(12)
    infeasible = 0
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        hnf = hnf_column(A)
        for _ in range(3):
            if rng.random() < 0.5:
                x = [rng.randint(-3, 3) for _ in range(n)]
                b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
            else:
                b = [rng.randint(-9, 9) for _ in range(m)]
            fresh = solve_diophantine(A, b)
            infeasible += fresh is None
            assert solve_diophantine(A, b, hnf) == fresh, (A, b)
        assert kernel_basis(A, hnf) == kernel_basis(A), A
    assert infeasible > 20


def _l1_ball(dim, W):
    """Every integer vector of length dim with l1-norm <= W."""
    if dim == 0:
        yield ()
        return
    for x in range(-W, W + 1):
        for rest in _l1_ball(dim - 1, W - abs(x)):
            yield (x,) + rest


def _coset_by_ball_scan(v0, basis, W):
    """The coset points of l1-norm <= W: every vector of the ball whose
    difference from v0 lies in the lattice, so none can be missed."""
    cols = lattice_hnf(basis, len(v0))
    return {v for v in _l1_ball(len(v0), W)
            if solve_diophantine([list(r) for r in zip(*cols)],
                                 [a - b for a, b in zip(v, v0)]) is not None}


def _check_coset(v0, basis, W):
    got = [tuple(v) for v in enumerate_coset(v0, basis, W)]
    assert len(set(got)) == len(got)
    assert set(got) == _coset_by_ball_scan(v0, basis, W), (v0, basis, W)
    return got


def _segment_lengths(basis, dim):
    _, _, pivots = hnf_column([[b[i] for b in basis] for i in range(dim)])
    return [hi - lo for lo, hi in zip(pivots, pivots[1:] + [dim])]


def test_enumerate_coset_matches_ball_scan():
    rng = random.Random(3)
    multi_row = 0
    for _ in range(25):
        dim = rng.randint(2, 4)
        nb = rng.randint(1, dim)
        basis = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(nb)]
        basis = [b for b in basis if any(b)]
        if not basis:
            continue
        v0 = [rng.randint(-2, 2) for _ in range(dim)]
        W = 5
        _check_coset(v0, basis, W)
        multi_row += max(_segment_lengths(basis, dim)) > 1
    assert multi_row >= 5
    # a basis of rank 0 leaves v0 alone
    for basis in ([], [[0, 0, 0]]):
        assert _check_coset([1, -2, 0], basis, 3) == [(1, -2, 0)]
        assert _check_coset([1, -2, 0], basis, 2) == []


def test_enumerate_coset_with_several_rows_per_segment():
    # pivots at rows 0 and 2: column 0 settles rows 0-1, column 1 rows 2-4
    basis = [[1, 1, -1, 0, 2], [0, 0, 3, 1, -1]]
    assert _segment_lengths(basis, 5) == [2, 3]
    for v0 in ([0, 0, 0, 0, 0], [1, -2, 0, 1, 0], [0, 1, 2, 0, -1]):
        for W in range(6):
            _check_coset(v0, basis, W)
    # a fixed coordinate before the first pivot, which no basis vector moves
    basis = [[0, 2, 1, 1], [0, 0, 0, 3]]
    assert _segment_lengths(basis, 4) == [2, 1]
    for W in range(6):
        _check_coset([1, 0, 1, 1], basis, W)
    assert sorted(_check_coset([1, 0, 1, 1], basis, 3)) == [(1, -2, 0, 0), (1, 0, 1, 1)]
    assert _check_coset([3, 0, 1, 1], basis, 4) == []


def test_enumerate_coset_of_the_level_10_prefactor_shape():
    # seven free coordinates, then two rows fixed by congruences mod 20 and
    # mod 12, as in the level-10 prefactor coset: the walk learns only at
    # the bottom whether a point exists
    dim = 9
    basis = []
    for i, (c20, c12) in enumerate([(10, 9), (10, 0), (3, 7), (7, 3), (4, 7), (11, 0),
                                    (16, 7)]):
        col = [0] * dim
        col[i], col[7], col[8] = 1, c20, c12
        basis.append(col)
    basis += [[0] * 7 + [20, 4], [0] * 8 + [12]]
    assert _segment_lengths(basis, dim) == [1] * dim
    rng = random.Random(10)
    found = 0
    for v0 in [[0] * dim] + [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(3)]:
        found += len(_check_coset(v0, basis, 4))
    assert found > 1


def _random_system(rng, dim, equality):
    """An optional equality row and one or two congruence rows over dim
    variables, each congruence with its slack column: A (x, s) = b."""
    rows = []
    if equality:
        rows.append([rng.randint(-2, 2) or 1 for _ in range(dim)])
    moduli = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 2))]
    rows += [[rng.randint(-3, 3) for _ in range(dim)] for _ in moduli]
    nslack = len(moduli)
    A = [row + [0] * nslack for row in rows]
    for i, d in enumerate(moduli):
        A[len(rows) - nslack + i][dim + i] = d
    return A


def test_coset_tables_find_the_least_point_of_the_ball_scan():
    rng = random.Random(17)
    found = empty = 0
    for trial in range(60):
        dim = rng.randint(1, 4)
        A = _random_system(rng, dim, equality=trial % 3 != 0)
        hnf = hnf_column([row[:] for row in A])
        tables = CosetTables(A, hnf, dim)
        basis = [v[:dim] for v in kernel_basis(A, hnf)]
        for _ in range(4):
            x0 = [rng.randint(-3, 3) for _ in range(dim)]
            W = rng.randint(0, 5)
            scan = _coset_by_ball_scan(x0, basis, W)
            expect = min(((sum(map(abs, v)), list(v)) for v in scan), default=None)
            assert tables.least(x0, W) == expect, (A, x0, W)
            found += expect is not None
            empty += expect is None
    assert found >= 120 and empty >= 60


def test_coset_tables_refuse_two_free_factors():
    # two equality rows leave Z^2 in the quotient
    A = [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError, match="more than one free factor"):
        CosetTables(A, hnf_column([row[:] for row in A]), 3)


def test_group_bits_translate_by_element_addition():
    rng = random.Random(5)
    moduli = (4, 6, 3)
    group = GroupBits(moduli)
    elements = list(itertools.product(*(range(d) for d in moduli)))
    for _ in range(20):
        chosen = rng.sample(elements, 7)
        g = [rng.randrange(-2 * d, 2 * d) for d in moduli]
        S = sum(1 << group.index(a) for a in chosen)
        moved = {tuple((a + b) % d for a, b, d in zip(e, g, moduli)) for e in chosen}
        assert lattice._translate(S, group.steps(g)) == sum(1 << group.index(e) for e in moved)


def test_reduce_mod_lattice_stays_in_coset():
    basis = [[3, 0, 1], [0, 2, 5]]
    v = [10, -9, 14]
    r = _size_reducer(basis)(v)
    assert solve_diophantine([list(row) for row in zip(*basis)],
                             [a - b for a, b in zip(v, r)]) is not None
    assert sum(abs(c) for c in r) <= sum(abs(c) for c in v)


def test_minimal_nonneg_simple():
    # x = y over naturals: minimal solution (1, 1)
    assert minimal_nonneg_solutions([[1, -1]]) == [(1, 1)]
    # 2x = 3y: minimal (3, 2)
    assert minimal_nonneg_solutions([[2, -3]]) == [(3, 2)]


def _reference_minimal_nonneg_solutions(rows):
    """The completion with a full dominance scan and a set of every visited
    vector; returns the minimals and the number of candidates popped."""
    m = len(rows)
    n = len(rows[0])
    cols = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
    minimals = []
    frontier = {}
    for j in range(n):
        x = tuple(1 if i == j else 0 for i in range(n))
        frontier[x] = cols[j]
    seen = set(frontier)
    steps = 0
    while frontier:
        nxt = {}
        for x, v in frontier.items():
            steps += 1
            if any(all(a >= b for a, b in zip(x, s)) for s in minimals):
                continue
            if not any(v):
                minimals.append(x)
                continue
            for j in range(n):
                if sum(a * b for a, b in zip(v, cols[j])) < 0:
                    x2 = x[:j] + (x[j] + 1,) + x[j + 1:]
                    if x2 in seen:
                        continue
                    seen.add(x2)
                    nxt[x2] = tuple(a + b for a, b in zip(v, cols[j]))
        frontier = nxt
    return minimals, steps


def _assert_matches_reference(rows):
    expect, steps = _reference_minimal_nonneg_solutions(rows)
    assert minimal_nonneg_solutions(rows, progress_limit=steps) == expect, rows
    with pytest.raises(StepBudgetExceeded):
        minimal_nonneg_solutions(rows, progress_limit=steps - 1)


def _random_rows(rng):
    """1-3 rows over 2-4 columns; some rows get a (-d, +d) slack pair, as the
    congruence rows of the pole-free systems do."""
    k = rng.randint(2, 4)
    rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 3))]
    moduli = [rng.choice((0, 0, 2, 3)) for _ in rows]
    width = k + 2 * sum(1 for d in moduli if d)
    out, at = [], k
    for row, d in zip(rows, moduli):
        r = row + [0] * (width - k)
        if d:
            r[at], r[at + 1] = -d, d
            at += 2
        out.append(r)
    return out


def test_completion_matches_full_scan_on_random_systems():
    rng = random.Random(4)
    for _ in range(100):
        _assert_matches_reference(_random_rows(rng))


LEVELS_THAT_COMPLETE = list(range(2, 17)) + [18]


def test_group_path_matches_slack_path_on_level_systems(monkeypatch):
    group = {N: hilbert_basis(*pole_free_system(N)) for N in LEVELS_THAT_COMPLETE}
    captured = {}
    original = lattice.minimal_nonneg_solutions

    def capture(rows, *args, **kwargs):
        captured.setdefault(N, []).append(rows)
        return original(rows, *args, **kwargs)

    # force the slack completion where the zero-sum walk would run
    monkeypatch.setattr(lattice, "_group_minimals", lattice._slack_minimals)
    monkeypatch.setattr(lattice, "minimal_nonneg_solutions", capture)
    for N in LEVELS_THAT_COMPLETE:
        assert hilbert_basis(*pole_free_system(N)) == group[N], N
    assert sorted(captured) == LEVELS_THAT_COMPLETE
    assert all(len(calls) == 1 for calls in captured.values())
    # and the completion itself matches the full scan on level-size systems
    for N in (11, 14, 15):
        _assert_matches_reference(captured[N][0])


def _reference_zero_sum_walk(classes, moduli):
    """The zero-sum walk on residue tuples and python sets: the minimal
    zero-sum vectors and the number of zero-sum-free sequences entered."""
    k = len(classes)

    def add(a, b):
        return tuple((x + z) % d for x, z, d in zip(a, b, moduli))

    zero = tuple(0 for _ in moduli)
    negs = [tuple(-x % d for x, d in zip(g, moduli)) for g in classes]
    found, nodes = set(), 0

    def walk(lo, y, sums, total):
        nonlocal nodes
        for j in range(lo, k):
            z = y[:j] + (y[j] + 1,) + y[j + 1:]
            if negs[j] == total:
                found.add(z)
            elif negs[j] not in sums:
                nodes += 1
                walk(j, z, sums | {add(s, classes[j]) for s in sums},
                     add(total, classes[j]))

    walk(0, (0,) * k, {zero}, zero)
    return found, nodes


def _simplex(k, n):
    """Every vector of k nonnegative integers summing to at most n."""
    if k == 0:
        yield ()
        return
    for x in range(n + 1):
        for rest in _simplex(k - 1, n - x):
            yield (x,) + rest


def _minimal_zero_sums_by_box_scan(classes, moduli):
    """Minimal nonzero y >= 0 of class 0, scanned over the box sum(y) <= |G|
    (a longer sequence has a zero-sum prefix difference, so no minimal
    vector lies outside it)."""
    order = prod(moduli)
    zero_sums = [y for y in _simplex(len(classes), order) if any(y) and all(
        sum(c * g[i] for c, g in zip(y, classes)) % d == 0 for i, d in enumerate(moduli))]
    minimals = []
    for y in sorted(zero_sums, key=sum):
        if not any(all(a <= b for a, b in zip(m, y)) for m in minimals):
            minimals.append(y)
    return set(minimals)


GROUPS = [(), (2,), (3,), (5,), (7,), (2, 2), (2, 3), (3, 3), (2, 10), (2, 2, 2),
          (4, 2), (12,), (30,), (2, 2, 6), (3, 9)]


def test_zero_sum_walk_matches_box_scan():
    rng = random.Random(21)
    seen = set()
    for trial in range(100):
        moduli = list(GROUPS[trial % len(GROUPS)])
        k = rng.randint(1, 4)
        classes = [tuple(rng.randrange(d) for d in moduli) for _ in range(k)]
        expect = _minimal_zero_sums_by_box_scan(classes, moduli)
        got = minimal_zero_sum_sequences(classes, moduli)
        assert len(got) == len(set(got))
        assert set(got) == expect, (classes, moduli)
        reference, nodes = _reference_zero_sum_walk(classes, moduli)
        assert reference == expect
        seen.add(tuple(moduli))
    assert seen == set(GROUPS)


def test_zero_sum_walk_budget_is_exact():
    rng = random.Random(22)
    for trial in range(30):
        moduli = list(GROUPS[trial % len(GROUPS)])
        classes = [tuple(rng.randrange(d) for d in moduli) for _ in range(rng.randint(1, 5))]
        expect, nodes = _reference_zero_sum_walk(classes, moduli)
        assert set(minimal_zero_sum_sequences(classes, moduli, node_limit=nodes)) == expect
        if nodes:
            with pytest.raises(StepBudgetExceeded, match="exceeded %d nodes" % (nodes - 1)):
                minimal_zero_sum_sequences(classes, moduli, node_limit=nodes - 1)


class _Captured(Exception):
    pass


def _level_walk_arguments(monkeypatch, N):
    """The (classes, moduli) that hilbert_basis hands the walk at level N."""
    def capture(classes, moduli):
        raise _Captured(classes, moduli)

    monkeypatch.setattr(lattice, "minimal_zero_sum_sequences", capture)
    with pytest.raises(_Captured) as info:
        hilbert_basis(*pole_free_system(N))
    monkeypatch.undo()
    return info.value.args


@pytest.mark.parametrize("N, order, nodes, count", [
    (18, 21, 2379, 377), (20, 60, 36210, 1952)])
def test_zero_sum_walk_nodes_at_levels_under_the_budget(monkeypatch, N, order, nodes, count):
    classes, moduli = _level_walk_arguments(monkeypatch, N)
    assert prod(moduli) == order
    assert nodes < lattice.ZERO_SUM_NODE_LIMIT
    assert len(minimal_zero_sum_sequences(classes, moduli, node_limit=nodes)) == count
    with pytest.raises(StepBudgetExceeded):
        minimal_zero_sum_sequences(classes, moduli, node_limit=nodes - 1)


def test_zero_sum_walk_refuses_a_large_group_at_once():
    order = lattice.MAX_GROUP_ORDER + 1
    with pytest.raises(StepBudgetExceeded, match="group of order %d exceeds" % order):
        minimal_zero_sum_sequences([(1,)], [order], node_limit=0)
    # the largest group allowed still runs: a cyclic generator closes at |G|
    order -= 1
    assert minimal_zero_sum_sequences([(0,), (1,)], [order]) == [(1, 0), (0, order)]


@pytest.mark.parametrize("rows", [
    [[1, -64]],                     # minimal (64, 1)
    [[1, -200]],                    # minimal (200, 1)
    [[1, -100, 0], [0, 1, -1]],     # minimal (100, 1, 1)
    # minimal (1, 0, 1), but its 22 pops reach a coordinate of 17: past the
    # guard bit of a field one bit narrower than the completion's
    [[3, -69, -3], [-2, 2, 2]],
], ids=["k64", "k200", "two-rows", "two-rows-deep-pops"])
def test_completion_fields_hold_large_coordinates(rows):
    # progress_limit at the exact step count gives the narrowest packed
    # fields; a large coordinate must neither carry into the next field nor
    # spoil the dominance test
    _assert_matches_reference(rows)


def test_step_budget_is_typed():
    rows = [[2, -3, 1, -1, 0, 0], [1, 1, -2, 0, -2, 2]]
    expect, steps = _reference_minimal_nonneg_solutions(rows)
    assert minimal_nonneg_solutions(rows, progress_limit=steps) == expect
    with pytest.raises(StepBudgetExceeded) as info:
        minimal_nonneg_solutions(rows, progress_limit=steps - 1)
    assert isinstance(info.value, RuntimeError)


def test_hilbert_trivial_one_variable():
    # one zero row stands for no condition; a system with no row is refused
    pointed, lineality = hilbert_basis([[0]], [0])
    assert pointed == [[1]]
    assert lineality == []
    with pytest.raises(ValueError):
        hilbert_basis([], [0])


def in_monoid(x, pointed, lineality, nonneg):
    lin_cols = lattice_hnf(lineality, len(x)) if lineality else []

    def rec(idx, acc):
        rem = [a - b for a, b in zip(x, acc)]
        if all(rem[i] >= 0 for i in nonneg):
            diff_ok = solve_diophantine([list(r) for r in zip(*lin_cols)], rem) is not None
            if diff_ok and all(rem[i] == 0 for i in nonneg):
                return True
        if idx == len(pointed):
            return False
        g = pointed[idx]
        acc2 = list(acc)
        while True:
            if rec(idx + 1, acc2):
                return True
            acc2 = [a + b for a, b in zip(acc2, g)]
            if any(acc2[i] > x[i] for i in nonneg if g[i] > 0) and any(g[i] > 0 for i in nonneg):
                if any(acc2[i] > x[i] for i in nonneg):
                    return False
    return rec(0, [0] * len(x))


def test_hilbert_random_small_systems_against_enumeration():
    rng = random.Random(20240518)
    done = 0
    while done < 12:
        n = 3
        m = rng.randint(1, 2)
        eqs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        nonneg = sorted(rng.sample(range(n), rng.randint(1, n)))
        if all(all(c == 0 for c in r) for r in eqs):
            continue
        try:
            pointed, lineality = hilbert_basis(eqs, nonneg)
        except RuntimeError:
            continue
        # soundness: generators solve the system
        for v in pointed:
            assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in eqs)
            assert all(v[i] >= 0 for i in nonneg)
        for v in lineality:
            assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in eqs)
            assert all(v[i] == 0 for i in nonneg)
        # completeness on a box: every box solution is generated
        for x in itertools.product(range(-6, 7), repeat=n):
            if any(x[i] < 0 for i in nonneg):
                continue
            if any(sum(r[j] * x[j] for j in range(n)) for r in eqs):
                continue
            assert in_monoid(list(x), pointed, lineality, nonneg), (eqs, nonneg, x)
        done += 1


def test_hilbert_pointed_minimality():
    rng = random.Random(99)
    for _ in range(10):
        n = 4
        eqs = [[rng.randint(-2, 2) for _ in range(n)]]
        nonneg = [0, 1]
        pointed, lineality = hilbert_basis(eqs, nonneg)
        for i, v in enumerate(pointed):
            others = pointed[:i] + pointed[i + 1:]
            assert not in_monoid(v, others, lineality, nonneg), (eqs, v)


# -- the lift of the minimal vectors --------------------------------------------

def _greedy_size_reduction(v, basis):
    """The greedy loop of the per-vector lift, written out: every dot
    product recomputed on every pass, x updated at every step, at most four
    passes."""
    x = list(v)
    norms = [sum(a * a for a in b) for b in basis]
    for _ in range(4):
        changed = False
        for b, bb in zip(basis, norms):
            if not bb:
                continue
            k, r = divmod(sum(a * c for a, c in zip(x, b)), bb)
            k += 2 * r > bb or (2 * r == bb and k % 2)
            if k:
                x = [a - k * c for a, c in zip(x, b)]
                changed = True
        if not changed:
            break
    return x


def test_reduce_mod_lattice_is_the_greedy_loop():
    # dense and sparse bases, a zero vector among them, at the four-pass cap
    assert lattice.SIZE_REDUCTION_PASSES == 4
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 6)
        basis = [[rng.choice((0, 0, 0, -2, -1, 1, 2, 5)) for _ in range(n)]
                 for _ in range(rng.randint(0, 4))]
        v = [rng.randint(-40, 40) for _ in range(n)]
        assert _size_reducer(basis)(v) == _greedy_size_reduction(v, basis), (v, basis)


def _per_vector_lift(system, keep):
    """hilbert_basis's output from its minimal vectors by the per-vector
    path: each y solved for on its own, then size-reduced by the loop above.
    Also returns how many of the solves the reduction changed."""
    equalities, nonneg = system
    n = len(equalities[0])
    P = sorted(nonneg)
    eqs = [row[:] for row in equalities] or [[0] * n]
    lift_rows = eqs + [[1 if j == i else 0 for j in range(n)] for i in P]
    hnf = hnf_column(lift_rows)
    lineality = kernel_basis(lift_rows, hnf)
    pointed = []
    reduced = 0
    for y in keep:
        x = solve_diophantine(lift_rows, [0] * len(eqs) + list(y), hnf)
        assert x is not None
        pointed.append(_greedy_size_reduction(x, lineality))
        reduced += pointed[-1] != x
    pointed.sort(key=lambda v: (sum(abs(c) for c in v), v))
    return (pointed, lineality), reduced


@pytest.fixture
def minimals_spy(monkeypatch):
    """Records (path, minimal vectors) for every hilbert_basis call."""
    seen = []
    for name in ("_group_minimals", "_slack_minimals"):
        def spy(rows, moduli, k, real=getattr(lattice, name), name=name):
            keep = real(rows, moduli, k)
            seen.append((name, keep))
            return keep
        monkeypatch.setattr(lattice, name, spy)
    return seen


def _assert_lift_matches_oracle(seen, system):
    """hilbert_basis(*system), system an (equalities, nonneg) pair, equals
    the per-vector path; returns the path the minimal vectors took, the
    number the reduction changed and the largest lineality entry, or None
    when no minimal vector was sought."""
    seen.clear()
    got = hilbert_basis(*system)
    if not seen:
        return None
    (path, keep), = seen
    expect, reduced = _per_vector_lift(system, keep)
    assert got == expect, system
    return path, reduced, max((abs(c) for v in got[1] for c in v), default=0)


def test_lift_matches_the_per_vector_path_on_random_systems(minimals_spy):
    rng = random.Random(23)
    kinds = set()
    done = reduced = 0
    while done < 120:
        n = rng.randint(2, 6)
        # at most three nonnegative variables keep every completion small
        nonneg = sorted(rng.sample(range(n), rng.randint(1, min(n, 3))))
        eqs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        # a row on the nonnegative variables alone makes an equality row of L
        eqs += [[rng.randint(-3, 3) if j in nonneg else 0 for j in range(n)]
                for _ in range(rng.randint(0, 1))]
        outcome = _assert_lift_matches_oracle(minimals_spy, (eqs, nonneg))
        if outcome is None:
            continue
        path, changed, biggest = outcome
        kinds.add((path, min(biggest, 2)))
        reduced += changed
        done += 1
    # both paths, each with no lineality, with entries of +-1 only and with
    # entries beyond; and the reduction had work to do
    assert kinds == {(p, b) for p in ("_group_minimals", "_slack_minimals")
                     for b in (0, 1, 2)}
    assert reduced > 20


@pytest.mark.parametrize("N", LEVELS_THAT_COMPLETE + [20])
def test_lift_matches_the_per_vector_path_on_level_systems(minimals_spy, N):
    path, _, biggest = _assert_lift_matches_oracle(minimals_spy, pole_free_system(N))
    assert path == "_group_minimals"
    assert biggest == (2 if N == 20 else 1)


def _multiplier_system(monkeypatch, spec, m, t):
    """The (equalities, nonneg) find_multiplier hands hilbert_basis in a
    derivation."""
    N = find_level(spec, m, t)
    bounds = cusp_order_bounds(spec, m, t, find_prefactor(spec, m, t, N), N)
    systems = []
    real = identities.hilbert_basis

    def spy(*args, **kwargs):
        systems.append(args)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(identities, "hilbert_basis", spy)
        find_multiplier(bounds, generators(N), N)
    return systems[0]


@pytest.mark.parametrize("spec, m, t", [
    (PartitionSpec(2, {1: -2, 2: 1}), 5, 2),    # overpartitions, level 10
    (PartitionSpec(1, {1: -1}), 13, 6),          # partitions, level 13
], ids=["over-5n+2", "p-13n+6"])
def test_lift_matches_the_per_vector_path_on_multiplier_systems(
        monkeypatch, minimals_spy, spec, m, t):
    system = _multiplier_system(monkeypatch, spec, m, t)
    path, reduced, biggest = _assert_lift_matches_oracle(minimals_spy, system)
    assert path == "_group_minimals"
    if m == 13:
        assert reduced and biggest > 1      # 119 lineality vectors, entries to 54


# -- one factorization per Hilbert basis ---------------------------------------

def test_congruence_rows_decide_lattice_membership():
    rng = random.Random(26)
    ranks = set()
    members = others = noncyclic = 0
    for trial in range(200):
        k = 1 if trial % 10 == 0 else rng.randint(2, 5)
        # rank 0 every 25th trial, else up to k + 1 generators of any rank
        gens = [] if trial % 25 == 0 else [
            [rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(1, k + 1))]
        basis = lattice_hnf(gens, k)
        ranks.add((k, len(basis)))
        rows, moduli = lattice._congruence_rows(basis, k)
        assert all(d == 0 or d > 1 for d in moduli)
        assert moduli.count(0) == k - len(basis)
        noncyclic += len(moduli) - moduli.count(0) > 1
        for y in _l1_ball(k, 4 if k < 5 else 3):
            expect = solve_diophantine([list(r) for r in zip(*basis)], list(y)) is not None
            assert expect == all(sum(map(mul, r, y)) % d == 0 if d else
                                 sum(map(mul, r, y)) == 0
                                 for r, d in zip(rows, moduli)), (basis, y)
            members += expect
            others += not expect
        if len(basis) == k:
            # |det| of the lower triangular basis: its pivots' product
            assert prod(moduli) == prod(b[i] for i, b in enumerate(basis)), basis
    # k = 1 at ranks 0 and 1, and every rank from 0 to 5 below and at k
    assert {(1, 0), (1, 1)} <= ranks
    assert {r for k, r in ranks if r < k} == set(range(5))
    assert {r for k, r in ranks if r == k} == set(range(1, 6))
    assert members > 1000 and others > 1000 and noncyclic > 5


@pytest.fixture
def factorization_spy(monkeypatch):
    """Records the column count of every hnf_column call, and the calls to
    solve_diophantine and lattice_hnf, made inside lattice."""
    seen = {"hnf_column": [], "solve_diophantine": [], "lattice_hnf": []}

    def spy(name, record):
        real = getattr(lattice, name)

        def call(*args, **kwargs):
            seen[name].append(record(*args))
            return real(*args, **kwargs)
        monkeypatch.setattr(lattice, name, call)

    spy("hnf_column", lambda A: len(A[0]) if A else 0)
    spy("solve_diophantine", lambda *args: args)
    spy("lattice_hnf", lambda *args: args)
    return seen


def _assert_one_factorization(seen, system):
    for calls in seen.values():
        calls.clear()
    hilbert_basis(*system)
    assert seen["hnf_column"].count(len(system[0][0])) == 1
    assert seen["solve_diophantine"] == [] and seen["lattice_hnf"] == []


def test_hilbert_basis_factors_a_level_system_once(factorization_spy):
    _assert_one_factorization(factorization_spy, pole_free_system(18))


def test_hilbert_basis_factors_a_multiplier_system_once(monkeypatch, factorization_spy):
    system = _multiplier_system(monkeypatch, PartitionSpec(1, {1: -1}), 13, 6)
    _assert_one_factorization(factorization_spy, system)


@pytest.mark.parametrize("name, system, y", [
    # L = {(a, b) : a + b even}, full rank: (1, 0) leaves a remainder
    ("_group_minimals", ([[1, 1, -2]], [0, 1]), (1, 0)),
    # L = Z (2, 1), rank 1: (1, 0) leaves a remainder, (2, 0) a residual
    ("_slack_minimals", ([[1, -2]], [0, 1]), (1, 0)),
    ("_slack_minimals", ([[1, -2]], [0, 1]), (2, 0)),
], ids=["walk-remainder", "slack-remainder", "slack-residual"])
def test_a_minimal_vector_outside_the_lattice_fails_to_lift(monkeypatch, name, system, y):
    called = []
    real = getattr(lattice, name)
    pointed, _ = hilbert_basis(*system)
    assert pointed

    def outside(rows, moduli, k):
        called.append(real(rows, moduli, k))
        return [y] + called[-1]

    monkeypatch.setattr(lattice, name, outside)
    with pytest.raises(RuntimeError, match="projected generator failed to lift"):
        hilbert_basis(*system)
    assert called
