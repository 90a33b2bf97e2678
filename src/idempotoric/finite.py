"""Finite semigroups as explicit multiplication tables.

This layer is the desk-scale oracle against which the geometric layers'
structure claims are checked.  Tables are validated associative on
construction by Light's test, and Green's classes come from the Cayley
graphs, both over a small generating set A at O(n²·|A|) cost.  A is
found greedily, visiting the elements from the top of the R-order down
(by the size of their principal right ideals), so that few of them are
needed; a commutative table has one Cayley graph and one Green's
partition.  The plain n³ associativity scan and the principal-ideal
Green's classes they replace live on in ``tests/test_finite.py`` as
``reference_validate`` and ``reference_greens``, which the test suite
compares them with.  ``all_associative_tables`` generates every
associative table of a given size by backtracking with incremental
associativity pruning.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError, InternalCheckError

__all__ = [
    "FiniteSemigroup",
    "GreensClasses",
    "IndexPeriod",
    "all_associative_tables",
    "check_smallest_criterion",
    "greens_classes",
    "idempotent_elements",
    "idempotent_power",
    "index_period",
    "is_minimum_idempotent",
    "smallest_idempotent_commutative",
    "validate_table",
    "zmod_times",
]


class _FiniteSemigroup(NamedTuple):
    size: int
    table: tuple[tuple[int, ...], ...]
    commutative: bool


class FiniteSemigroup(_FiniteSemigroup):
    """A validated multiplication table: table[x][y] = x·y.

    Its generating set is found once, when first needed, and shared by
    ``validate_table`` and ``greens_classes``; it is kept in the instance
    ``__dict__``, so the class has no ``__slots__``, and a ``_replace``
    copy finds it again.
    """

    # with a __dict__, a new name, or one over the cached generating set,
    # could be set; cached_property itself writes the __dict__ directly
    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteSemigroup is immutable: cannot set {name!r}")

    @cached_property
    def _generating_set(self) -> tuple[int, ...]:
        return _generators(self.table)


class IndexPeriod(NamedTuple):
    """Eventual cycle data of one element's powers: the powers
    x^1..x^(index+period-1) are pairwise distinct and
    x^index = x^(index+period)."""

    element: int
    index: int
    period: int


class GreensClasses(NamedTuple):
    """Partitions by equality of principal ideals (identity adjoined):
    left ideal for L, right for R, two-sided for J, and H = L ∧ R."""

    l_classes: tuple[tuple[int, ...], ...]
    r_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]


def validate_table(table) -> FiniteSemigroup:
    """The one validator of a table, in this order: an array of arrays,
    nonempty, square, int entries (not bool) in 0..n-1, associative.

    A generating set A is found greedily: the elements are visited in
    non-increasing |xS¹|, each one not yet reached joins A, and the
    reached set is closed under right multiplication by A; the closure is
    checked again to reach all n elements.
    Associativity is then Light's test over A (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, §1.2): (x·a)·y = x·(a·y) for all
    x, y and every a ∈ A, at O(n²·|A|) cost.  It is exact even before
    associativity is known: the elements that pass form a set closed
    under the product, and every element is a left-bracketed product of
    generators.  Only when it fails is the full n³ scan run, row by row,
    so that the rejection names the lexicographically first violating
    triple.
    """
    if not isinstance(table, (list, tuple)):
        raise InputError("table must be an array of arrays")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"table[{i}] must be an array")
    n = len(table)
    if n == 0:
        raise InputError("multiplication table must be nonempty")
    if any(len(row) != n for row in table):
        raise InputError("multiplication table must be square")
    t = tuple(map(tuple, table))
    # one type pass over every entry: the set of values below folds True
    # into 1, so it cannot stand in for this one
    if not set(map(type, chain.from_iterable(t))) <= {int}:
        # name the first entry that is not an int (subclasses pass)
        for i, row in enumerate(t):
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise InputError(f"table[{i}] entry must be an integer, got {x!r}")
    values = set(chain.from_iterable(t))
    if min(values) < 0 or max(values) >= n:
        x = next(x for row in t for x in row if not 0 <= x < n)
        raise InputError(f"table entry {x!r} outside 0..{n - 1}")
    s = FiniteSemigroup(n, t, tuple(zip(*t)) == t)
    if not _light_test(t, s._generating_set):
        _first_violation(t)
    return s


def _light_test(t, gens) -> bool:
    """(x·a)·y = x·(a·y) for all x, y and every a in ``gens``, one row at
    a time: row x·a of the table against row x read through row a."""
    if len(t) == 1:
        return True  # associative; and itemgetter(i) returns an item, not a tuple
    for a in gens:
        through_a = itemgetter(*t[a])
        if [t[row[a]] for row in t] != list(map(through_a, t)):
            return False
    return True


def _first_violation(t) -> None:
    """Raise ``InputError`` naming the first (a, b, c) in lexicographic
    order with (a·b)·c ≠ a·(b·c); the caller has seen that one exists.

    For each a, every row (a·b) is compared with row a read through row
    b, at C speed; only the first row that differs is searched for c."""
    n = len(t)
    through = [itemgetter(*row) for row in t]
    for a, ta in enumerate(t):
        left = [t[ab] for ab in ta]
        right = [get(ta) for get in through]
        if left != right:
            b = next(b for b in range(n) if left[b] != right[b])
            c = next(c for c in range(n) if left[b][c] != right[b][c])
            raise InputError(
                f"table is not associative at ({a}, {b}, {c}): "
                f"({a}·{b})·{c} = {left[b][c]} but {a}·({b}·{c}) = {right[b][c]}"
            )
    raise InternalCheckError("Light's test failed on an associative table")


def _right_closure(t, gens, start) -> bytearray:
    """Membership flags of the elements reached from ``start`` by right
    multiplication with members of ``gens``, ``start`` included."""
    seen = bytearray(len(t))
    todo = list(start)
    for x in todo:
        seen[x] = 1
    while todo:
        row = t[todo.pop()]
        for a in gens:
            y = row[a]
            if not seen[y]:
                seen[y] = 1
                todo.append(y)
    return seen


def _greedy_generators(t) -> tuple[int, ...]:
    """Visit the elements in non-increasing |xS¹|, ties by index, take
    each one not yet reached as the next generator, and close the reached
    set under right multiplication by the generators.

    xS¹ ⊆ yS¹ implies |xS¹| ≤ |yS¹|, so the visit follows the R-order
    from the top: units and elements with large right ideals come first,
    and what lies below them is usually reached before it is visited.
    The reached set grows by closing, so each element is multiplied by
    each generator once: O(n·|A|)."""
    ideal = [len({x, *row}) for x, row in enumerate(t)]
    gens: list[int] = []
    seen = bytearray(len(t))
    reached: list[int] = []
    # a stable sort keeps ties in index order, also with reverse=True
    for g in sorted(range(len(t)), key=ideal.__getitem__, reverse=True):
        if seen[g]:
            continue
        gens.append(g)
        # the reached set is closed under the earlier generators: only g
        # and its products with the reached elements can be new
        todo = [g, *(t[x][g] for x in reached)]
        while todo:
            y = todo.pop()
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
                row = t[y]
                todo += [row[a] for a in gens]
    return tuple(gens)


def _generators(t) -> tuple[int, ...]:
    """A generating set of the table: every element is a left-bracketed
    product of its members.  O(n² + n·|A|); the closure is checked again."""
    gens = _greedy_generators(t)
    if not all(_right_closure(t, gens, gens)):
        raise InternalCheckError("generating set does not reach every element")
    return gens


def _check_element(s: FiniteSemigroup, x) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < s.size:
        raise InputError(f"element {x!r} outside 0..{s.size - 1}")
    return x


def idempotent_elements(s: FiniteSemigroup) -> tuple[int, ...]:
    """All x with x·x = x, sorted.  Never empty in a finite semigroup."""
    out = tuple(x for x in range(s.size) if s.table[x][x] == x)
    if not out:
        raise InternalCheckError("finite semigroup without an idempotent")
    return out


def smallest_idempotent_commutative(s: FiniteSemigroup) -> int:
    """Product of all idempotents of a commutative table — the minimum of
    the idempotent order e ≤ f ⇔ ef = e.  Checked against every idempotent."""
    if not s.commutative:
        raise InputError("smallest idempotent via products needs commutativity")
    ids = idempotent_elements(s)
    acc = ids[0]
    for e in ids[1:]:
        acc = s.table[acc][e]
    for e in ids:
        if s.table[acc][e] != acc:
            raise InternalCheckError("idempotent product is not absorbing")
    return acc


def index_period(s: FiniteSemigroup, x: int) -> IndexPeriod:
    """Index and period of x: where the power sequence enters its cycle."""
    x = _check_element(s, x)
    seen: dict[int, int] = {}
    y = x
    k = 1
    while y not in seen:
        seen[y] = k
        y = s.table[y][x]
        k += 1
    i = seen[y]
    return IndexPeriod(x, i, k - i)


def idempotent_power(s: FiniteSemigroup, x: int, ip: IndexPeriod | None = None) -> int:
    """The unique idempotent among the powers of x.

    x^k with k the sole multiple of the period inside one full cycle
    [index, index + period); the result is verified to square to itself.
    ``ip``, x's ``index_period`` if the caller has it, is reused.
    """
    x = _check_element(s, x)
    if ip is None:
        ip = index_period(s, x)
    elif ip.element != x:
        raise InputError(f"index and period are for element {ip.element}, not {x!r}")
    k = -(-ip.index // ip.period) * ip.period
    y = x
    for _ in range(k - 1):
        y = s.table[y][x]
    if s.table[y][y] != y:
        raise InternalCheckError("cycle arithmetic produced a non-idempotent power")
    return y


def greens_classes(s: FiniteSemigroup) -> GreensClasses:
    """L, R, J, H from the Cayley graphs over a generating set A.

    y lies in xS¹ exactly when a path x → x·a → … over a ∈ A reaches y,
    so the R-classes are the strongly connected components of the right
    Cayley graph and the L-classes those of the left one, x → a·x (an
    iterative Tarjan, O(n·|A|) each).  D = R ∨ L is joined by union-find,
    and J = D because S is finite (Froidure & Pin, "Algorithms for
    computing finite semigroups", 1997; Howie, *Fundamentals of Semigroup
    Theory*, §2.1); H = L ∧ R.  In a commutative table x·a = a·x, so the
    two graphs are one, L = R, and H = L ∧ R and J = L ∨ R are that same
    partition: it is found once and returned four times.  Classes and
    partitions come sorted.
    """
    n = s.size
    t = s.table
    gens = s._generating_set

    def partition(key):
        groups: dict = {}
        for x in range(n):
            groups.setdefault(key(x), []).append(x)
        return tuple(sorted(tuple(g) for g in groups.values()))

    r_comp = _components([tuple(row[a] for a in gens) for row in t])
    if s.commutative:
        classes = partition(r_comp.__getitem__)
        return GreensClasses(classes, classes, classes, classes)
    l_comp = _components(list(zip(*(t[a] for a in gens))))

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for comp in (r_comp, l_comp):
        first: dict[int, int] = {}
        for x in range(n):
            parent[find(x)] = find(first.setdefault(comp[x], x))

    return GreensClasses(
        partition(l_comp.__getitem__),
        partition(r_comp.__getitem__),
        partition(find),
        partition(lambda x: (l_comp[x], r_comp[x])),
    )


def _components(succ) -> list[int]:
    """Strongly connected components of the graph x → succ[x] by an
    iterative Tarjan (no recursion, so any depth): a component number for
    each vertex."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return comp


def _is_group(s: FiniteSemigroup, elems) -> bool:
    t = s.table
    members = set(elems)
    for x in elems:
        for y in elems:
            if t[x][y] not in members:
                return False
    unit = next(
        (u for u in elems if all(t[u][v] == v and t[v][u] == v for v in elems)),
        None,
    )
    if unit is None:
        return False
    return all(
        any(t[v][w] == unit and t[w][v] == unit for w in elems) for v in elems
    )


def is_minimum_idempotent(s: FiniteSemigroup, e: int) -> bool:
    """Whether e ≤ f (that is ef = fe = e) for every idempotent f."""
    e = _check_element(s, e)
    if s.table[e][e] != e:
        raise InputError(f"element {e} is not idempotent")
    return all(
        s.table[e][f] == e and s.table[f][e] == e for f in idempotent_elements(s)
    )


def check_smallest_criterion(s: FiniteSemigroup, e: int) -> bool:
    """(e is central) and (eS is a group) — and that is equivalent to e
    being the minimum idempotent, which is re-verified on every call.

    Why the equivalence holds in any finite semigroup: the minimal
    two-sided ideal (kernel) is completely simple; if it is the group eS
    with e central, e absorbs every idempotent, and conversely a minimum
    idempotent forces the kernel to be the single group eSe = eS.
    """
    e = _check_element(s, e)
    t = s.table
    if t[e][e] != e:
        raise InputError(f"element {e} is not idempotent")
    central = all(t[e][x] == t[x][e] for x in range(s.size))
    result = central and _is_group(s, sorted({t[e][x] for x in range(s.size)} | {e}))
    if result != is_minimum_idempotent(s, e):
        raise InternalCheckError("criterion disagrees with the idempotent order")
    return result


# --------------------------------------------------------------------------
# builders and enumeration
# --------------------------------------------------------------------------


def _check_size(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("size must be an int >= 1")
    return n


def zmod_times(n: int) -> FiniteSemigroup:
    n = _check_size(n)
    return validate_table([[(i * j) % n for j in range(n)] for i in range(n)])


def all_associative_tables(n: int):
    """Every associative multiplication table on {0..n-1}, one semigroup
    per table (no symmetry reduction), in lexicographic table order.

    Backtracking, cell by cell in row order: after each write, every
    associativity triple whose four lookups are all defined is rechecked;
    -1 marks an empty cell.
    """
    n = _check_size(n)
    t = [[-1] * n for _ in range(n)]

    def consistent() -> bool:
        for a in range(n):
            ta = t[a]
            for b in range(n):
                ab = ta[b]
                if ab < 0:
                    continue
                tb = t[b]
                tab = t[ab]
                for c in range(n):
                    bc = tb[c]
                    if bc < 0:
                        continue
                    x = tab[c]
                    y = ta[bc]
                    if x >= 0 and y >= 0 and x != y:
                        return False
        return True

    def rec(k: int):
        if k == n * n:
            yield validate_table([row[:] for row in t])
            return
        i, j = divmod(k, n)
        for v in range(n):
            t[i][j] = v
            if consistent():
                yield from rec(k + 1)
        t[i][j] = -1

    yield from rec(0)
