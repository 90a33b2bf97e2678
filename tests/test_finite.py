"""Finite semigroup layer: tables, Green's classes, idempotent structure."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_commutative_tables,
    direct_product,
    left_zero,
    right_zero,
    standard_catalogue,
)
from idempotoric import cli, finite
from idempotoric.errors import InputError, InternalCheckError
from idempotoric.finite import (
    FiniteSemigroup,
    GreensClasses,
    IndexPeriod,
    all_associative_tables,
    check_smallest_criterion,
    greens_classes,
    idempotent_elements,
    idempotent_power,
    index_period,
    is_minimum_idempotent,
    smallest_idempotent_commutative,
    validate_table,
    zmod_times,
)


def cyclic_group(n):
    return validate_table([[(i + j) % n for j in range(n)] for i in range(n)])


def monogenic_2_3():
    # powers x, x^2, x^3, x^4 with x^5 = x^2 (element i encodes x^(i+1))
    def reduce(k):
        return k - 1 if k <= 4 else ((k - 2) % 3) + 1

    return validate_table([[reduce(i + j + 2) for j in range(4)] for i in range(4)])


# -- references: the n³ scan and the ideal-based Green's classes ----------------


def reference_validate(table) -> FiniteSemigroup:
    """Shape and entry checks, then every one of the n³ triples."""
    rows = [tuple(r) for r in table]
    n = len(rows)
    if n == 0:
        raise InputError("multiplication table must be nonempty")
    for r in rows:
        if len(r) != n:
            raise InputError("multiplication table must be square")
        for x in r:
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                raise InputError(f"table entry {x!r} outside 0..{n - 1}")
    t = tuple(rows)
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    raise InputError(
                        f"table is not associative at ({a}, {b}, {c}): "
                        f"({a}·{b})·{c} = {t[ab][c]} but {a}·({b}·{c}) = {t[a][t[b][c]]}"
                    )
    comm = all(t[a][b] == t[b][a] for a in range(n) for b in range(a))
    return FiniteSemigroup(n, t, comm)


def reference_greens(s) -> GreensClasses:
    """L, R, J, H by equality of the principal ideals S¹x, xS¹, S¹xS¹."""
    n = s.size
    t = s.table
    left = []
    right = []
    two = []
    for x in range(n):
        lx = {x} | {t[a][x] for a in range(n)}
        rx = {x} | {t[x][a] for a in range(n)}
        jx = lx | rx | {t[a][t[x][b]] for a in range(n) for b in range(n)}
        left.append(frozenset(lx))
        right.append(frozenset(rx))
        two.append(frozenset(jx))

    def partition(key):
        groups: dict = {}
        for x in range(n):
            groups.setdefault(key(x), []).append(x)
        return tuple(sorted(tuple(g) for g in groups.values()))

    return GreensClasses(
        partition(lambda x: left[x]),
        partition(lambda x: right[x]),
        partition(lambda x: two[x]),
        partition(lambda x: (left[x], right[x])),
    )


def outcome(validate, table):
    """The semigroup, or the type and exact text of the rejection."""
    try:
        return validate(table)
    except InputError as exc:
        return (type(exc), str(exc))


VIOLATION = re.compile(
    r"table is not associative at \((\d+), (\d+), (\d+)\): "
    r"\(\1·\2\)·\3 = (\d+) but \1·\(\2·\3\) = (\d+)"
)


def checked_outcome(table):
    """``validate_table``'s outcome, checked against ``reference_validate``:
    the same decision, and the same record when accepted.  An
    associativity rejection may name another triple than the reference's
    lexicographically first one, but it must be a violating one, printed
    with the two products the table gives it."""
    got = outcome(validate_table, table)
    want = outcome(reference_validate, table)
    if isinstance(want, FiniteSemigroup) or not VIOLATION.fullmatch(want[1]):
        assert got == want
        return got
    kind, message = got
    a, b, c, left, right = map(int, VIOLATION.fullmatch(message).groups())
    assert kind is InputError
    assert (left, right) == (table[table[a][b]][c], table[a][table[b][c]])
    assert left != right
    return got


def band_product(kind, a, b, rng):
    """Z_a under multiplication times a zero band of size b, relabelled at
    random: element x stands for the pair (x // b, x % b)."""
    n = a * b

    def mul(x, y):
        g = (x // b) * (y // b) % a
        band = {"zmod": 0, "left": x % b, "right": y % b}[kind]
        return g * b + band

    label = list(range(n))
    rng.shuffle(label)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[label[x]][label[y]] = label[mul(x, y)]
    return table


def test_small_tables_match_the_references():
    for n in (1, 2, 3, 4):
        for s in all_associative_tables(n):
            assert reference_validate(s.table) == s
            assert greens_classes(s) == reference_greens(s)


def test_catalogue_matches_the_references():
    for _, s in standard_catalogue():
        assert validate_table(s.table) == reference_validate(s.table) == s
        assert greens_classes(s) == reference_greens(s)


BAND_PRODUCTS = [("zmod", 40, 1), ("left", 10, 4), ("right", 8, 5), ("left", 16, 3)]


@pytest.mark.parametrize("kind, a, b", BAND_PRODUCTS)
def test_relabelled_band_products_match_the_references(kind, a, b):
    table = band_product(kind, a, b, random.Random(f"{kind}{a}x{b}"))
    s = validate_table(table)
    assert s == reference_validate(table)
    assert greens_classes(s) == reference_greens(s)


def test_rejections_match_the_reference_on_random_tables():
    rng = random.Random(2024)
    rejected = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        rejected += not isinstance(checked_outcome(table), FiniteSemigroup)
    assert 1000 < rejected < 2000


CATALOGUE = [s.table for _, s in standard_catalogue() if s.size <= 6]


@st.composite
def near_associative_tables(draw):
    """A catalogue table, relabelled, with up to two cells overwritten:
    mostly one violation away from associative, where a test over too few
    products would pass it."""
    t = draw(st.sampled_from(CATALOGUE))
    n = len(t)
    label = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[label[x]][label[y]] = label[t[x][y]]
    for _ in range(draw(st.integers(0, 2))):
        x, y, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[x][y] = v
    return table


@settings(max_examples=400, deadline=None)
@given(near_associative_tables())
def test_rejections_match_the_reference_near_associativity(table):
    checked_outcome(table)


def without_last_generator(monkeypatch):
    real = finite._greedy_generators
    monkeypatch.setattr(finite, "_greedy_generators", lambda t: real(t)[:-1])


def test_a_lost_generator_trips_the_closure_check(monkeypatch):
    s = left_zero(2)
    without_last_generator(monkeypatch)
    with pytest.raises(InternalCheckError, match="does not reach every element"):
        validate_table(s.table)
    # a copy, so that the generating set is found again, not read from the
    # one validate_table found before the patch
    with pytest.raises(InternalCheckError, match="does not reach every element"):
        greens_classes(s._replace())


def test_a_light_test_naming_an_associative_triple_trips_the_recheck(monkeypatch):
    monkeypatch.setattr(finite, "_light_test", lambda t, gens: (1, 1, 1))
    with pytest.raises(InternalCheckError, match="Light's test failed on an associative table"):
        validate_table(zmod_times(3).table)


def test_main_reports_a_lost_generator(tmp_path, capsys, monkeypatch):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"table": [[0, 0], [1, 1]]}))
    without_last_generator(monkeypatch)
    code = cli.main(["finite", "--input", str(path)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert (error["kind"], error["message"]) == (
        "internal",
        "generating set does not reach every element",
    )


def test_components_of_deep_graphs_need_no_recursion():
    # far deeper than the recursion limit: a path, each vertex alone, and
    # the same path closed into one cycle
    n = 20000
    path = [(x + 1,) for x in range(n - 1)] + [()]
    assert sorted(finite._components(path)) == list(range(n))
    cycle = [((x + 1) % n,) for x in range(n)]
    assert set(finite._components(cycle)) == {0}


# -- generating sets -----------------------------------------------------------

# Z_n for n = 24..90, and Z_a times a left- or right-zero band of size b
GENERATOR_CORPUS = [("zmod", n, 1) for n in range(24, 91)] + [
    (kind, a, b)
    for kind in ("left", "right")
    for a, b in [(8, 3), (12, 2), (10, 4), (15, 3), (16, 4), (22, 4), (28, 3), (45, 2)]
]


def least_first_generators(t):
    """The greedy generating set visited in index order, the least element
    not yet reached first."""
    gens = []
    seen = bytearray(len(t))
    for g in range(len(t)):
        if not seen[g]:
            gens.append(g)
            reached = [x for x, hit in enumerate(seen) if hit]
            seen = finite._right_closure(t, gens, reached + [g])
    return gens


def test_generating_sets_found_in_r_order_are_smaller():
    # exact counts: the tables, their relabellings and both visits are
    # fixed, so the totals depend on no machine
    r_order = dict.fromkeys(("zmod", "left", "right"), 0)
    least_first = dict.fromkeys(("zmod", "left", "right"), 0)
    for kind, a, b in GENERATOR_CORPUS:
        for seed in (1, 2, 3):
            table = band_product(kind, a, b, random.Random(f"gens{seed}:{kind}{a}x{b}"))
            s = validate_table(table)
            r_order[kind] += len(s._generating_set)
            least_first[kind] += len(least_first_generators(s.table))
    assert r_order == {"zmod": 825, "left": 129, "right": 133}
    assert least_first == {"zmod": 1050, "left": 170, "right": 182}
    assert sum(r_order.values()) < sum(least_first.values())


# -- validation --------------------------------------------------------------


def test_zmod6_is_commutative():
    s = zmod_times(6)
    assert s.size == 6
    assert s.commutative


def test_left_zero_is_not_commutative():
    s = left_zero(2)
    assert not s.commutative
    assert s.table == ((0, 0), (1, 1))


def test_non_associative_rejected_with_triple():
    # the generating set is {1}, and Light's test fails on it at x = 1,
    # y = 1; the reference's full scan names (1, 0, 1) first
    with pytest.raises(InputError, match=r"\(1, 1, 1\)"):
        validate_table([[0, 0], [1, 0]])


def test_rejection_in_the_last_row_names_the_first_triple():
    # a left-zero band with one cell changed: its one row with a violation
    # is the last, and there Light's test finds it at the generator 1 and
    # y = 0, the triple that a full scan also names first
    n = 60
    table = [[x] * n for x in range(n)]
    table[59][0] = 0
    message = "table is not associative at (59, 1, 0): (59·1)·0 = 0 but 59·(1·0) = 59"
    assert outcome(validate_table, table) == (InputError, message)
    assert outcome(reference_validate, table) == (InputError, message)


def test_a_true_among_zeros_and_ones_is_rejected_by_its_type():
    # the range check reads the set of the values, in which True is 1, so
    # the type pass must see every entry, in every row
    for table, row in [([[0, 1], [1, True]], 1), ([[True, 1], [1, 0]], 0)]:
        message = f"table[{row}] entry must be an integer, got True"
        assert outcome(validate_table, table) == (InputError, message)


def test_malformed_tables_rejected():
    with pytest.raises(InputError):
        validate_table([[0, 1], [1]])
    with pytest.raises(InputError):
        validate_table([[0, 2], [1, 0]])
    with pytest.raises(InputError):
        validate_table([[True, 0], [0, 0]])
    with pytest.raises(InputError):
        validate_table([])


# -- idempotents -------------------------------------------------------------


def test_zmod6_idempotents():
    assert idempotent_elements(zmod_times(6)) == (0, 1, 3, 4)


def test_left_zero_all_idempotent():
    assert idempotent_elements(left_zero(2)) == (0, 1)
    assert idempotent_elements(right_zero(3)) == (0, 1, 2)


def test_group_has_identity_only():
    assert idempotent_elements(cyclic_group(4)) == (0,)


def test_smallest_idempotent_of_zmod6():
    assert smallest_idempotent_commutative(zmod_times(6)) == 0
    assert smallest_idempotent_commutative(zmod_times(2)) == 0
    assert smallest_idempotent_commutative(cyclic_group(5)) == 0


def test_smallest_idempotent_needs_commutativity():
    with pytest.raises(InputError):
        smallest_idempotent_commutative(left_zero(2))


# -- index, period, idempotent power ------------------------------------------


def test_index_period_of_two_mod_six():
    ip = index_period(zmod_times(6), 2)
    assert (ip.index, ip.period) == (1, 2)
    assert idempotent_power(zmod_times(6), 2) == 4


def test_index_period_of_idempotent():
    ip = index_period(zmod_times(6), 1)
    assert (ip.index, ip.period) == (1, 1)
    assert idempotent_power(zmod_times(6), 1) == 1


def test_index_two_period_three():
    s = monogenic_2_3()
    ip = index_period(s, 0)
    assert (ip.index, ip.period) == (2, 3)
    assert idempotent_power(s, 0) == 2  # x^3


def test_idempotent_power_reuses_a_given_index_period():
    s = monogenic_2_3()
    for x in range(s.size):
        ip = index_period(s, x)
        assert idempotent_power(s, x, ip) == idempotent_power(s, x)
    with pytest.raises(InputError, match="for element 0, not 1"):
        idempotent_power(s, 1, index_period(s, 0))


@pytest.mark.parametrize(
    "x, ip",
    [
        # past the table: unchecked, the power loop indexes off its end
        (99, IndexPeriod(99, 1, 1)),
        # a boolean is not an element, even though True == 1 matches ip
        (True, IndexPeriod(1, 1, 1)),
        # a negative element: unchecked, it indexes the table from the end
        # and trips the idempotency check, a program fault (exit 2), for
        # the caller's bad input
        (-1, IndexPeriod(-1, 1, 1)),
    ],
)
def test_idempotent_power_checks_its_element_with_a_given_index_period(x, ip):
    with pytest.raises(InputError, match=r"outside 0\.\.3"):
        idempotent_power(zmod_times(4), x, ip)


def test_idempotent_power_exhaustive_small():
    for s in all_associative_tables(3):
        for x in range(s.size):
            e = idempotent_power(s, x)
            assert s.table[e][e] == e
            powers = set()
            y = x
            for _ in range(s.size + 1):
                powers.add(y)
                y = s.table[y][x]
            assert e in powers


# -- Green's relations ---------------------------------------------------------


def test_greens_left_zero():
    g = greens_classes(left_zero(2))
    assert g.l_classes == ((0, 1),)
    assert g.r_classes == ((0,), (1,))
    assert g.j_classes == ((0, 1),)
    assert g.h_classes == ((0,), (1,))


def test_greens_group_single_class():
    g = greens_classes(cyclic_group(4))
    assert g.l_classes == g.r_classes == g.j_classes == g.h_classes == ((0, 1, 2, 3),)


def test_greens_zmod6_units():
    g = greens_classes(zmod_times(6))
    unit_class = next(c for c in g.j_classes if 1 in c)
    assert unit_class == (1, 5)


# -- smallest-idempotent criterion ---------------------------------------------


def test_criterion_on_zmod6():
    s = zmod_times(6)
    assert check_smallest_criterion(s, 0)
    assert not check_smallest_criterion(s, 1)
    assert not check_smallest_criterion(s, 3)
    assert not check_smallest_criterion(s, 4)


def test_criterion_on_group_identity():
    assert check_smallest_criterion(cyclic_group(4), 0)


def test_criterion_matches_minimum_exhaustive_small():
    tables = [
        *all_associative_tables(3),
        *(zmod_times(n) for n in range(1, 31)),
        *(
            validate_table(band_product(kind, a, b, random.Random(f"{kind}{a}x{b}")))
            for kind, a, b in BAND_PRODUCTS
        ),
    ]
    for s in tables:
        for e in idempotent_elements(s):
            assert check_smallest_criterion(s, e) == is_minimum_idempotent(s, e)


# -- catalogues -----------------------------------------------------------------


def test_associative_table_counts():
    assert sum(1 for _ in all_associative_tables(1)) == 1
    assert sum(1 for _ in all_associative_tables(2)) == 8
    assert sum(1 for _ in all_associative_tables(3)) == 113


def test_commutative_table_counts():
    # the labeled commutative semigroups of each size
    assert [len(all_commutative_tables(n)) for n in (1, 2, 3)] == [1, 6, 63]


def test_every_small_semigroup_has_an_idempotent():
    for s in all_associative_tables(3):
        assert idempotent_elements(s)


def test_direct_product_of_cyclic_factors():
    s = direct_product(zmod_times(2), zmod_times(3))
    assert s.size == 6
    assert s.commutative
    assert len(idempotent_elements(s)) == 4


def test_standard_catalogue_shape():
    cat = standard_catalogue()
    names = [name for name, _ in cat]
    assert len(names) == len(set(names))
    assert len(cat) > 40
    for _, s in cat:
        assert idempotent_elements(s)
