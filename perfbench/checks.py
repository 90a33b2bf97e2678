"""Output checks, made apart from the program.

Every check here recomputes what it needs from the job's own input and
from what the benchmark knows of the construction (``Job.expect``), or
tests a property that any correct answer has.  None of it imports the
program or compares against a stored report.  A failed check raises
``CheckFailure`` naming the job and the property.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod


class CheckFailure(Exception):
    pass


def check_report(job, report: dict) -> None:
    """Raise CheckFailure unless ``report`` is a correct answer to ``job``."""
    checker = {"eigen": _check_eigen, "cone": _check_cone, "finite": _check_finite}
    try:
        _require(report.get("mode") == job.mode, "mode", report.get("mode"))
        checker[job.mode](job, report)
    except CheckFailure as exc:
        raise CheckFailure(f"{job.name}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailure(f"{job.name}: malformed report ({exc!r})") from None


def _require(ok, what, detail=None) -> None:
    if not ok:
        raise CheckFailure(what if detail is None else f"{what}: {detail!r}")


def rational_rank(rows) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    basis = []  # (pivot column, row), each row zero at earlier pivots
    width = None
    for row in rows:
        row = list(row)
        width = len(row)
        for c, b in basis:
            if row[c]:
                row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                if g > 1:
                    row = [x // g for x in row]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            basis.append((c, row))
            if len(basis) == width:
                break
    return len(basis)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


# -- the poset of index sets, shared by eigen and cone reports -------------------


def _covers(sets):
    """Cover pairs (i, j) of a family of frozensets ordered by inclusion,
    recomputed from the sets alone."""
    edges = []
    order = sorted(range(len(sets)), key=lambda i: -len(sets[i]))
    for j, top in enumerate(sets):
        maximal = []
        for i in order:
            s = sets[i]
            if s < top and not any(s < sets[m] for m in maximal):
                maximal.append(i)
        edges.extend((i, j) for i in maximal)
    return sorted(edges)


def _check_closed(sets):
    family = set(sets)
    for s in sets:
        for t in sets:
            _require(s & t in family, "index sets not closed under intersection",
                     (sorted(s), sorted(t)))


def _check_poset(sets, dims, edges, bottom, top, universe, covers):
    """Properties every face poset has.

    No index set repeats, the bottom lies below every set and the full
    index set is the top; the reported cover edges are exactly ``covers``;
    every cover raises the dimension by one; and Euler's relation
    Σ(−1)^dim f_dim = 0 holds unless the poset is a single point.
    """
    _require(len(set(sets)) == len(sets), "index sets repeat")
    _require(sets[top] == universe, "top is not the full index set", sorted(sets[top]))
    _require(all(sets[bottom] <= s for s in sets), "bottom is not below every set")
    _require(sorted(map(tuple, edges)) == covers, "hasse edges are not the covers")
    for i, j in edges:
        _require(dims[j] == dims[i] + 1, "poset not graded by dimension", (i, j))
    chain = dims[top] - dims[bottom]
    if chain >= 1:
        euler = sum((-1) ** d for d in dims)
        _require(euler == 0, "Euler's relation fails", euler)
    return chain


# -- eigen ---------------------------------------------------------------------


def _check_eigen(job, rep):
    values = [Fraction(s) for s in job.payload["eigenvalues"]]
    _require([Fraction(s) for s in rep["eigenvalues"]] == values, "eigenvalues changed")
    _require(list(rep["multiplicities"]) == [1] * len(values), "multiplicities")
    r = len(values)
    base, mat, signs = rep["primes"], rep["exponent_matrix"], rep["signs"]
    _require(all(isinstance(b, int) and b > 1 for b in base), "base element not > 1")
    for i, a in enumerate(base):
        for b in base[i + 1 :]:
            _require(gcd(a, b) == 1, "base elements not coprime", (a, b))
    _require(len(mat) == r and all(len(row) == len(base) for row in mat),
             "exponent matrix shape")
    for q, row, sign in zip(values, mat, signs):
        got = Fraction(sign) * prod((Fraction(b) ** e for b, e in zip(base, row)),
                                    start=Fraction(1))
        _require(got == q, "base and exponents do not reproduce an eigenvalue", str(q))

    rho = rational_rank(mat)
    _require(rep["lattice_rank"] == rho, "lattice rank", rep["lattice_rank"])
    if "kernel_rank" in job.expect:
        _require(r - rho == job.expect["kernel_rank"], "kernel rank differs from construction")
    gens = rep["generators"]
    _require(len(gens) == r and all(len(g) == rho for g in gens), "generator shape")
    _require(rational_rank(gens) == rho, "generators lost rank")
    _require(rep["labels"] == [f"t{i}" for i in range(1, r + 1)], "labels")

    squares = [q * q for q in values]
    supports = []
    vectors = []
    for rel in rep["primitive_relations"]:
        z = [0] * r
        for side, sign in ((rel["lhs"], 1), (rel["rhs"], -1)):
            for i, a in side:
                _require(1 <= i <= r and a >= 1 and z[i - 1] == 0, "relation term", rel)
                z[i - 1] = sign * a
        _require(rel["lhs"], "relation with an empty left side", rel)
        for col in range(len(base)):
            _require(sum(z[i] * mat[i][col] for i in range(r)) == 0,
                     "relation does not annihilate the exponent matrix", rel)
        for col in range(rho):
            _require(sum(z[i] * gens[i][col] for i in range(r)) == 0,
                     "relation does not hold on the generators", rel)
        value = prod((squares[i] ** z[i] for i in range(r)), start=Fraction(1))
        _require(value == 1, "relation fails on the squared eigenvalues", rel)
        supports.append(({i for i, _ in rel["lhs"]}, {j for j, _ in rel["rhs"]}))
        vectors.append(z)
    _require(rational_rank(vectors) == r - rho, "relations do not span the kernel")

    poset = rep["idempotents"]
    elements = poset["elements"]
    sets = [frozenset(e["index_set"]) for e in elements]
    dims = [e["face_dim"] for e in elements]
    for s, d, e in zip(sets, dims, elements):
        _require(list(e["index_set"]) == sorted(s), "index set not sorted", e)
        _require(all(1 <= i <= r for i in s), "index out of range", e)
        _require(d == rational_rank([mat[i - 1] for i in s]),
                 "face_dim is not the rank of the face's exponent rows", e)
        for lhs, rhs in supports:
            _require((lhs <= s) == (rhs <= s), "idempotent breaks a relation", e)
    _check_closed(sets)
    chain = _check_poset(sets, dims, poset["hasse_edges"], poset["smallest"],
                         poset["largest"], frozenset(range(1, r + 1)), _covers(sets))
    _require(rep["chain_length"] == chain, "chain length", rep["chain_length"])
    _require(rep["smallest_index_set"] == sorted(sets[poset["smallest"]]), "smallest set")
    _require(rep["largest_index_set"] == sorted(sets[poset["largest"]]), "largest set")
    if "index_sets" in job.expect:
        _require(sorted(tuple(sorted(s)) for s in sets) == job.expect["index_sets"],
                 "idempotents differ from the faces of the block product")

    env = rep["envelope"]
    _require(env["envelope_dim"] == chain, "envelope_dim differs from chain_length")
    unit_rank = rho - chain
    env_elements = env["idempotents"]["elements"]
    _require({tuple(e["index_set"]) for e in env_elements}
             == {tuple(e["index_set"]) for e in elements},
             "envelope index sets differ from the original ones")
    by_set = {tuple(e["index_set"]): e["face_dim"] for e in elements}
    for e in env_elements:
        _require(e["face_dim"] == by_set[tuple(e["index_set"])] - unit_rank,
                 "envelope face_dim did not drop by the unit rank", e)
    _require(all(len(g) == chain for g in env["projected_generators"]),
             "projected generator width")


# -- cone ----------------------------------------------------------------------


def _check_cone(job, rep):
    gens = [tuple(g) for g in job.payload["generators"]]
    d = job.payload["ambient_dim"]
    r = len(gens)
    _require([tuple(g) for g in rep["generators"]] == gens, "generators changed")
    dim = rational_rank(gens)
    _require(rep["dim"] == dim, "cone dimension", rep["dim"])

    faces = rep["faces"]
    sets = [frozenset(f["index_set"]) for f in faces]
    dims = [f["dim"] for f in faces]
    for s, f in zip(sets, faces):
        w = f["witness"]
        _require(len(w) == d and list(f["index_set"]) == sorted(s), "face shape", f)
        for i, g in enumerate(gens):
            v = _dot(w, g)
            _require(v == 0 if i in s else v > 0, "witness does not cut out the face", f)
        _require(f["dim"] == rational_rank([gens[i] for i in s]),
                 "face dim is not the rank of its generators", f)

    family = set(sets)
    facet_sets = []
    for w in rep["facets"]:
        _require(len(w) == d, "facet width", w)
        vals = [_dot(w, g) for g in gens]
        _require(all(v >= 0 for v in vals), "facet normal negative on a generator", w)
        zero = frozenset(i for i, v in enumerate(vals) if v == 0)
        _require(rational_rank([gens[i] for i in zero]) == dim - 1,
                 "facet normal does not define a facet", w)
        _require(zero in family, "facet missing from the faces", w)
        facet_sets.append(zero)
    # every face but the top is an intersection of facets; a family that
    # holds the top and every facet and is closed under meeting a facet
    # holds them all, and the witnesses show it holds nothing else, so it
    # is closed under intersection too
    for s in sets:
        for t in facet_sets:
            _require(s & t in family, "faces not closed under meeting a facet",
                     (sorted(s), sorted(t)))
    # with the family shown to be exactly the faces, and every dimension
    # the rank of the face's generators, the covers are the inclusions that
    # raise the dimension by one: face lattices are graded
    by_dim = {}
    for i, k in enumerate(dims):
        by_dim.setdefault(k, []).append(i)
    covers = sorted((i, j) for j, s in enumerate(sets)
                    for i in by_dim.get(dims[j] - 1, ()) if sets[i] < s)
    chain = _check_poset(sets, dims, rep["hasse_edges"], rep["bottom"], rep["top"],
                         frozenset(range(r)), covers)
    _require(rep["lineality_rank"] == dims[rep["bottom"]], "lineality rank")
    _require(len(rep["lineality_basis"]) == rep["lineality_rank"], "lineality basis")
    if rep["lineality_rank"] == 0:
        _require(len(rep["extreme_rays"]) == dims.count(1), "extreme ray count")
    for ray in rep["extreme_rays"]:
        _require(all(_dot(w, ray) >= 0 for w in rep["facets"]), "ray outside the cone")
    if "fvector" in job.expect:
        fvec = [dims.count(k) for k in range(max(dims) + 1)]
        _require(fvec == job.expect["fvector"], "face counts differ from closed form", fvec)
    _require(chain == dim - rep["lineality_rank"], "chain length")


# -- finite --------------------------------------------------------------------


def _check_finite(job, rep):
    kind, a, b, label = (job.expect[k] for k in ("kind", "a", "b", "label"))
    table = job.payload["table"]
    n = a * b
    _require(rep["size"] == n, "size")
    _require(rep["commutative"] == (kind == "zmod"), "commutative")
    unlabel = {lab: x for x, lab in enumerate(label)}

    def residue(lab):
        return unlabel[lab] // b

    def band(lab):
        return unlabel[lab] % b

    # Z_a: x is idempotent iff x² ≡ x (mod a); every band element is
    # idempotent, so the idempotents of a product are the pairs
    idem = sorted(lab for lab in range(n) if residue(lab) ** 2 % a == residue(lab))
    _require(rep["idempotents"] == idem, "idempotents")
    omega = sum(1 for p in range(2, a + 1) if a % p == 0 and all(p % q for q in range(2, p)))
    _require(len(idem) == 2**omega * b, "idempotent count is not 2^ω(n)·band")

    # Green's classes: in Z_a, x and y generate the same ideal iff
    # gcd(x, a) = gcd(y, a); a band side fixes the band coordinate or not
    def classes(key):
        groups = {}
        for lab in range(n):
            groups.setdefault(key(lab), set()).add(lab)
        return sorted(tuple(sorted(g)) for g in groups.values())

    def g_class(lab):
        return gcd(residue(lab), a)

    whole = classes(g_class)
    split = classes(lambda lab: (g_class(lab), band(lab)))
    expected = {
        "zmod": (whole, whole, whole, whole),
        "left": (whole, split, whole, split),
        "right": (split, whole, whole, split),
    }[kind]
    greens = rep["greens"]
    for name, want in zip(("l_classes", "r_classes", "j_classes", "h_classes"), expected):
        got = sorted(tuple(sorted(c)) for c in greens[name])
        _require(got == want, f"Green's {name}")
    divisors = sum(1 for k in range(1, a + 1) if a % k == 0)
    _require(len(greens["j_classes"]) == divisors, "J-class count is not τ(n)")

    # index and period by direct powering in the table
    periods = []
    for x in range(n):
        seen = {x: 1}
        cur, k = x, 1
        while True:
            cur, k = table[cur][x], k + 1
            if cur in seen:
                periods.append([x, seen[cur], k - seen[cur]])
                break
            seen[cur] = k
    _require(rep["index_period"] == periods, "index and period")

    def is_minimum(e):
        return all(table[e][f] == e and table[f][e] == e for f in idem)

    if kind == "zmod":
        smallest = idem[0]
        for e in idem[1:]:
            smallest = table[smallest][e]
        _require(rep["smallest_idempotent"] == smallest,
                 "smallest idempotent is not the product of all idempotents")
        _require(is_minimum(smallest), "product of idempotents is not the minimum")
    else:
        _require(rep["smallest_idempotent"] is None, "smallest idempotent of a band product")
    _require(rep["criterion"] == {str(e): is_minimum(e) for e in idem}, "criterion")
