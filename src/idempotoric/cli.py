"""JSON job runner and command-line front end.

A job document selects a mode and carries one payload:

    {"schema": "idempotoric/v2", "mode": "eigen",
     "payload": {"eigenvalues": ["2", "3", "6"]}}

Rationals travel as exact "p/q" strings (or plain integers); floats,
``NaN`` and ``Infinity`` included, are rejected outright so nothing is
silently rounded.  Tables and generator rows go unchecked to the layer
that validates them (``validate_table``, ``IntegerMatrix.from_rows``),
and the cross-checks always run.  Input documents may name schema v1 or
v2: the payloads are the same, and only the reports changed.

Reports and error documents are written with sorted keys and an indent
of two, so the same job always produces the same bytes.  ``_dump``
writes them: it gives the bytes of ``json.dumps(v, sort_keys=True,
indent=2)``, whose encoder falls back to pure Python whenever ``indent``
is set and costs more than most jobs' computation.  ``_dump`` builds the
text from C string functions, escaping strings with the ``json`` module's
own escaper, and fills each list of ints, int rows or records of them
(faces, idempotents, relations) into one ``%`` template (``_fill``), so C
writes every int.  On the benchmark's seed-1 reports that takes 53-70 %
less time than writing item by item (README, "Design notes").  It
accepts only the JSON types the reports hold, so a float or a Fraction
that reached a report is an internal fault, not a rounded number.  The
argument parser is built once per process.

An ``eigen`` job is a ``monoid`` job on the exponent rows of its spectrum
plus facts about the spectrum.  Both modes build the keys they share (the
weight monoid, its idempotents, the smallest and largest index sets, both
checked against the poset, the chain length, the envelope and the subset
oracle) in ``_weight_monoid_report`` from one ``cone_and_poset`` pair;
the eigen handler adds the spectrum, the relations, power invariance and
the relation filter.  The idempotent poset is the cone's ``FacePoset``,
with 0-based index sets; reports name the idempotents by 1-based index
sets, shifted only where the report is written (``_poset_doc`` and the
largest index set).  Each handler returns only its report, and every
output format is rendered from it: JSON by ``_dump``, text by
``_text_report`` and DOT by ``export_dot``.  The selftest runs the mode
handlers themselves on seeded cases.
"""

import argparse
import functools
import json
import os
import random
import re
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

from .cones import (
    _bits,
    _respecting,
    cone_from_generators,
    enumerate_faces,
    extreme_rays,
    sign_masks,
    signed_circuits,
)
from .eigen import (
    character_data,
    eigen_input,
    factor,
    power_invariance,
    primitive_relations,
    smallest_idempotent_indices,
)
from .errors import InputError, InternalCheckError
from .finite import (
    FiniteSemigroup,
    all_associative_tables,
    check_smallest_criterion,
    greens_classes,
    idempotent_elements,
    idempotent_power,
    index_period,
    smallest_idempotent_commutative,
    validate_table,
    zmod_times,
)
from .lattices import IntegerMatrix
from .monoids import (
    cone_and_poset,
    largest_idempotent,
    monoid_from_generators,
    toric_envelope,
)

SCHEMA = "idempotoric/v2"

_MODES = ("cone", "eigen", "finite", "monoid", "selftest")

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


# -- payload scalars -----------------------------------------------------------


def _int(x, what) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _rational(x, what) -> Fraction:
    if isinstance(x, bool):
        raise InputError(f"{what} must be a rational, got a boolean")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_RE.fullmatch(x):
            raise InputError(f"{what}: {x!r} is not an integer or 'p/q' string")
        try:
            num, _, den = x.partition("/")
            num, den = int(num), int(den or 1)
        except ValueError:
            # past the interpreter's int-string digit limit
            raise InputError(f"{what}: too many digits") from None
        if den == 0:
            raise InputError(f"{what}: zero denominator in {x!r}")
        return Fraction(num, den)
    raise InputError(
        f"{what} must be an integer or 'p/q' string, got {type(x).__name__}"
    )


def _expect_keys(payload, allowed) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise InputError(f"unknown payload keys: {', '.join(map(str, unknown))}")
    missing = sorted(set(allowed) - set(payload))
    if missing:
        raise InputError(f"missing payload keys: {', '.join(missing)}")


# -- serialization helpers -------------------------------------------------------


_escape = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INTS = frozenset({int})
_ROWS = frozenset({list, tuple})


def _dump(v, indent="\n") -> str:
    """``json.dumps(v, sort_keys=True, indent=2)``, byte for byte, for a
    value built of dicts with str keys, lists, tuples, str, int, bool and
    None.  Any other value, a float or a Fraction included, raises
    TypeError.  ``indent`` is the newline and indent that close ``v``; a
    list's items are written by ``_fill`` if it takes them, else one by one."""
    t = type(v)
    if t is str:
        return _escape(v)
    if t is int:
        return int.__repr__(v)
    if v is None or v is True or v is False:
        return _CONSTANTS[v]
    inner = indent + "  "
    if t is dict:
        if not v:
            return "{}"
        items = [_escape(k) + ": " + _dump(v[k], inner) for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not v:
            return "[]"
        body = _fill(v, inner)
        if body is None:
            body = ("," + inner).join([_dump(x, inner) for x in v])
        return "[" + inner + body + indent + "]"
    raise TypeError(f"{t.__name__} is not a report value")


def _column(xs):
    """``(items, shapes, cells)`` of a column ``xs`` of exact ints (shape
    None), int rows (shape: length) or rows of int rows (shape: tuple of
    lengths), with each item's ints (``items``) and all of them (``cells``)
    in order; else None.  A bool, float or int subclass is no int here."""
    kinds = set(map(type, xs))
    if kinds == _INTS:
        return zip(xs), [None] * len(xs), xs
    if not kinds <= _ROWS:
        return None
    flat = list(chain.from_iterable(xs))
    kinds = set(map(type, flat))
    if kinds <= _INTS:
        return xs, list(map(len, xs)), flat
    if kinds <= _ROWS:
        cells = list(chain.from_iterable(flat))
        if set(map(type, cells)) <= _INTS:
            shapes = [tuple(map(len, x)) for x in xs]
            return map(chain.from_iterable, xs), shapes, cells
    return None


def _template(shape, indent, names=None):
    """The ``%`` template of an item of ``shape`` closed by ``indent``: an int
    for None, an int row for a length, a row of them for a tuple of lengths
    and, given its escaped key ``names``, a record for its fields' shapes."""
    if shape is None:
        return "%d"
    if not shape:
        return "[]"
    inner = indent + "  "
    if type(shape) is int:
        items = ["%d"] * shape
    else:
        items = [_template(s, inner) for s in shape]
    if names is None:
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    items = [name + ": " + item for name, item in zip(names, items)]
    return "{" + inner + ("," + inner).join(items) + indent + "}"


def _fill(xs, indent):
    """The items of the list ``xs``, written and joined as ``_dump`` does,
    by one ``%`` call, if ``xs`` is a ``_column`` or a list of records with
    one key set whose fields are columns; else None.  Each distinct shape's
    template is built once.  Only exact ints reach a ``%d``, so the bytes
    are ``_dump``'s and an int past the digit limit raises its ValueError."""
    column = _column(xs)
    names = None
    if column is not None:
        _, shapes, cells = column
    elif set(map(type, xs)) == {dict}:
        keys = sorted(xs[0])
        if not keys or set(map(len, xs)) != {len(keys)}:
            return None
        # a record of this length that lacks a key gives None, no column
        fields = [_column(list(map(dict.get, xs, repeat(k)))) for k in keys]
        if None in fields:
            return None
        names = [_escape(k).replace("%", "%%") for k in keys]
        items, shapes, _ = zip(*fields)
        shapes = list(zip(*shapes))
        cells = chain.from_iterable(chain.from_iterable(zip(*items)))
    else:
        return None
    templates = {s: _template(s, indent, names) for s in set(shapes)}
    template = ("," + indent).join(map(templates.__getitem__, shapes))
    return template % tuple(cells)


def _poset_doc(p, k) -> dict:
    """The idempotent poset ``p`` as reports write it: 1-based index sets,
    and each face's dimension lowered by ``k``, the envelope's unit rank
    (0 for the monoid's own poset)."""
    return {
        "elements": [
            {"index_set": [i + 1 for i in f.index_set], "face_dim": f.dim - k}
            for f in p.faces
        ],
        "hasse_edges": [list(edge) for edge in p.hasse_edges],
        "smallest": p.bottom,
        "largest": p.top,
    }


def _envelope_doc(env, p) -> dict:
    return {
        "envelope_dim": env.envelope_dim,
        "quotient_rank": env.envelope_dim,
        "unit_lattice_basis": [list(row) for row in env.unit_lattice.basis.entries],
        "projected_generators": [list(g) for g in env.projected_generators],
        "idempotents": _poset_doc(p, env.unit_lattice.rank),
    }


def _relation_doc(rel) -> dict:
    return {
        "lhs": [[i, a] for i, a in rel.lhs],
        "rhs": [[i, a] for i, a in rel.rhs],
    }


def _set_text(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


# -- cross-checks ----------------------------------------------------------------


def _subset_oracle(cone, index_sets, pairs=None) -> str:
    """Compare enumerated faces against the signed-circuit face test.

    ``index_sets`` yields the faces' 0-based index sets.  ``pairs`` holds
    the (C⁺, C⁻) ``sign_masks`` of the generators' ``signed_circuits``,
    enumerated here unless passed in (an ``eigen`` job derives them once
    for this check and the relation filter).  They decide all 2^r generator
    subsets at once: subset k is bit k of a 2^r-bit int, and
    ``_respecting`` takes c·|support| ANDs of such ints for c circuits.
    The circuits and the ints grow exponentially in r, so the oracle is
    skipped above r = 10.  A disagreement names the least index set that
    the faces miss or, if none, the least that they hold in excess.
    """
    r = len(cone.generators)
    if r > 10:
        return "skipped: more than 10 generators"
    if pairs is None:
        pairs = map(sign_masks, signed_circuits(cone.ambient_dim, cone.generators))
    # has[i]: the subsets k holding generator i, those with bit i set; each
    # generator doubles the family, the new one holding its upper half
    has, n = [], 1
    for _ in range(r):
        has = [p | p << n for p in has] + [((1 << n) - 1) << n]
        n <<= 1
    accepted = _respecting(has, pairs, (1 << n) - 1)
    found = {tuple(_bits(k)) for k in _bits(accepted)}
    poset_sets = set(index_sets)
    if found != poset_sets:
        missing = found - poset_sets
        if missing:
            diff = f"missing {min(missing)}"
        else:
            diff = f"extra {min(poset_sets - found)}"
        raise InternalCheckError(
            f"subset oracle disagrees with face enumeration: {diff}"
        )
    return "ok"


def _relation_filter_check(poset, pairs) -> str:
    """Check that every idempotent respects every signed circuit, given by
    its (C⁺, C⁻) ``sign_masks`` in ``pairs``: it holds C⁺ exactly when it
    holds C⁻.  The faces are exactly the index sets that do, so the check
    rejects any non-face, for every r, and a set that respects the
    circuits respects every relation (conformal decomposition).
    ``_respecting`` tests all F elements at once, element k as bit k of an
    F-bit int; a failure names the first element rejected, in poset order,
    by its 1-based index set."""
    has = defaultdict(int)  # the elements holding generator i
    for k, f in enumerate(poset.faces):
        for i in f.index_set:
            has[i] |= 1 << k
    family = (1 << len(poset.faces)) - 1
    rejected = family & ~_respecting(has, pairs, family)
    if rejected:
        f = poset.faces[(rejected & -rejected).bit_length() - 1]
        named = tuple(i + 1 for i in f.index_set)
        raise InternalCheckError(f"face {named} rejected by the relation filter")
    return "ok"


# -- mode handlers -----------------------------------------------------------------


def _weight_monoid_report(mode, w, cone, p, pairs=None) -> dict:
    """The report keys an ``eigen`` and a ``monoid`` job share, read off
    the weight monoid ``w`` and its ``cone_and_poset`` pair, with the
    smallest (the envelope's zero projections) and largest index sets
    checked against the poset.  The chain length is the envelope's
    dimension, which ``toric_envelope`` checks against the graded walk."""
    env = toric_envelope(cone, p)
    prefix = {"eigen": "t", "monoid": "g"}[mode]
    return {
        "schema": SCHEMA,
        "mode": mode,
        "lattice_rank": w.ambient_rank,
        "generators": [list(g) for g in w.generators],
        "labels": [f"{prefix}{i}" for i in range(1, len(w.generators) + 1)],
        "idempotents": _poset_doc(p, 0),
        "smallest_index_set": list(smallest_idempotent_indices(env, p)),
        "largest_index_set": [i + 1 for i in largest_idempotent(p).index_set],
        "chain_length": env.envelope_dim,
        "envelope": _envelope_doc(env, p),
        "crosschecks": {
            "subset_oracle": _subset_oracle(
                cone, (f.index_set for f in p.faces), pairs
            ),
        },
    }


def _run_eigen(payload):
    _expect_keys(payload, {"eigenvalues"})
    raw = payload["eigenvalues"]
    if not isinstance(raw, list) or not raw:
        raise InputError("eigenvalues must be a nonempty array")
    e = eigen_input([_rational(x, "eigenvalue") for x in raw])
    t = factor(e)
    # the generators share the exponent rows' kernel, so it gives their
    # circuits, whose sign masks both cross-checks take, and the relations
    w, kernel = character_data(t)
    cone, p = cone_and_poset(w)
    circuits = signed_circuits(cone.ambient_dim, cone.generators, kernel)
    pairs = [sign_masks(c) for c in circuits]
    rels = primitive_relations(t, kernel)
    report = _weight_monoid_report("eigen", w, cone, p, pairs)
    if not power_invariance(e, 2, t):
        raise InternalCheckError("squaring the spectrum changed the weight monoid")
    report |= {
        "eigenvalues": [str(q) for q in e.eigenvalues],
        "multiplicities": list(e.multiplicities),
        "primes": list(t.primes),
        "signs": list(t.signs),
        "exponent_matrix": [list(row) for row in t.matrix],
        "primitive_relations": [_relation_doc(r) for r in rels],
        "power_invariance_squared": True,
    }
    report["crosschecks"]["relation_filter"] = _relation_filter_check(p, pairs)
    return report


def _generator_rows(payload):
    _expect_keys(payload, {"ambient_dim", "generators"})
    dim = _int(payload["ambient_dim"], "ambient_dim")
    if dim < 0:
        raise InputError("ambient_dim must be nonnegative")
    return dim, IntegerMatrix.from_rows(payload["generators"], cols=dim)


def _run_monoid(payload):
    dim, mat = _generator_rows(payload)
    w = monoid_from_generators(mat)
    cone, p = cone_and_poset(w)
    report = _weight_monoid_report("monoid", w, cone, p)
    report["ambient_dim"] = dim
    return report


def _run_cone(payload):
    dim, mat = _generator_rows(payload)
    cone = cone_from_generators(dim, mat)
    poset = enumerate_faces(cone)
    return {
        "schema": SCHEMA,
        "mode": "cone",
        "ambient_dim": dim,
        "generators": [list(g) for g in mat.entries],
        "dim": cone.dim,
        "extreme_rays": [list(r) for r in extreme_rays(cone, poset)],
        "facets": [list(f) for f in cone.facets],
        "lineality_basis": [list(row) for row in cone.lineality.basis.entries],
        "lineality_rank": cone.lineality.rank,
        "faces": [
            {"index_set": list(f.index_set), "dim": f.dim, "witness": list(f.witness)}
            for f in poset.faces
        ],
        "hasse_edges": [list(edge) for edge in poset.hasse_edges],
        "bottom": poset.bottom,
        "top": poset.top,
        "crosschecks": {
            "subset_oracle": _subset_oracle(cone, (f.index_set for f in poset.faces))
        },
    }


def _run_finite(payload):
    _expect_keys(payload, {"table"})
    s = validate_table(payload["table"])
    idems = idempotent_elements(s)
    g = greens_classes(s)
    ips = [index_period(s, x) for x in range(s.size)]
    for x, ip in enumerate(ips):
        idempotent_power(s, x, ip)
    return {
        "schema": SCHEMA,
        "mode": "finite",
        "size": s.size,
        "commutative": s.commutative,
        "idempotents": list(idems),
        "smallest_idempotent": (
            smallest_idempotent_commutative(s) if s.commutative else None
        ),
        "index_period": [[ip.element, ip.index, ip.period] for ip in ips],
        "greens": {
            "l_classes": [list(c) for c in g.l_classes],
            "r_classes": [list(c) for c in g.r_classes],
            "j_classes": [list(c) for c in g.j_classes],
            "h_classes": [list(c) for c in g.h_classes],
        },
        "criterion": {str(e): check_smallest_criterion(s, e) for e in idems},
        "crosschecks": {"idempotent_powers": "ok"},
    }


# -- self test -------------------------------------------------------------------


def _random_cone_jobs(seed, count):
    """Up to 6 generators in dimension 1 to 4, entries in [-3, 3]."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        r = rng.randint(0, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(r)]
        jobs.append((dim, gens))
    return jobs


def _random_spectra(seed, count):
    """1 to 5 values p/q with 0 < |p| <= 30 and 0 < q <= 30."""
    rng = random.Random(seed)
    nums = [n for n in range(-30, 31) if n != 0]
    out = []
    for _ in range(count):
        values = []
        for _ in range(rng.randint(1, 5)):
            num = rng.choice(nums)
            den = rng.randint(1, 30)
            values.append(Fraction(num, den))
        out.append(values)
    return out


def _case_doc(case):
    """A selftest case as JSON: Fractions as "p/q", tables as rows."""
    # a FiniteSemigroup is a tuple too: it is tested first
    if isinstance(case, FiniteSemigroup):
        return [list(row) for row in case.table]
    if isinstance(case, (list, tuple)):
        return [_case_doc(x) for x in case]
    if isinstance(case, Fraction):
        return str(case)
    return case


def run_selftest() -> dict:
    checks = []

    def run_cases(name, cases, body, seed=None):
        # seed is that of the generator the cases came from (None for the
        # fixed catalogue); with the case's position it rebuilds the case
        passed = failed = 0
        first = None
        for k, case in enumerate(cases):
            try:
                body(case)
                passed += 1
            except (InternalCheckError, AssertionError) as exc:
                failed += 1
                if first is None:
                    error = type(exc).__name__ + (f": {exc}" if str(exc) else "")
                    first = {
                        "seed": seed,
                        "case": k,
                        "input": _case_doc(case),
                        "error": error,
                    }
        check = {"name": name, "passed": passed, "failed": failed}
        if failed:
            check["first_failure"] = first
        checks.append(check)

    def face_oracle(job):
        # the cone handler runs the subset oracle on every job
        dim, gens = job
        _run_cone({"ambient_dim": dim, "generators": gens})

    run_cases("face_oracle", _random_cone_jobs(1, 15), face_oracle, seed=1)

    spectra = _random_spectra(2, 12)

    def invariance(case):
        values, n = case
        assert power_invariance(eigen_input(values), n)

    run_cases(
        "power_invariance",
        [(v, n) for v in spectra for n in (2, 3)],
        invariance,
        seed=2,
    )

    def rel_filter(values):
        # the eigen handler checks the relations against the idempotents
        _run_eigen({"eigenvalues": [str(q) for q in values]})

    run_cases("relation_filter", _random_spectra(3, 12), rel_filter, seed=3)

    tables = [s for n in (1, 2, 3) for s in all_associative_tables(n)]
    tables.extend(zmod_times(n) for n in range(1, 16))

    def criterion(case):
        s, e = case
        check_smallest_criterion(s, e)

    run_cases(
        "catalogue_criterion",
        [(s, e) for s in tables for e in idempotent_elements(s)],
        criterion,
    )

    def powers(case):
        s, x = case
        f = idempotent_power(s, x)
        seen = set()
        y = x
        while y not in seen:
            seen.add(y)
            y = s.table[y][x]
        assert f in seen

    run_cases(
        "idempotent_powers", [(s, x) for s in tables for x in range(s.size)], powers
    )

    ok = all(c["failed"] == 0 for c in checks)
    return {"schema": SCHEMA, "mode": "selftest", "checks": checks, "ok": ok}


# -- document dispatch -------------------------------------------------------------


def run(doc) -> dict:
    """Execute a job document and return the report as a JSON-ready dict."""
    if not isinstance(doc, dict):
        raise InputError("job document must be a JSON object")
    unknown = sorted(set(doc) - {"schema", "mode", "payload"})
    if unknown:
        raise InputError(f"unknown document keys: {', '.join(map(str, unknown))}")
    schema = doc.get("schema", SCHEMA)
    if schema not in ("idempotoric/v1", SCHEMA):
        raise InputError(f"unsupported schema {schema!r}; this build reads v1 and v2")
    mode = doc.get("mode")
    if mode not in _MODES:
        raise InputError(f"mode must be one of: {', '.join(_MODES)}")
    payload = doc.get("payload", {} if mode == "selftest" else None)
    if payload is None:
        raise InputError(f"mode {mode!r} requires a payload object")
    if not isinstance(payload, dict):
        raise InputError("payload must be a JSON object")
    if mode == "selftest":
        _expect_keys(payload, ())
        return run_selftest()
    handler = {
        "eigen": _run_eigen,
        "monoid": _run_monoid,
        "cone": _run_cone,
        "finite": _run_finite,
    }[mode]
    return handler(payload)


# -- DOT rendering -------------------------------------------------------------------


def export_dot(rep) -> str:
    """Render the poset of a report from ``run`` as a Graphviz digraph.

    A ``cone`` report draws its faces (0-based index sets), an ``eigen``
    or ``monoid`` report its idempotents (1-based, as the report names
    them); any other mode raises InputError.  One node per element labeled
    with its index set and dimension, edges from smaller to larger,
    elements of equal dimension pinned to the same rank.  Output is
    byte-deterministic.
    """
    mode = rep["mode"]
    if mode == "cone":
        items = [(f["index_set"], f["dim"]) for f in rep["faces"]]
        edges = rep["hasse_edges"]
    elif mode in ("eigen", "monoid"):
        poset = rep["idempotents"]
        items = [(e["index_set"], e["face_dim"]) for e in poset["elements"]]
        edges = poset["hasse_edges"]
    else:
        raise InputError(f"mode {mode!r} has no poset to draw")
    lines = ["digraph idempotents {", "  rankdir=BT;", "  node [shape=box];"]
    for i, (s, d) in enumerate(items):
        lines.append(f'  n{i} [label="{_set_text(s)}\\ndim {d}"];')
    for d in sorted({d for _, d in items}):
        members = " ".join(f"n{i};" for i, (_, dd) in enumerate(items) if dd == d)
        lines.append("  { rank=same; " + members + " }")
    for a, b in sorted(edges):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)


# -- text rendering ---------------------------------------------------------------


def _relation_text(rel_doc) -> str:
    def side(terms):
        if not terms:
            return "1"
        return "*".join(
            f"t{i}" if a == 1 else f"t{i}^{a}" for i, a in terms
        )

    return side(rel_doc["lhs"]) + " = " + side(rel_doc["rhs"])


def _text_report(rep) -> str:
    mode = rep["mode"]
    lines = [f"{mode} report ({SCHEMA})"]
    if mode in ("eigen", "monoid"):
        if mode == "eigen":
            lines.append("eigenvalues: " + ", ".join(rep["eigenvalues"]))
            lines.append(
                "primes: " + (", ".join(str(p) for p in rep["primes"]) or "none")
            )
            rels = "; ".join(_relation_text(r) for r in rep["primitive_relations"])
            lines.append("relations: " + (rels or "none"))
        lines.append(f"lattice rank: {rep['lattice_rank']}")
        gens = " ".join(
            f"{lab}=({','.join(str(c) for c in g)})"
            for lab, g in zip(rep["labels"], rep["generators"])
        )
        lines.append("generators: " + gens)
        elements = rep["idempotents"]["elements"]
        lines.append(
            f"idempotents ({len(elements)}): "
            + " ".join(_set_text(e["index_set"]) for e in elements)
        )
        lines.append(
            "smallest: "
            + _set_text(rep["smallest_index_set"])
            + "  largest: "
            + _set_text(rep["largest_index_set"])
        )
        lines.append(f"chain length: {rep['chain_length']}")
        lines.append(f"envelope dim: {rep['envelope']['envelope_dim']}")
    elif mode == "cone":
        lines.append(f"ambient dim: {rep['ambient_dim']}  cone dim: {rep['dim']}")
        lines.append(f"extreme rays: {len(rep['extreme_rays'])}")
        lines.append(f"facets: {len(rep['facets'])}")
        lines.append(f"lineality rank: {rep['lineality_rank']}")
        lines.append(
            f"faces ({len(rep['faces'])}): "
            + " ".join(
                f"{_set_text(f['index_set'])}:dim{f['dim']}" for f in rep["faces"]
            )
        )
    elif mode == "finite":
        lines.append(f"size: {rep['size']}  commutative: {rep['commutative']}")
        lines.append(
            "idempotents: " + ", ".join(str(e) for e in rep["idempotents"])
        )
        if rep["smallest_idempotent"] is not None:
            lines.append(f"smallest idempotent: {rep['smallest_idempotent']}")
        lines.append(
            "criterion: "
            + " ".join(f"{e}={v}" for e, v in sorted(rep["criterion"].items()))
        )
        lines.append(f"j classes: {len(rep['greens']['j_classes'])}")
    else:
        for check in rep["checks"]:
            lines.append(
                f"{check['name']}: {check['passed']} passed, {check['failed']} failed"
            )
            if "first_failure" in check:
                first = check["first_failure"]
                lines.append(
                    f"  first failure: case {first['case']} (seed {first['seed']}): "
                    + first["error"]
                )
        lines.append("ok" if rep["ok"] else "FAILED")
    return "\n".join(lines)


# -- command line -------------------------------------------------------------------


def _reject_float(text):
    raise InputError(
        f"floating-point literal {text!r} not accepted; use an exact 'p/q' string"
    )


def _error_doc(kind, message) -> str:
    return _dump({"schema": SCHEMA, "error": {"kind": kind, "message": message}})


def _load_document(mode, input_arg):
    if mode == "selftest":
        return {"mode": "selftest", "payload": {}}
    try:
        raw = sys.stdin.read() if input_arg == "-" else Path(input_arg).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}")
    try:
        data = json.loads(
            raw, parse_float=_reject_float, parse_constant=_reject_float
        )
    except InputError:
        raise
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON input: {exc}")
    except ValueError:
        # an integer literal past the interpreter's int-string digit limit
        raise InputError("JSON integer literal has too many digits") from None
    except RecursionError:
        raise InputError("JSON input is nested too deeply")
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    if {"schema", "mode", "payload"} & set(data):
        declared = data.get("mode", mode)
        if declared != mode:
            raise InputError(
                f"document says mode {declared!r} but the command line says {mode!r}"
            )
        doc = dict(data)
        doc["mode"] = mode
        return doc
    return {"mode": mode, "payload": data}


class _Parser(argparse.ArgumentParser):
    """Command-line usage errors are rejected input: exit 1 with an error
    document, not argparse's exit 2, which is kept for internal faults."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls."""
    parser = _Parser(
        prog="idempotoric",
        description="idempotent structure of commutative algebraic semigroups",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "eigen": "idempotent poset attached to a list of nonzero eigenvalues",
        "monoid": "idempotent poset of a finitely generated weight monoid",
        "cone": "face lattice of a rational polyhedral cone",
        "finite": "idempotents and Green's classes of a finite multiplication table",
        "selftest": "run the built-in oracle suites",
    }
    for mode in _MODES:
        p = sub.add_parser(mode, help=helps[mode])
        p.add_argument("--input", default="-", help="JSON file path, or - for stdin")
        p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    return parser


_WRITERS = {"json": _dump, "text": _text_report, "dot": export_dot}


def _write(fmt, report) -> str:
    """The report in format ``fmt``.  An int past the interpreter's
    int-string digit limit, which bounds the input literals too, is
    rejected input; any other error of a writer passes through."""
    try:
        return _WRITERS[fmt](report)
    except ValueError as exc:
        if isinstance(exc, InputError) or "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise InputError(
            f"a report integer has more than {limit} digits,"
            " the interpreter's limit for writing one"
        ) from None


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        doc = _load_document(args.mode, args.input)
        report = run(doc)
        out = _write(args.format, report)
        code = 0 if report.get("ok", True) else 2
    except InputError as exc:
        out, code = _error_doc("input", str(exc)), 1
    except InternalCheckError as exc:
        out, code = _error_doc("internal", str(exc)), 2
    except Exception as exc:
        # anything else is a fault of this program; name the function that
        # raised it
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        message = f"{type(exc).__name__} in {tb.tb_frame.f_code.co_name}: {exc}"
        out, code = _error_doc("internal", message), 2
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so the
        # interpreter's flush at exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
