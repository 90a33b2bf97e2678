"""CLI surface: payload validation, reports, DOT export, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cross_polytope_cone,
    cube_cone,
    cube_times_line,
    random_cone_inputs,
    subsets,
)

from idempotoric.cli import (
    SCHEMA,
    _WRITERS,
    _dump,
    _fill,
    _parser,
    _random_spectra,
    _relation_filter_check,
    _subset_oracle,
    _write,
    export_dot,
    main,
    run,
)
from idempotoric.cones import (
    circuit_criterion,
    cone_from_generators,
    enumerate_faces,
    sign_masks,
    signed_circuits,
)
from idempotoric.eigen import PrimitiveRelation, power_invariance, relation_masks
from idempotoric.errors import InputError, InternalCheckError
from idempotoric.finite import all_associative_tables, validate_table
from idempotoric.lattices import IntegerMatrix
from idempotoric.monoids import idempotents, monoid_from_generators


def eigen_doc(values):
    return {"mode": "eigen", "payload": {"eigenvalues": values}}


# -- run(): eigen ------------------------------------------------------------


def test_eigen_report_triple():
    rep = run(eigen_doc(["2", "3", "6"]))
    assert rep["schema"] == SCHEMA
    assert rep["lattice_rank"] == 2
    sets = [e["index_set"] for e in rep["idempotents"]["elements"]]
    assert sets == [[], [1], [2], [1, 2, 3]]
    assert {"lhs": [[1, 1], [2, 1]], "rhs": [[3, 1]]} in rep["primitive_relations"]
    assert rep["chain_length"] == 2
    assert rep["envelope"]["envelope_dim"] == 2
    assert rep["smallest_index_set"] == []
    assert rep["largest_index_set"] == [1, 2, 3]
    assert rep["power_invariance_squared"] is True


def test_eigen_accepts_ints_and_fraction_strings():
    rep = run(eigen_doc([2, "1/2"]))
    assert rep["eigenvalues"] == ["2", "1/2"]
    assert [e["index_set"] for e in rep["idempotents"]["elements"]] == [[1, 2]]


def test_eigen_rejects_bad_rationals():
    with pytest.raises(InputError, match="nonzero"):
        run(eigen_doc(["0", "2"]))
    with pytest.raises(InputError):
        run(eigen_doc(["0.5"]))
    with pytest.raises(InputError):
        run(eigen_doc(["2/0"]))
    with pytest.raises(InputError):
        run(eigen_doc([2.5]))
    with pytest.raises(InputError):
        run(eigen_doc([True]))
    with pytest.raises(InputError):
        run(eigen_doc([]))


def test_document_validation():
    with pytest.raises(InputError):
        run({"mode": "eigen"})  # no payload
    with pytest.raises(InputError):
        run({"mode": "bogus", "payload": {}})
    with pytest.raises(InputError):
        run({"mode": "eigen", "payload": {"eigenvalues": ["2"]}, "extra": 1})
    with pytest.raises(InputError):
        run({"schema": "other/v9", "mode": "eigen", "payload": {"eigenvalues": ["2"]}})
    with pytest.raises(InputError):
        run(eigen_doc(["2"]) | {"payload": {"eigenvalues": ["2"], "junk": 0}})


def test_schema_v1_and_v2_are_read_and_v2_is_written():
    for schema in ("idempotoric/v1", "idempotoric/v2"):
        rep = run(eigen_doc(["2", "3", "6"]) | {"schema": schema})
        assert rep["schema"] == SCHEMA == "idempotoric/v2"
        assert "relation_bound" not in rep
        assert rep["primitive_relations"] == [
            {"lhs": [[1, 1], [2, 1]], "rhs": [[3, 1]]}
        ]
    with pytest.raises(InputError, match="this build reads v1 and v2"):
        run(eigen_doc(["2"]) | {"schema": "idempotoric/v3"})


# -- run(): monoid, cone, finite ----------------------------------------------


def test_monoid_report():
    rep = run(
        {
            "mode": "monoid",
            "payload": {"ambient_dim": 2, "generators": [[2, 0], [0, 2], [2, 2]]},
        }
    )
    assert rep["lattice_rank"] == 2
    assert rep["generators"] == [[1, 0], [0, 1], [1, 1]]
    assert len(rep["idempotents"]["elements"]) == 4
    assert rep["envelope"]["quotient_rank"] == 2


def test_monoid_dimension_mismatch():
    with pytest.raises(InputError):
        run({"mode": "monoid", "payload": {"ambient_dim": 3, "generators": [[1, 0]]}})


def test_cone_report():
    rep = run(
        {
            "mode": "cone",
            "payload": {"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]},
        }
    )
    assert rep["dim"] == 2
    assert rep["facets"] == [[0, 1], [1, 0]]
    assert [f["index_set"] for f in rep["faces"]] == [[], [0], [1], [0, 1, 2]]
    assert rep["lineality_rank"] == 0


def test_finite_report():
    rep = run({"mode": "finite", "payload": {"table": [[0, 0], [0, 1]]}})
    assert rep["idempotents"] == [0, 1]
    assert rep["smallest_idempotent"] == 0
    assert rep["commutative"] is True
    assert rep["criterion"] == {"0": True, "1": False}


def test_finite_non_associative_rejected():
    with pytest.raises(InputError, match="associative"):
        run({"mode": "finite", "payload": {"table": [[0, 0], [1, 0]]}})


# -- malformed payloads: each layer is the one validator of its values ----------


@pytest.mark.parametrize(
    "mode, payload, message",
    [
        ("finite", {"table": 5}, "table must be an array of arrays"),
        ("finite", {"table": [[0, 0], None]}, "table[1] must be an array"),
        ("finite", {"table": [0]}, "table[0] must be an array"),
        (
            "finite",
            {"table": [[0, "1"], [1, 0]]},
            "table[0] entry must be an integer, got '1'",
        ),
        (
            "finite",
            {"table": [[0, 0], [0, True]]},
            "table[1] entry must be an integer, got True",
        ),
        ("finite", {"table": [[0, 2], [1, 0]]}, "table entry 2 outside 0..1"),
        ("finite", {"table": [[0, 1], [1]]}, "multiplication table must be square"),
        ("finite", {"table": []}, "multiplication table must be nonempty"),
        (
            "cone",
            {"ambient_dim": 2, "generators": [[1, 0], [1]]},
            "matrix row 1 has length 1, expected 2",
        ),
        (
            "cone",
            {"ambient_dim": 2, "generators": [None]},
            "matrix row 0 must be an array",
        ),
        (
            "cone",
            {"ambient_dim": 2, "generators": 7},
            "matrix rows must be an array of arrays",
        ),
        (
            "cone",
            {"ambient_dim": 2, "generators": [[1, "a"]]},
            "matrix entries must be plain ints, got 'a' in row 0",
        ),
        (
            "cone",
            {"ambient_dim": True, "generators": [[1]]},
            "ambient_dim must be an integer, got True",
        ),
        (
            "monoid",
            {"ambient_dim": -1, "generators": []},
            "ambient_dim must be nonnegative",
        ),
        (
            "monoid",
            {"ambient_dim": 3, "generators": [[1, 0]]},
            "matrix row 0 has length 2, expected 3",
        ),
    ],
    ids=[
        "table-not-array",
        "none-row",
        "int-row",
        "string-entry",
        "bool-entry",
        "out-of-range",
        "not-square",
        "empty-table",
        "wrong-width",
        "none-generator",
        "generators-not-array",
        "string-generator-entry",
        "bool-ambient-dim",
        "negative-ambient-dim",
        "monoid-width",
    ],
)
def test_main_rejects_malformed_payloads(mode, payload, message, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code = main([mode, "--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc == {
        "schema": SCHEMA,
        "error": {"kind": "input", "message": message},
    }


@pytest.mark.parametrize(
    "text",
    ["\u0663", "\uff13/\uff12", "2/\u0663"],
    ids=["arabic-indic", "fullwidth", "mixed"],
)
def test_main_rejects_non_ascii_digits(text, tmp_path, capsys):
    # int() reads every Unicode decimal digit; a rational takes ASCII only
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": [text]}))
    code = main(["eigen", "--input", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "input",
        "message": f"eigenvalue: {text!r} is not an integer or 'p/q' string",
    }


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "mode, template",
    [
        ("eigen", '{"eigenvalues": [2, %s]}'),
        ("cone", '{"ambient_dim": 2, "generators": [[1, %s]]}'),
        ("finite", '{"table": [[0, %s], [0, 0]]}'),
    ],
    ids=["eigen", "cone", "finite"],
)
def test_main_rejects_non_finite_literals(mode, template, constant, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(template % constant)
    code = main([mode, "--input", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "input",
        "message": f"floating-point literal {constant!r} not accepted;"
        " use an exact 'p/q' string",
    }


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter writes ints of any length",
)
def test_main_rejects_a_report_integer_past_the_digit_limit(tmp_path, capsys):
    # every input literal is under the limit, but the facet normals, 3 x 3
    # minors of 1,500-digit entries, are past it
    rng = random.Random(4300)
    big = [
        [rng.choice((-1, 1)) * rng.randrange(10**1499, 10**1500) for _ in range(4)]
        for _ in range(5)
    ]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"ambient_dim": 4, "generators": big}))
    code = main(["cone", "--input", str(path)])
    assert code == 1
    limit = sys.get_int_max_str_digits()
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "input",
        "message": f"a report integer has more than {limit} digits,"
        " the interpreter's limit for writing one",
    }
    # the text report gives counts and index sets, no vector, so it is
    # written in full
    code = main(["cone", "--input", str(path), "--format", "text"])
    assert code == 0
    assert "facets: 4" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_table(None),
        lambda: validate_table([1, 2]),
        lambda: IntegerMatrix.from_rows([None], cols=2),
        lambda: cone_from_generators(2, [None]),
        lambda: monoid_from_generators([None]),
        lambda: cone_from_generators(True, [(1,)]),
    ],
    ids=[
        "table-none",
        "table-of-ints",
        "matrix-none-row",
        "cone-none-row",
        "monoid-none-row",
        "cone-bool-dim",
    ],
)
def test_library_entry_points_reject_malformed_shapes(call):
    with pytest.raises(InputError):
        call()


def test_reports_are_deterministic_and_reparse():
    doc = eigen_doc(["2", "3", "6"])
    a = json.dumps(run(doc), sort_keys=True, indent=2)
    b = json.dumps(run(doc), sort_keys=True, indent=2)
    assert a == b
    again = json.loads(a)
    assert again["schema"] == SCHEMA


# -- report writer ---------------------------------------------------------------

INTS = st.one_of(st.integers(), st.sampled_from([0, 1, -1, 10**30, -(10**30)]))
STRINGS = st.text(
    st.one_of(
        st.sampled_from(
            ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001F600"]
        ),
        st.characters(),
    )
)
# keys a record template must escape: its fields are joined by ``%``
KEYS = st.one_of(STRINGS, st.sampled_from(["%", "%s", "%%", "a%sb", "%(k)s", "dim"]))


def _columns(inner):
    """Lists that the writer fills from one template: records that share
    one key set, rows of equal length, rows that mix lists and tuples, and
    ragged rows, each with bools next to ints."""
    cell = st.one_of(INTS, st.booleans())
    field = st.one_of(
        cell,
        STRINGS,
        st.lists(cell, max_size=4),
        st.lists(st.lists(INTS, max_size=2), max_size=3),
        st.dictionaries(KEYS, cell, max_size=2),
        inner,
    )
    records = st.lists(KEYS, unique=True, max_size=4).flatmap(
        lambda keys: st.lists(
            st.fixed_dictionaries({k: field for k in keys}), min_size=1, max_size=5
        )
    )
    equal_rows = st.integers(0, 3).flatmap(
        lambda n: st.lists(
            st.one_of(
                st.lists(cell, min_size=n, max_size=n),
                st.lists(INTS, min_size=n, max_size=n).map(tuple),
                st.lists(inner, min_size=n, max_size=n),
            ),
            min_size=1,
        )
    )
    ragged_rows = st.lists(
        st.one_of(
            st.lists(cell, max_size=3),
            st.lists(INTS, max_size=3).map(tuple),
            st.lists(st.lists(cell, max_size=2), max_size=2),
        ),
        min_size=1,
    )
    return st.one_of(records, equal_rows, ragged_rows)


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, STRINGS),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(INTS),
        st.lists(st.one_of(INTS, st.booleans())),
        # rows of ints, as Hasse edges and generators, some empty or with a bool
        st.lists(st.lists(INTS, min_size=1)),
        st.lists(st.lists(st.one_of(INTS, st.booleans()))),
        st.dictionaries(STRINGS, inner),
        _columns(inner),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_dump_matches_json_dumps(value):
    assert _dump(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [[], []],
        [[1, 2], (3, 4), [5, True]],
        [[1], [], (2, 3), [], [[4], []]],
        [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
        [{"%": 1, "%s": [2], "a%%b": "%d"}, {"%": True, "%s": [], "a%%b": "%s"}],
        [
            {"dim": 0, "index_set": [], "witness": [1, 1]},
            {"dim": 1, "index_set": [0], "witness": [0, 1]},
        ],
        [{"lhs": [[0, 2]], "rhs": [[1, 1], [2, 1]]}, {"lhs": [], "rhs": [[0, 1]]}],
        [{"a": {"b": [1]}}, {"a": {"b": []}}, {"a": {"c": None}}],
        [{}, {}],
        [{"a": 1}, {"b": 1}],
    ],
    ids=[
        "empty-rows",
        "lists-and-tuples",
        "ragged-with-empty-rows",
        "rows-of-rows",
        "percent-keys",
        "faces",
        "relations",
        "nested-records",
        "empty-records",
        "different-key-sets",
    ],
)
def test_dump_matches_json_dumps_on_columns(value):
    assert _dump(value) == json.dumps(value, sort_keys=True, indent=2)


def _cone_payload(cone):
    return {
        "ambient_dim": cone.ambient_dim,
        "generators": [list(g) for g in cone.generators],
    }


@pytest.mark.parametrize("mode", ["cone", "monoid"])
@pytest.mark.parametrize(
    "cone",
    [cube_cone(5), cross_polytope_cone(5), cube_times_line(3)],
    ids=["cube-5", "cross-polytope-5", "cube-3-times-line"],
)
def test_dump_matches_json_dumps_on_reports(mode, cone):
    report = run({"schema": SCHEMA, "mode": mode, "payload": _cone_payload(cone)})
    assert _dump(report) == json.dumps(report, sort_keys=True, indent=2)


def test_dump_matches_json_dumps_on_an_eigen_report_with_units():
    report = run(eigen_doc(["2", "1/2", "3", "6"]))
    assert report["envelope"]["unit_lattice_basis"]
    assert _dump(report) == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        0.5,
        Fraction(1, 2),
        {1: "a"},
        [1, 2.0],
        [[1], [2, 2.0]],
        {"a": [Fraction(1, 3)]},
        [{"a": 1}, {"a": 0.5}],
        [[1, 2], [3, Fraction(1, 2)]],
        [{1: "a"}, {1: "b"}],
    ],
    ids=[
        "float",
        "fraction",
        "int-key",
        "float-in-int-list",
        "float-in-int-row",
        "nested-fraction",
        "float-in-record-column",
        "fraction-in-equal-length-row",
        "int-key-in-record",
    ],
)
def test_dump_rejects_values_json_would_round_or_coerce(value):
    with pytest.raises(TypeError):
        _dump(value)


# one report row: exact ints, as a list or a tuple, possibly empty
INT_ROWS = st.one_of(st.lists(INTS, max_size=4), st.lists(INTS, max_size=4).map(tuple))


def _dumps_and_fills(value):
    """``_dump`` gives the bytes of ``json.dumps``, and ``_fill`` takes the
    list, so those bytes came from its one template."""
    assert _dump(value) == json.dumps(value, sort_keys=True, indent=2)
    assert _fill(value, "\n  ") is not None


@settings(max_examples=200, deadline=None)
@given(st.lists(INT_ROWS, min_size=1))
def test_fill_writes_int_rows_of_mixed_lengths(rows):
    _dumps_and_fills(rows)


# each key holds one kind of field in every record: an int, an int row or
# a row of int rows
FIELDS = st.sampled_from([INTS, INT_ROWS, st.lists(INT_ROWS, max_size=3)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(KEYS, FIELDS), min_size=1, max_size=4, unique_by=lambda f: f[0])
    .map(dict)
    .flatmap(
        lambda fields: st.lists(st.fixed_dictionaries(fields), min_size=1, max_size=6)
    )
)
def test_fill_writes_records_of_ints_and_rows(records):
    _dumps_and_fills(records)


RELATION_SIDE = st.lists(st.tuples(st.integers(1, 9), INTS).map(list), max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries({"lhs": RELATION_SIDE, "rhs": RELATION_SIDE}), min_size=1
    ),
    st.sampled_from(["lhs", "%", "%d", "100%"]),
)
def test_fill_writes_relations_with_empty_sides_and_percent_keys(relations, key):
    records = [{key: r["lhs"], "rhs": r["rhs"]} for r in relations]
    _dumps_and_fills(records)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {"dim": INTS, "index_set": INT_ROWS, "witness": INT_ROWS}
        ),
        min_size=1,
        max_size=5,
    ),
    st.data(),
)
def test_records_with_a_field_of_another_kind_are_written_one_by_one(faces, data):
    i = data.draw(st.integers(0, len(faces) - 1))
    key = data.draw(st.sampled_from(["dim", "index_set", "witness"]))
    faces[i][key] = data.draw(st.one_of(st.booleans(), STRINGS, st.none()))
    assert _fill(faces, "\n  ") is None
    assert _dump(faces) == json.dumps(faces, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "bad",
    [0.5, 2.0, Fraction(1, 2), Fraction(4, 2)],
    ids=["float", "whole-float", "fraction", "whole-fraction"],
)
@pytest.mark.parametrize(
    "place",
    [
        lambda bad: [[1, 2], [3, bad]],
        lambda bad: [(1,), [], (2, bad, 3)],
        lambda bad: [{"dim": 0, "witness": [1]}, {"dim": bad, "witness": [2]}],
        lambda bad: [
            {"lhs": [[1, 1]], "rhs": []},
            {"lhs": [[2, bad]], "rhs": [[1, 2]]},
        ],
    ],
    ids=["int-rows", "ragged-rows", "record-int-column", "relation-side"],
)
def test_fill_shapes_reject_a_float_or_a_fraction(place, bad):
    with pytest.raises(TypeError):
        _dump(place(bad))


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter writes ints of any length",
)
def test_write_rejects_a_record_int_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    faces = [
        {"dim": 0, "index_set": [], "witness": [1, 1]},
        {"dim": 1, "index_set": [0], "witness": [10**limit, 1]},
    ]
    with pytest.raises(InputError) as caught:
        _write("json", {"faces": faces})
    assert str(caught.value) == (
        f"a report integer has more than {limit} digits,"
        " the interpreter's limit for writing one"
    )


# -- DOT export ----------------------------------------------------------------


def monoid_doc(gens):
    payload = {"ambient_dim": len(gens[0]), "generators": gens}
    return {"mode": "monoid", "payload": payload}


def test_dot_quadrant():
    rep = run(monoid_doc([[1, 0], [0, 1], [1, 1]]))
    dot = export_dot(rep)
    assert dot.count("label=") == 4
    assert dot.count("->") == 4
    assert "rankdir=BT" in dot
    assert export_dot(rep) == dot


def test_dot_single_node():
    dot = export_dot(run(monoid_doc([[0]])))
    assert dot.count("label=") == 1
    assert dot.count("->") == 0


def test_dot_three_chain():
    rep = {
        "mode": "monoid",
        "idempotents": {
            "elements": [
                {"index_set": [], "face_dim": 0},
                {"index_set": [1], "face_dim": 1},
                {"index_set": [1, 2], "face_dim": 2},
            ],
            "hasse_edges": [[0, 1], [1, 2]],
            "smallest": 0,
            "largest": 2,
        },
    }
    assert export_dot(rep).splitlines() == [
        "digraph idempotents {",
        "  rankdir=BT;",
        "  node [shape=box];",
        '  n0 [label="{}\\ndim 0"];',
        '  n1 [label="{1}\\ndim 1"];',
        '  n2 [label="{1,2}\\ndim 2"];',
        "  { rank=same; n0; }",
        "  { rank=same; n1; }",
        "  { rank=same; n2; }",
        "  n0 -> n1;",
        "  n1 -> n2;",
        "}",
    ]


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("eigen", {"eigenvalues": ["2", "1/2", "3", "6"]}),
        # a unit line: the envelope's dimensions drop by one, the drawn
        # poset's do not
        (
            "monoid",
            {
                "ambient_dim": 3,
                "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]],
            },
        ),
        ("cone", {"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]}),
    ],
)
def test_dot_is_rendered_from_the_report(tmp_path, capsys, mode, payload):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code, out = run_main([mode, "--format", "dot", "--input", str(path)], capsys)
    assert code == 0
    assert out == export_dot(run({"mode": mode, "payload": payload})) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "finite", "payload": {"table": [[0, 0], [0, 1]]}},
        {"mode": "selftest"},
    ],
    ids=["finite", "selftest"],
)
def test_dot_needs_a_report_with_a_poset(doc):
    rep = run(doc)
    with pytest.raises(InputError, match=f"mode '{doc['mode']}' has no poset to draw"):
        export_dot(rep)


# -- command line ---------------------------------------------------------------


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_main_eigen_json(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": ["2", "3", "6"]}))
    code, out = run_main(["eigen", "--input", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["chain_length"] == 2


def test_main_factors_a_large_semiprime(tmp_path, capsys):
    n = 998244353 * 1000000007
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": [str(n)]}))
    code, out = run_main(["eigen", "--input", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["primes"] == [n]
    assert rep["exponent_matrix"] == [[1]]


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"eigenvalues": ["2", "1/2"]}))
    )
    code, out = run_main(["eigen"], capsys)
    assert code == 0
    assert json.loads(out)["lattice_rank"] == 1


def test_main_full_document_with_matching_mode(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(eigen_doc(["2"])))
    code, out = run_main(["eigen", "--input", str(path)], capsys)
    assert code == 0
    path.write_text(json.dumps(eigen_doc(["2"])))
    code, out = run_main(["monoid", "--input", str(path)], capsys)
    assert code == 1


def test_main_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_main(["eigen", "--input", str(bad)], capsys)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "input"

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"eigenvalues": ["0", "2"]}))
    code, out = run_main(["eigen", "--input", str(zero)], capsys)
    assert code == 1
    assert "nonzero" in json.loads(out)["error"]["message"]

    floaty = tmp_path / "floaty.json"
    floaty.write_text(json.dumps({"eigenvalues": [0.5]}))
    code, out = run_main(["eigen", "--input", str(floaty)], capsys)
    assert code == 1

    missing = tmp_path / "missing.json"
    code, out = run_main(["eigen", "--input", str(missing)], capsys)
    assert code == 1


def test_main_dot_format(tmp_path, capsys):
    path = tmp_path / "cone.json"
    path.write_text(
        json.dumps({"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]})
    )
    code, out = run_main(["cone", "--input", str(path), "--format", "dot"], capsys)
    assert code == 0
    assert out.count("->") == 4

    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": [[0, 0], [0, 1]]}))
    code, out = run_main(["finite", "--input", str(table), "--format", "dot"], capsys)
    assert code == 1


def test_main_text_format(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": ["2", "3", "6"]}))
    code, out = run_main(["eigen", "--input", str(path), "--format", "text"], capsys)
    assert code == 0
    assert "chain length: 2" in out
    assert "t1*t2 = t3" in out


@pytest.mark.parametrize(
    "args, message",
    [
        (["eigen", "--bogus"], "idempotoric: unrecognized arguments: --bogus"),
        (
            ["eigen", "--relation-bound", "3"],
            "idempotoric: unrecognized arguments: --relation-bound 3",
        ),
        (
            ["cone", "--no-crosscheck"],
            "idempotoric: unrecognized arguments: --no-crosscheck",
        ),
        (
            ["eigen", "--format", "xml"],
            "idempotoric eigen: argument --format: invalid choice: 'xml'",
        ),
        ([], "idempotoric: the following arguments are required: mode"),
    ],
    ids=["unknown-flag", "relation-bound", "no-crosscheck", "bad-format", "no-mode"],
)
def test_main_usage_errors_are_rejected_input(args, message, capsys):
    code = main(args)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert doc["schema"] == SCHEMA
    assert doc["error"]["kind"] == "input"
    assert doc["error"]["message"].startswith(message)
    assert captured.err.startswith("usage: idempotoric")


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": ["2", "3", "6"]}))
    calls = [
        ["eigen", "--input", str(path), "--format", "text"],
        ["eigen", "--input", str(path)],
        ["eigen", "--input", str(path), "--bogus"],
        ["cone", "--input", str(path)],
        ["eigen", "--input", str(path)],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    codes, outs = [], []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "idempotoric", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        )
        codes.append(code)
        outs.append(captured.out)
    assert codes == [0, 0, 1, 1, 0]
    assert outs[1] == outs[4]
    assert _parser() is _parser()


def test_main_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eigen", "-h"])
    assert exc.value.code == 0
    assert "--format" in capsys.readouterr().out


def test_main_selftest(capsys):
    code, out = run_main(["selftest"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["checks"]
    for check in rep["checks"]:
        assert check["failed"] == 0
        assert check["passed"] > 0
        assert "first_failure" not in check


def test_selftest_names_its_first_failure(monkeypatch, capsys):
    def cubes_fail(e, n, t=None):
        return n != 3 and power_invariance(e, n, t)

    monkeypatch.setattr("idempotoric.cli.power_invariance", cubes_fail)
    code, out = run_main(["selftest"], capsys)
    assert code == 2
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    bad = checks.pop("power_invariance")
    assert (bad["passed"], bad["failed"]) == (12, 12)
    spectrum = [str(q) for q in _random_spectra(2, 12)[0]]
    assert bad["first_failure"] == {
        "seed": 2,
        "case": 1,
        "input": [spectrum, 3],
        "error": "AssertionError",
    }
    assert all("first_failure" not in c for c in checks.values())
    code, out = run_main(["selftest", "--format", "text"], capsys)
    assert "  first failure: case 1 (seed 2): AssertionError" in out.splitlines()


# -- cross-checks ------------------------------------------------------------------


def reference_subset_oracle(cone):
    """The index sets passing the circuit test, one ``circuit_criterion``
    call per subset: the sweep that the oracle makes bit-parallel."""
    masks = [sign_masks(z) for z in signed_circuits(cone.ambient_dim, cone.generators)]
    r = len(cone.generators)
    return {
        tuple(i for i in range(r) if mask >> i & 1)
        for mask in range(1 << r)
        if circuit_criterion(mask, masks)
    }


# bound 1 gives zero, duplicate and opposite generators
ORACLE_CONES = [
    case
    for seed, bound in ((911, 4), (912, 1))
    for case in random_cone_inputs(seed, count=40, max_dim=5, max_gens=10, bound=bound)
]


def test_subset_oracle_matches_the_per_subset_sweep():
    sizes = set()
    for d, gens in ORACLE_CONES:
        cone = cone_from_generators(d, gens)
        sizes.add(len(gens))
        faces = reference_subset_oracle(cone)
        assert _subset_oracle(cone, faces) == "ok"
    assert sizes == set(range(11))


def oracle_error(cone, sets):
    with pytest.raises(InternalCheckError, match="subset oracle disagrees") as exc:
        _subset_oracle(cone, sets)
    return str(exc.value)


def test_subset_oracle_names_the_difference():
    prefix = "subset oracle disagrees with face enumeration: "
    for d, gens in ORACLE_CONES:
        if not 1 <= len(gens) <= 6:
            continue
        cone = cone_from_generators(d, gens)
        faces = reference_subset_oracle(cone)
        every = set(subsets(len(gens)))
        for face in faces:
            assert oracle_error(cone, faces - {face}) == prefix + f"missing {face}"
            if len(face) > 1:
                unsorted = faces - {face} | {face[::-1]}
                assert oracle_error(cone, unsorted) == prefix + f"missing {face}"
            moved = tuple(i + 1 for i in face)
            if moved not in faces:
                wrong = faces - {face} | {moved}
                assert oracle_error(cone, wrong) == prefix + f"missing {face}"
        for sub in every - faces:
            assert oracle_error(cone, faces | {sub}) == prefix + f"extra {sub}"
        # the whole family shifted by one, either way: the least of the
        # sets missed is named
        for step in (1, -1):
            shifted = {tuple(i + step for i in s) for s in faces}
            least = min(faces - shifted)
            assert oracle_error(cone, shifted) == prefix + f"missing {least}"


def test_subset_oracle_catches_a_missing_or_extra_face():
    for d, gens in random_cone_inputs(seed=909, count=12, max_dim=3, max_gens=5):
        cone = cone_from_generators(d, gens)
        faces = {f.index_set for f in enumerate_faces(cone).faces}
        assert _subset_oracle(cone, faces) == "ok"
        for sub in subsets(len(gens)):
            wrong = faces ^ {sub}
            with pytest.raises(InternalCheckError, match="subset oracle disagrees"):
                _subset_oracle(cone, wrong)
    wide = cone_from_generators(1, [(1,)] * 11)
    assert _subset_oracle(wide, set()) == "skipped: more than 10 generators"


def rejected_elements(poset, rels):
    """The 1-based index sets of the elements the relations reject, in
    poset order, one ``circuit_criterion`` call each: the relation filter's
    reference."""
    sides = relation_masks(rels)
    return [
        tuple(i + 1 for i in f.index_set)
        for f in poset.faces
        if not circuit_criterion(sum(1 << i for i in f.index_set), sides)
    ]


def filter_error(index_set):
    return f"face {index_set} rejected by the relation filter"


def test_relation_filter_matches_the_per_element_check():
    rng = random.Random(1717)

    def side(r):
        # generator r + 1 lies in no element
        return tuple((i, 1) for i in range(1, r + 2) if rng.random() < 0.3)

    several = passed = 0
    for d, gens in random_cone_inputs(seed=1716, count=30, max_dim=4, max_gens=6):
        if not gens:
            continue
        p = idempotents(monoid_from_generators(gens))
        r = len(gens)
        for _ in range(10):
            rels = [
                PrimitiveRelation(side(r), side(r)) for _ in range(rng.randint(1, 3))
            ]
            rejected = rejected_elements(p, rels)
            if not rejected:
                assert _relation_filter_check(p, rels, []) == "ok"
                passed += 1
                continue
            with pytest.raises(InternalCheckError) as exc:
                _relation_filter_check(p, rels, [])
            assert str(exc.value) == filter_error(rejected[0])
            several += len(rejected) > 1
    assert several > 50 and passed > 20


def test_relation_filter_names_the_rejected_face():
    p = idempotents(monoid_from_generators([(1, 0), (0, 1), (1, 1)]))
    pairs = [sign_masks((1, 1, -1))]  # t1*t2 = t3
    relation = PrimitiveRelation(((1, 1), (2, 1)), ((3, 1),))
    assert _relation_filter_check(p, [relation], pairs) == "ok"
    forced = [PrimitiveRelation(((1, 1),), ())]  # t1 = 1 puts t1 in every face
    with pytest.raises(InternalCheckError) as exc:
        _relation_filter_check(p, forced + [relation], pairs)
    assert str(exc.value) == "face () rejected by the relation filter"


def test_relation_filter_with_a_generator_in_no_element():
    # the elements are (), (1,), (2,) and (1, 2, 3); no element holds t4
    p = idempotents(monoid_from_generators([(1, 0), (0, 1), (1, 1)]))
    pairs = [sign_masks((1, 1, -1))]  # t1*t2 = t3
    relation = PrimitiveRelation(((1, 1), (2, 1)), ((3, 1),))
    # no element holds either side
    absent = PrimitiveRelation(((4, 1),), ((5, 1),))
    assert _relation_filter_check(p, [relation, absent], pairs) == "ok"
    cases = {
        PrimitiveRelation(((4, 1),), ()): (),  # t4 = 1 rejects every element
        PrimitiveRelation(((1, 1), (4, 1)), ((2, 1),)): (2,),
    }
    for bad, first in cases.items():
        with pytest.raises(InternalCheckError) as exc:
            _relation_filter_check(p, [relation, bad], pairs)
        assert str(exc.value) == filter_error(first)
        assert rejected_elements(p, [relation, bad])[0] == first


def test_relation_filter_needs_every_circuit():
    # without the circuit t1*t2 = t3 the relations would also accept {1, 2}
    p = idempotents(monoid_from_generators([(1, 0), (0, 1), (1, 1)]))
    assert _relation_filter_check(p, [], []) == "ok"
    with pytest.raises(InternalCheckError, match="signed circuit is missing"):
        _relation_filter_check(p, [], [sign_masks((1, 1, -1))])


def error_of(code, out):
    return code, json.loads(out)["error"]["kind"]


def test_main_rejects_integers_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"eigenvalues": [' + "9" * 5000 + "]}")
    assert error_of(*run_main(["eigen", "--input", str(path)], capsys)) == (1, "input")
    path.write_text('{"eigenvalues": ["' + "7" * 5000 + '/3"]}')
    assert error_of(*run_main(["eigen", "--input", str(path)], capsys)) == (1, "input")
    path.write_text('{"eigenvalues": ["3/' + "7" * 5000 + '"]}')
    assert error_of(*run_main(["eigen", "--input", str(path)], capsys)) == (1, "input")


def test_main_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"eigenvalues": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert error_of(*run_main(["eigen", "--input", str(path)], capsys)) == (1, "input")


def test_main_rejects_undecodable_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"eigenvalues": ["\xff"]}')
    assert error_of(*run_main(["eigen", "--input", str(path)], capsys)) == (1, "input")


@pytest.mark.parametrize(
    "mode, payload",
    [("finite", {"table": [[0, 0], [0, 1]]}), ("selftest", None)],
    ids=["finite", "selftest"],
)
def test_main_rejects_dot_for_a_report_without_a_poset(mode, payload, tmp_path, capsys):
    # the writer's InputError is passed through, not taken for the int
    # digit limit
    args = [mode, "--format", "dot"]
    if payload is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        args += ["--input", str(path)]
    code, out = run_main(args, capsys)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "input",
        "message": f"mode '{mode}' has no poset to draw",
    }


def test_main_reports_a_writer_fault_as_internal(monkeypatch, capsys):
    def boom(rep):
        raise ValueError("simulated writer fault")

    monkeypatch.setitem(_WRITERS, "text", boom)
    code, out = run_main(["selftest", "--format", "text"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "internal",
        "message": "ValueError in boom: simulated writer fault",
    }


def test_main_reports_unexpected_exceptions_as_internal(monkeypatch, capsys):
    def boom(*args):
        raise ZeroDivisionError("simulated fault")

    monkeypatch.setattr("idempotoric.cli.run", boom)
    code, out = run_main(["selftest"], capsys)
    assert code == 2
    err = json.loads(out)["error"]
    assert err == {
        "kind": "internal",
        "message": "ZeroDivisionError in boom: simulated fault",
    }


def test_main_survives_a_closed_stdout(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": ["2", "3", "6"]}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idempotoric", "eigen", "--input", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before the report is written
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


# -- fuzzing main: exit 0 or 1 and a JSON document, never a fault ---------------

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
ASSOCIATIVE = [
    [list(row) for row in s.table] for n in (1, 2, 3) for s in all_associative_tables(n)
]


def sometimes(draw, good, bad):
    """``good``, or now and then ``good`` mixed with ``bad``."""
    return st.one_of(good, bad) if draw(st.integers(0, 3)) == 1 else good


@st.composite
def finite_payloads(draw):
    n = draw(st.integers(1, 4))
    entry = sometimes(draw, st.integers(0, n - 1), JUNK)
    row = sometimes(
        draw, st.lists(entry, min_size=n, max_size=n), st.lists(entry, max_size=5)
    )
    table = sometimes(
        draw,
        st.one_of(st.sampled_from(ASSOCIATIVE), st.lists(row, min_size=n, max_size=n)),
        st.one_of(st.lists(sometimes(draw, row, JUNK), max_size=5), JUNK),
    )
    return {"table": draw(table)}


@st.composite
def generator_payloads(draw):
    dim = draw(st.integers(0, 4))
    entry = sometimes(draw, st.integers(-3, 3), JUNK)
    row = sometimes(
        draw, st.lists(entry, min_size=dim, max_size=dim), st.lists(entry, max_size=5)
    )
    gens = sometimes(draw, st.lists(row, max_size=6), st.one_of(JUNK, st.lists(JUNK)))
    return {
        "ambient_dim": draw(sometimes(draw, st.just(dim), JUNK)),
        "generators": draw(gens),
    }


# primes above 10**9: their products defeat factoring by trial division
BIG_PRIMES = [1000000007, 1000000009, 1000000021, 1000000033, 1000000087]


@st.composite
def eigen_payloads(draw):
    bound = 10**18
    part = st.one_of(
        st.integers(1, bound),
        st.builds(int.__mul__, st.sampled_from(BIG_PRIMES), st.sampled_from(BIG_PRIMES)),
    )
    value = sometimes(
        draw,
        st.one_of(
            part.map(str),
            st.builds(
                "{}{}/{}".format, st.sampled_from(["", "-"]), part, part
            ),
        ),
        st.one_of(st.integers(-bound, bound), st.just("3/0"), JUNK),
    )
    values = sometimes(draw, st.lists(value, min_size=1, max_size=6), JUNK)
    return {"eigenvalues": draw(values)}


@st.composite
def jobs(draw):
    mode, payload = draw(
        st.one_of(
            st.tuples(st.just("finite"), finite_payloads()),
            st.tuples(st.sampled_from(["cone", "monoid"]), generator_payloads()),
            st.tuples(st.just("eigen"), eigen_payloads()),
        )
    )
    if draw(st.integers(0, 9)) == 1:
        payload = dict(payload, extra=draw(JUNK))
    return mode, payload


def main_on_stdin(mode, text):
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main([mode])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(jobs())
def test_main_fuzz_exits_0_or_1_with_a_document(job):
    mode, payload = job
    code, out = main_on_stdin(mode, json.dumps(payload))
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA
    if code == 1:
        assert doc["error"]["kind"] == "input"
    else:
        assert code == 0 and "error" not in doc
