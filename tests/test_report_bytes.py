"""Report bytes pinned by digest.

For each (mode, format) one SHA-256 over the exit code and stdout of
``idempotoric <mode> --format <format>`` on every case of the mode, in
order: the README's command-line examples, 40 seeded random cones in
``monoid`` and ``cone`` mode, 40 seeded random spectra in ``eigen`` mode,
and the selftest; one more for a cone with a line and rays; one for
each (mode, format) of ``cone`` and ``monoid`` over three cones with
many more facets than generators; and one for each of the ``eigen``
``json`` and ``text`` formats over three spectra with more signed
circuits than Hermite kernel rows.  Rejected cases (a monoid with no
generators) count with their error documents.  A
refactor that keeps the reports keeps these digests; a change to any
report byte must declare itself by updating them.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from conftest import random_cone_inputs, random_eigen_lists

from idempotoric.cli import main
from idempotoric.cones import cone_from_generators

README_PAYLOADS = {
    "eigen": [{"eigenvalues": ["2", "3", "6"]}],
    "cone": [{"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]}],
    "finite": [{"table": [[0, 0], [0, 1]]}],
}

FORMATS = {
    "eigen": ("json", "text", "dot"),
    "monoid": ("json", "text", "dot"),
    "cone": ("json", "text", "dot"),
    "finite": ("json", "text"),
    "selftest": ("json", "text"),
}

GOLDEN = {
    ("eigen", "json"): "480cd1eda945898bf4d4974be7402991e1465602984e5b08fd061da8d7b6c290",
    ("eigen", "text"): "035b6207d62c5efc6d3dce4fc62be636d2d3a6b2218e59f958c264264d88576e",
    ("eigen", "dot"): "c735bf144faba69df823416fc04efc7efde09f25276da9df998282a58fb63e67",
    ("monoid", "json"): "4fcf180d6fbbbd76c2ee17a1c1cebf633fb103bf0bf368bb479da37451302304",
    ("monoid", "text"): "412a907356c36d8c2e35c51c5a1f1da999ddd658189cdd1c9e347fc719ed1ffa",
    ("monoid", "dot"): "21eabb8b3597d22bd6b76f90141e5ac5c6ea9d85b3b94011da90c6ceb95b8141",
    ("cone", "json"): "d515b86ea2a3ac39d32102b6602dbfe6bbcbd97af0dd155947f50c3d69b657c2",
    ("cone", "text"): "b0e4946c57017337c2157d9f31bbfeea151a457f8923e203c28147566424d7a0",
    ("cone", "dot"): "7415c13c99b99f234c784d5d3dcbc1aa42ad793d44ce73207acfe20584a2bb9a",
    ("finite", "json"): "f79e42bb2b417b4e5281c5783378faa5beb633100aed8cef984b064834a6ef30",
    ("finite", "text"): "ae4ef36493b533cbbef2c34322ab8fa5223b5151397979605715fb6ed01f06ba",
    ("selftest", "json"): "78b81c544ba9fb99e9c678c1378059b8b1fc4eab652e6034a5158b1d88ad0e34",
    ("selftest", "text"): "a2d412d85c4baa1776d37751e72b7ed33ab9a10846c59c7605093318c3968e0e",
}


def payloads(mode):
    cones = [
        {"ambient_dim": d, "generators": [list(g) for g in gens]}
        for d, gens in random_cone_inputs(seed=1717, count=40)
    ]
    spectra = [
        {"eigenvalues": [str(q) for q in vals]}
        for vals in random_eigen_lists(seed=1717, count=40)
    ]
    random_cases = {"monoid": cones, "cone": cones, "eigen": spectra}
    return README_PAYLOADS.get(mode, []) + random_cases.get(mode, [])


def digest(mode, fmt, jobs, tmp_path):
    """SHA-256 over the exit code and stdout of ``mode`` on every payload
    of ``jobs`` (None for no input)."""
    h = hashlib.sha256()
    for k, payload in enumerate(jobs):
        argv = [mode, "--format", fmt]
        if payload is not None:
            path = tmp_path / f"{mode}-{k}.json"
            path.write_text(json.dumps(payload))
            argv += ["--input", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "mode, fmt", [(m, f) for m, fmts in FORMATS.items() for f in fmts]
)
def test_report_bytes_match_the_golden_digest(mode, fmt, tmp_path):
    jobs = payloads(mode) if mode != "selftest" else [None]
    assert digest(mode, fmt, jobs, tmp_path) == GOLDEN[mode, fmt]


# No cone of the corpus above has both a lineality space and a ray.  This
# one has the line through (1, 1, 1) and two rays, each written as the
# generator reduced by the lineality's Hermite basis, so that it vanishes
# on the basis's pivot, and made primitive.
LINE_AND_RAYS = {
    "ambient_dim": 3,
    "generators": [[2, 1, 3], [0, 1, 1], [1, 1, 1], [-1, -1, -1]],
}
LINE_AND_RAYS_DIGEST = "d847b0896e1c03c4f6f07e74b9b12f9fb042d31a8a58a17ed599b28843e25f41"


def test_report_bytes_of_a_cone_with_a_line_and_rays(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(LINE_AND_RAYS))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cone", "--input", str(path)])
    rep = json.loads(out.getvalue())
    assert rep["lineality_basis"] == [[1, 1, 1]]
    assert rep["extreme_rays"] == [[0, -1, 1], [0, 1, 1]]
    text = f"{code}\n{out.getvalue()}"
    assert hashlib.sha256(text.encode()).hexdigest() == LINE_AND_RAYS_DIGEST


# Only 4 of the 40 random cones above have more facets than generators,
# and all of them are small.  These have many more: the cones over the 5-
# and 6-cross-polytope with their centre (11 and 13 generators, 32 and 64
# facets) and a seeded random pointed cone in dimension 6 with 12
# generators and 52 facets.
def cross_polytope_and_centre(d):
    gens = [[1] + [s * (j == i) for j in range(d)] for i in range(d) for s in (1, -1)]
    return {"ambient_dim": d + 1, "generators": gens + [[1] + [0] * d]}


def random_pointed_cone(seed=612, d=6, r=12):
    rng = random.Random(seed)
    gens = [[rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(d - 1)]
            for _ in range(r)]
    return {"ambient_dim": d, "generators": gens}


MANY_FACETS = [
    cross_polytope_and_centre(5),
    cross_polytope_and_centre(6),
    random_pointed_cone(),
]

MANY_FACETS_GOLDEN = {
    ("cone", "json"): "0ca576c0429f200ef579883f25db27e813475021cd02674652855add7b8761ef",
    ("cone", "text"): "206ca92074ca3681f323377054c79ae394c54d4ef17b2d983ac941e93200cf7a",
    ("cone", "dot"): "520c67d567cfd3595c40d251727a44d963cfe7108a3a4476a7cd0f6e6396326e",
    ("monoid", "json"): "92bf037bd77660d1faefecdde6ad97d70d9dae0e1b2bddb120005c7604bea5f0",
    ("monoid", "text"): "0da950a3f0ad32e5043224ad1c2bc33634a3ac8e83569cfab7c01e0e4d422864",
    ("monoid", "dot"): "23f7113296a93d40e16f234e84906533a3b547a5f6696abdc872bac9aadcbf24",
}


@pytest.mark.parametrize(
    "mode, fmt", [(m, f) for m in ("cone", "monoid") for f in FORMATS[m]]
)
def test_report_bytes_of_many_facet_cones(mode, fmt, tmp_path):
    for payload in MANY_FACETS:
        cone = cone_from_generators(payload["ambient_dim"], payload["generators"])
        assert len(cone.facets) > len(cone.generators)
    assert digest(mode, fmt, MANY_FACETS, tmp_path) == MANY_FACETS_GOLDEN[mode, fmt]


# Every spectrum of the corpus above has its signed circuits among the
# kernel's Hermite rows, so none shows which of the two the relations
# list.  These have kernel rank 3, 4 and 4, and more circuits than that:
# their reports list the Hermite rows alone.
MANY_CIRCUITS = [
    {"eigenvalues": ["2", "3", "6", "12", "18"]},
    {"eigenvalues": ["2", "3", "5", "6", "10", "15", "30"]},
    {"eigenvalues": ["4", "6", "9", "1/2", "3/2", "-2/3"]},
]

MANY_CIRCUITS_GOLDEN = {
    "json": "07b6c53b49a8771d2d2b829f7137dc927654a0c3d9ee3fecaf3f648b540c4843",
    "text": "b0c7ba97068917e1aebe656cc5eaf342b96e89172f69740585b27ec32e77e934",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_bytes_of_spectra_with_many_circuits(fmt, tmp_path):
    assert digest("eigen", fmt, MANY_CIRCUITS, tmp_path) == MANY_CIRCUITS_GOLDEN[fmt]
