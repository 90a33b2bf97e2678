"""The output checks accept the program's reports and reject corrupted ones.

    python3 -m pytest perfbench/tests
"""

import contextlib
import copy
import io
import json

import pytest

from checks import CheckFailure, check_report, rational_rank
from idempotoric import cli
from refkernel import KERNEL_RESULT, reference_kernel
from workloads import WORKLOADS, Job, make_jobs


def report_for(job, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job.payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([job.mode, "--input", str(path)]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    cones = {j.name.split("-", 1)[1]: j for j in make_jobs("cone-faces", 1)}
    jobs = {
        "eigen": make_jobs("eigen-faces", 1)[0],
        "relations": make_jobs("eigen-relations", 1)[0],
        "cone": cones["random-5-12-0"],
        "cube": cones["cube-5"],
        "finite": make_jobs("finite-tables", 1)[0],
        "band": make_jobs("finite-tables", 1)[1],
    }
    return {k: (job, report_for(job, tmp)) for k, job in jobs.items()}


@pytest.mark.parametrize("kind", ["eigen", "relations", "cone", "cube", "finite", "band"])
def test_reports_pass(reports, kind):
    job, rep = reports[kind]
    check_report(job, rep)


def rejects(job, rep, corrupt):
    bad = copy.deepcopy(rep)
    corrupt(bad)
    with pytest.raises(CheckFailure):
        check_report(job, bad)


def drop_eigen_face(rep):
    elements = rep["idempotents"]["elements"]
    lowest = elements[rep["idempotents"]["smallest"]]["face_dim"]
    victim = next(i for i, e in enumerate(elements) if e["face_dim"] == lowest + 1)
    del elements[victim]
    edges = rep["idempotents"]["hasse_edges"]
    rep["idempotents"]["hasse_edges"] = [
        [a - (a > victim), b - (b > victim)] for a, b in edges if victim not in (a, b)
    ]
    for key in ("smallest", "largest"):
        rep["idempotents"][key] -= rep["idempotents"][key] > victim


def test_dropped_eigen_face_rejected(reports):
    rejects(*reports["eigen"], drop_eigen_face)


def test_wrong_exponent_rejected(reports):
    def corrupt(rep):
        rep["exponent_matrix"][0][0] += 1

    rejects(*reports["relations"], corrupt)


def test_broken_relation_rejected(reports):
    def corrupt(rep):
        rep["primitive_relations"][0]["lhs"][0][1] += 1

    rejects(*reports["relations"], corrupt)


def test_relation_missing_from_kernel_rejected(reports):
    def corrupt(rep):
        rep["primitive_relations"] = rep["primitive_relations"][:1]

    rejects(*reports["relations"], corrupt)


def test_dropped_cone_face_rejected(reports):
    def corrupt(rep):
        victim = next(i for i, f in enumerate(rep["faces"]) if f["dim"] == 2)
        del rep["faces"][victim]
        rep["hasse_edges"] = [
            [a - (a > victim), b - (b > victim)]
            for a, b in rep["hasse_edges"] if victim not in (a, b)
        ]
        rep["top"] -= 1

    rejects(*reports["cone"], corrupt)
    rejects(*reports["cube"], corrupt)


def test_wrong_witness_rejected(reports):
    def corrupt(rep):
        face = next(f for f in rep["faces"] if f["dim"] == 1)
        face["witness"] = [-x for x in face["witness"]]

    rejects(*reports["cone"], corrupt)


def test_wrong_face_dim_rejected(reports):
    def corrupt(rep):
        rep["idempotents"]["elements"][-1]["face_dim"] += 1

    rejects(*reports["eigen"], corrupt)


def test_merged_j_class_rejected(reports):
    def corrupt(rep):
        j = rep["greens"]["j_classes"]
        j[0:2] = [sorted(j[0] + j[1])]

    rejects(*reports["finite"], corrupt)
    rejects(*reports["band"], corrupt)


def test_wrong_index_period_rejected(reports):
    def corrupt(rep):
        rep["index_period"][3][2] += 1

    rejects(*reports["finite"], corrupt)


def test_rational_rank():
    assert rational_rank([]) == 0
    assert rational_rank([(0, 0)]) == 0
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([(0, 3, 6), (2, 0, 1), (2, 3, 7)]) == 2
    assert rational_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_follow_the_seed(workload):
    first, again, other = (make_jobs(workload, s) for s in (5, 5, 6))
    assert [j.payload for j in first] == [j.payload for j in again]
    assert [j.payload for j in first] != [j.payload for j in other]
    assert len(first) in (15, 25, 35)


def test_reference_kernel_is_unchanged():
    assert reference_kernel() == KERNEL_RESULT


def test_wrong_closed_form_rejected(reports):
    job, rep = reports["cube"]
    fvector = job.expect["fvector"]
    wrong = Job(job.name, job.mode, job.payload, {"fvector": fvector[:-1] + [2]})
    with pytest.raises(CheckFailure, match="closed form"):
        check_report(wrong, rep)
