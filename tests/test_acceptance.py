"""Acceptance suite: exact, desk-scale certification of every headline claim.

Each test prints one PASS/FAIL line.  All comparisons are exact (integer or
rational arithmetic); there are no tolerances anywhere.
"""

import time
from itertools import combinations

from polyface import (
    Graph,
    adjacent,
    bqp_vertices,
    clique_check,
    dcp_embedding,
    dcp_verify,
    extract_face,
    is_face_subset,
    lemma1_verify,
    lop_vertices,
    theorem1_verify,
    theorem1_system,
)
from polyface.core import pairs
from polyface.generators import lop_vertices_oracle


def announce(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE criterion {number} ({label}): {status}")
    assert not failures, failures


def test_criterion_1_quadric_face_exactness():
    """Face size 2^n, bijective projection, lift round-trip, for n = 1..4."""
    failures = []
    started = time.time()
    for n in range(1, 5):
        report = theorem1_verify(n)
        for name in (
            "face_cardinality",
            "projection_bijective_onto_bqp",
            "lift_lands_on_face",
            "lift_roundtrip",
            "face_equals_lift_image",
        ):
            if not report.assertion(name).passed:
                failures.append(f"n={n}: {name}")
        if report.details["face_size"] != 2 ** n:
            failures.append(f"n={n}: face size {report.details['face_size']}")
    elapsed = time.time() - started
    print(f"criterion 1 runtime: {elapsed:.1f}s (budget 30s)")
    announce(1, "quadric face exactness n=1..4", failures)


def test_criterion_2_eight_row_table():
    """The n = 3 face matches the published eight sequences with their
    zero/one index sets and block sizes."""
    expected = {
        "654321": (3, (3, 2, 1), ()),
        "165432": (2, (3, 2), (1,)),
        "365214": (2, (3, 1), (2,)),
        "543216": (2, (2, 1), (3,)),
        "316542": (1, (3,), (2, 1)),
        "514362": (1, (2,), (3, 1)),
        "532164": (1, (1,), (3, 2)),
        "531642": (0, (), (3, 2, 1)),
    }
    failures = []
    report = theorem1_verify(3)
    if set(report.details["face_sequences"]) != set(expected):
        failures.append(
            f"face sequences {sorted(report.details['face_sequences'])}"
        )
    for row in report.details["lifts"]:
        seq = row["sequence"]
        if seq not in expected:
            failures.append(f"unexpected lift sequence {seq}")
            continue
        k, zeros, ones = expected[seq]
        if (row["k"], tuple(row["zeros_desc"]), tuple(row["ones_desc"])) != (
            k, zeros, ones,
        ):
            failures.append(f"lift data for {seq}: {row}")
    announce(2, "published n=3 table reproduced exactly", failures)


def test_criterion_3_dependent_coordinate_identities():
    """The product identity and both cross-coordinate identities hold on
    every face vertex for n <= 4."""
    failures = []
    for n in range(1, 5):
        report = theorem1_verify(n)
        for name in (
            "identity_cross_odd_even",
            "identity_cross_odd_odd",
            "identity_product",
        ):
            assertion = report.assertion(name)
            if not assertion.passed:
                failures.append(f"n={n}: {name} ({assertion.witness})")
    announce(3, "dependent-coordinate identities n<=4", failures)


def test_criterion_4_order_polytope_definitional_equivalence():
    """Insertion enumeration equals the three-cycle 0/1 filter, m = 3..5."""
    failures = []
    started = time.time()
    for m in (3, 4, 5):
        if lop_vertices(m) != lop_vertices_oracle(m):
            failures.append(f"m={m}: routes disagree")
    elapsed = time.time() - started
    print(f"criterion 4 runtime: {elapsed:.1f}s (budget 10s)")
    announce(4, "enumeration equals brute-force filter m=3,4,5", failures)


def test_criterion_5_stable_set_projection_all_graphs():
    """For all 64 labeled graphs on 4 vertices the face projects exactly
    onto the stable-set vectors and every lift lands on the face."""
    failures = []
    started = time.time()
    all_edges = pairs(4)
    checked = 0
    for r in range(len(all_edges) + 1):
        for chosen in combinations(all_edges, r):
            g = Graph.from_edges(4, chosen)
            report = lemma1_verify(g)
            checked += 1
            for name in (
                "projection_image_equals_stable_set",
                "lift_lands_on_face",
                "lift_projects_back",
            ):
                if not report.assertion(name).passed:
                    failures.append(f"edges={chosen}: {name}")
    elapsed = time.time() - started
    print(f"criterion 5 runtime: {elapsed:.1f}s for {checked} graphs (budget 300s)")
    if checked != 64:
        failures.append(f"expected 64 graphs, checked {checked}")
    announce(5, "stable-set projection for all graphs on 4 vertices", failures)


def test_criterion_6_double_covering_embedding():
    """Row counts 4 and 10 with four ones each; the z=0, h=1 face bijects
    onto the order vertices (6 and 24); full counts 12 and 48."""
    failures = []
    expected = {3: (4, 6, 12), 4: (10, 24, 48)}
    for m, (rows, face_size, total) in expected.items():
        emb = dcp_embedding(m)
        if emb.matrix.k != rows:
            failures.append(f"m={m}: {emb.matrix.k} rows")
        if any(len(set(row)) != 4 for row in emb.matrix.rows):
            failures.append(f"m={m}: row without four ones")
        report = dcp_verify(m)
        if not report.all_passed:
            failed = [a.name for a in report.assertions if not a.passed]
            failures.append(f"m={m}: {failed}")
        if report.details["face_size"] != face_size:
            failures.append(f"m={m}: face size {report.details['face_size']}")
        if report.details["dcp_size"] != total:
            failures.append(f"m={m}: total {report.details['dcp_size']}")
        if report.details["lop_size"] != face_size:
            failures.append(f"m={m}: lop size {report.details['lop_size']}")
    announce(6, "double-covering embedding m=3,4", failures)


def test_criterion_7_corollary_checks(lop6):
    """Complete quadric graphs, 3-neighborliness, and the clique lower bound
    2^(m/2) for the order polytopes on 4 and 6 elements."""
    failures = []
    started = time.time()

    for n in (2, 3):
        vs = bqp_vertices(n)
        for u, v in combinations(vs.vertices, 2):
            if not adjacent(u, v, vs):
                failures.append(f"bqp({n}): {u} and {v} not adjacent")

    bqp3 = bqp_vertices(3)
    triples_checked = 0
    for triple in combinations(bqp3.vertices, 3):
        ok, _ = is_face_subset(list(triple), bqp3)
        triples_checked += 1
        if not ok:
            failures.append(f"bqp(3): triple {triple} is not a face")
    if triples_checked != 56:
        failures.append(f"expected 56 triples, checked {triples_checked}")

    for n, lop in ((2, lop_vertices(4)), (3, lop6)):
        face = extract_face(lop, theorem1_system(n)).face
        if len(face) != 2 ** n:
            failures.append(f"lop({2 * n}): face size {len(face)}")
        if not clique_check(list(face), lop):
            failures.append(f"lop({2 * n}): face vertices are not a clique")

    elapsed = time.time() - started
    print(f"criterion 7 runtime: {elapsed:.1f}s (budget 300s)")
    announce(7, "complete graph, 3-neighborliness, clique bound", failures)


def test_criterion_8_cross_oracle_consistency():
    """Midpoint adjacency agrees with the two-vertex face certificate on
    every vertex pair of the small order and quadric polytopes."""
    failures = []
    hosts = [(f"lop({m})", lop_vertices(m)) for m in (3, 4)]
    hosts += [(f"bqp({n})", bqp_vertices(n)) for n in (2, 3)]
    for label, vs in hosts:
        for u, v in combinations(vs.vertices, 2):
            midpoint_route = adjacent(u, v, vs)
            face_route, _ = is_face_subset([u, v], vs)
            if midpoint_route != face_route:
                failures.append(f"{label}: {u}, {v} disagree")
    announce(8, "adjacency oracles agree pairwise", failures)


def test_criterion_9_past_full_enumeration():
    """The face search certifies Theorem 1 for n = 5..8, where lop(2n) has
    up to 16! orders, and Lemma 1 on the 5-cycle (a face of 39680 orders in
    lop(10)), under the default budget."""
    failures = []
    started = time.time()
    for n in range(5, 9):
        report = theorem1_verify(n)
        if not report.all_passed:
            failures.append(f"n={n}: {[a.name for a in report.assertions if not a.passed]}")
        if report.details["face_size"] != 2 ** n:
            failures.append(f"n={n}: face size {report.details['face_size']}")
    cycle = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    report = lemma1_verify(cycle)
    if not report.all_passed or report.details["face_size"] != 39680:
        failures.append(f"C5: {report.render_text()}")
    elapsed = time.time() - started
    print(f"criterion 9 runtime: {elapsed:.1f}s (budget 30s)")
    announce(9, "theorem1 n=5..8 and lemma1 on C5 past enumeration", failures)
