"""Pins the canonical bytes of reports and vertex-set files.

The SHA-256 values below were recorded from a build whose verifiers and
vertex sets are known to be correct.  Any change to the rendered bytes, be
it a reordered assertion, a different witness or a changed file header,
shows here before it reaches a stored report.
"""

import hashlib
from itertools import product

import pytest

from polyface import (
    Graph,
    bqp_vertices,
    dcp_verify,
    lemma1_verify,
    lop_vertices,
    theorem1_verify,
)
from polyface.core import pairs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


THEOREM1 = {
    1: "a01a55ef1a5a1faf6701c16ac7ca00a1035f0cdbf3d65cbf1312966dfdcc8f8a",
    2: "9c845372f29b05112873e72bf892e812ad02f9695fac0ef5f200c4cc5b573e19",
    3: "8cebef31791c6040765f55820fafd19290c290c9089d8cffa55ed2d1bb26e92a",
    8: "aae209de9a750e213fb9f699bfa0994f84a66b623851d5e7e699068002f8ec5d",
}

LEMMA1 = {
    (1, ()): "a004e699e04af7195343cfe2492f8769be011ddedea4e6f493543f32eb938d08",
    (2, ()): "2e4de10e19e1c947a8cc66b689cb08d4472b13919b81d4afae37f1b868c2234d",
    (2, ((1, 2),)): "5c121c05667b990f1a7939a1c8d87bedc3ede1a09e504f2514fb7c915fa21b1a",
    (3, ()): "c820f17dc38bff0c399655737633984870cc785870aa0c09b06e80ebe6ce1165",
    (3, ((2, 3),)): "22afdfe1a33a40ee42dd48893b55f0f04581453e4c604b6d93f51505fe2427f9",
    (3, ((1, 3),)): "5ca6d7b4db3c98205394482eeabf83b1ecbcde61b64e739e96b95e8d12d3deaf",
    (3, ((1, 3), (2, 3))): "f2da7f91727ddbac1e4aad539bdab3260dc021975eddbad533ad0e08f7ce78e0",
    (3, ((1, 2),)): "6ba14e8d4b413b22e1403d846ef6eb41e9660c49881d4b166bf22fb86b1cff18",
    (3, ((1, 2), (2, 3))): "d9f0cdc32b3907f4a98637209bf3ff7842a3dbf6dec6cf7a21b056d52126c89f",
    (3, ((1, 2), (1, 3))): "e02e9f7b185651d62247503a8825ad0bb3b9f48bd55d48f61534bfcce5f8eb89",
    (3, ((1, 2), (1, 3), (2, 3))): (
        "9f35918bc3adbde5b6d88b91dcdf7cefba3c8ab8c6ea8a3bd02157fd7c088515"
    ),
}

#: Lemma 1 on the 5-cycle at the default budget.
LEMMA1_C5 = "fd0722151128ac2135b16005ed8d8fd6ac2d3508a5d1b9e45f1c1a69ccb69b14"

#: Lemma 1 on the 6-cycle, whose face holds 2128896 orders.
LEMMA1_C6 = "15911d1e2f2f2fb2ef7a14160981498ca3413b48197c21ecd372a39d88134af2"

DCP = {
    3: "a223648c842d16945fbd52874c595747fcd297d6c6955632b51d90d7776dc928",
    4: "5e3893d7d41b3cfd419367795046e01ead8413b4b4223733634e30eb8619c3a3",
}

VERTEX_SETS = {
    ("lop4", "text"): "b45fc39315e1b4df9d28c54157f92d63e4c18a1b751c6f9374c35fd9fb575ff9",
    ("lop4", "json"): "6f5acde98b149724ccca80a85112375937de7ec107c83ddc3c1175ea600bdd19",
    ("bqp3", "text"): "467502ed03953c9a31fd00015b1eed31e6276bd7bdf1ecd6fe0ff5b1fac49b5d",
    ("bqp3", "json"): "ca4ca330debe0bf120d723840fefc4b577f96cc754799ee8dec7065976913e25",
}


def all_graphs_up_to(n_max: int):
    for n in range(1, n_max + 1):
        ps = pairs(n)
        for mask in product((0, 1), repeat=len(ps)):
            yield n, tuple(p for p, keep in zip(ps, mask) if keep)


def test_lemma1_table_covers_every_small_graph():
    assert set(all_graphs_up_to(3)) == set(LEMMA1)


@pytest.mark.parametrize("n", sorted(THEOREM1))
def test_theorem1_report_bytes(n):
    assert sha256(theorem1_verify(n).to_json()) == THEOREM1[n]


@pytest.mark.parametrize("key", sorted(LEMMA1))
def test_lemma1_report_bytes(key):
    n, edges = key
    report = lemma1_verify(Graph.from_edges(n, edges))
    assert sha256(report.to_json()) == LEMMA1[key]


def test_lemma1_c5_report_bytes():
    c5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert sha256(lemma1_verify(c5).to_json()) == LEMMA1_C5


def test_lemma1_c6_report_bytes():
    c6 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    assert sha256(lemma1_verify(c6, max_perms=518400).to_json()) == LEMMA1_C6


@pytest.mark.parametrize("m", sorted(DCP))
def test_dcp_report_bytes(m):
    assert sha256(dcp_verify(m).to_json()) == DCP[m]


@pytest.mark.parametrize("key", sorted(VERTEX_SETS))
def test_vertex_set_bytes(key):
    name, fmt = key
    vs = lop_vertices(4) if name == "lop4" else bqp_vertices(3)
    text = vs.to_text() if fmt == "text" else vs.to_json()
    assert sha256(text) == VERTEX_SETS[key]
