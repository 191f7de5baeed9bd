from math import gcd

import pytest

from cuspidal import catalog
from cuspidal.multipoly import degrevlex_key
from cuspidal.singcert import classify_all


@pytest.fixture(scope="session")
def assert_canonical():
    """The check that a Q(zeta5) polynomial is in canonical form: terms
    strictly decreasing in degrevlex, and every coefficient nonzero
    and in lowest terms, gcd(n0, n1, n2, n3, d) = 1 with d > 0."""

    def check(p):
        for (e1, _), (e2, _) in zip(p.terms, p.terms[1:]):
            assert degrevlex_key(e1) > degrevlex_key(e2)
        for _, c in p.terms:
            assert any(c.n) and c.d > 0 and gcd(c.d, *c.n) == 1

    return check


@pytest.fixture(scope="session")
def new_quartic_cert():
    ent = catalog.get("new_quartic")
    return classify_all(ent.poly, ent.name, action=ent.action)


@pytest.fixture(scope="session")
def new_quintic_cert():
    ent = catalog.get("new_quintic")
    return classify_all(ent.poly, ent.name, action=ent.action)


@pytest.fixture(scope="session")
def vdgz_quartic_cert():
    ent = catalog.get("vdgz_quartic")
    return classify_all(ent.poly, ent.name, action=ent.action)


@pytest.fixture(scope="session")
def vdgz_quintic_cert():
    ent = catalog.get("vdgz_quintic")
    return classify_all(ent.poly, ent.name, action=ent.action)


@pytest.fixture(scope="session")
def node_data():
    from cuspidal.pipeline import quartic_nodes

    nodes, fixed_node, cusps, cert = quartic_nodes()
    return {"nodes": nodes, "fixed": fixed_node, "cusps": cusps, "cert": cert}


@pytest.fixture(scope="session")
def new_divisibility():
    from cuspidal.pipeline import divisibility_pipeline

    return divisibility_pipeline("new_quintic")


@pytest.fixture(scope="session")
def vdgz_divisibility():
    from cuspidal.pipeline import divisibility_pipeline

    return divisibility_pipeline("vdgz_quintic")
