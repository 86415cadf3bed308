import hashlib

import pytest

from gofusion.errors import ParseError, UnknownIdError, ValidationError
from gofusion.ontology import parse_obo, to_obo_text

from conftest import BP, FIXTURE_OBO, ROOT

OBSOLETE_TERM = (
    "\n[Term]\nid: GO:0000009\nname: gone\nnamespace: biological_process\n"
    "is_a: GO:0008150\nis_obsolete: true\n"
)


def test_fixture_shape(fixture_ontology):
    o = fixture_ontology
    assert len(o.terms) == 4
    assert o.roots == {BP: ROOT}
    assert len(o.topo_order) == 4


def test_topo_order_parents_first(fixture_ontology):
    o = fixture_ontology
    pos = {t: i for i, t in enumerate(o.topo_order)}
    for term in o.terms.values():
        for parent, _ in term.parents:
            assert pos[parent] < pos[term.id]


def test_ancestors_examples(fixture_ontology):
    o = fixture_ontology
    assert o.ancestors("GO:0000003") == {"GO:0000003", "GO:0000001", ROOT}
    assert o.ancestors(ROOT) == {ROOT}
    assert o.ancestors("GO:0000002") == {"GO:0000002", ROOT}


def test_ancestor_descendant_inverse(fixture_ontology):
    o = fixture_ontology
    children = {t: [] for t in o.topo_order}
    for t in o.topo_order:
        for parent, _ in o.terms[t].parents:
            children[parent].append(t)

    def descendants(u):
        seen, stack = {u}, [u]
        while stack:
            for child in children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    live = o.topo_order
    for u in live:
        for t in live:
            assert (u in o.ancestors(t)) == (t in descendants(u))


def test_ancestors_kept_after_first_call():
    o = parse_obo(FIXTURE_OBO + OBSOLETE_TERM)
    first = o.ancestors("GO:0000003")
    assert isinstance(first, frozenset)
    assert o.ancestors("GO:0000003") is first
    for _ in range(2):  # an unknown or obsolete term is never kept
        with pytest.raises(UnknownIdError):
            o.ancestors("GO:0000009")
        with pytest.raises(UnknownIdError):
            o.ancestors("GO:7654321")


def test_reflexive(fixture_ontology):
    o = fixture_ontology
    for t in o.topo_order:
        assert t in o.ancestors(t)


def test_obsolete_quarantined():
    o = parse_obo(FIXTURE_OBO + OBSOLETE_TERM)
    assert "GO:0000009" in o.terms
    assert "GO:0000009" not in o.topo_order
    assert o.terms["GO:0000009"].parents == frozenset()
    with pytest.raises(UnknownIdError):
        o.ancestors("GO:0000009")


def test_dangling_parent_rejected():
    text = FIXTURE_OBO + "\n[Term]\nid: GO:0000004\nname: x\nnamespace: biological_process\nis_a: GO:9999999\n"
    with pytest.raises(ValidationError, match="GO:9999999"):
        parse_obo(text)


def test_cycle_rejected():
    text = (
        f"[Term]\nid: GO:0008150\nname: r\nnamespace: {BP}\n\n"
        f"[Term]\nid: GO:0000001\nname: a\nnamespace: {BP}\nis_a: GO:0008150\nis_a: GO:0000002\n\n"
        f"[Term]\nid: GO:0000002\nname: b\nnamespace: {BP}\nis_a: GO:0000001\n"
    )
    with pytest.raises(ValidationError, match="cycle"):
        parse_obo(text)


def test_obsolete_parent_rejected():
    # before the check, the obsolete parent was never released by the
    # topological sort and the term was reported as part of a cycle
    text = FIXTURE_OBO + OBSOLETE_TERM + (
        "\n[Term]\nid: GO:0000004\nname: x\nnamespace: biological_process\n"
        "is_a: GO:0000009\nis_a: GO:0000001\n"
    )
    with pytest.raises(ValidationError, match="term GO:0000004 has obsolete parent.*GO:0000009"):
        parse_obo(text)


def test_malformed_id_has_line_number():
    text = "[Term]\nid: GO:12\nname: bad\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_obo(text)


def test_unknown_tags_and_stanzas_skipped():
    text = (
        "format-version: 1.2\n\n[Typedef]\nid: part_of\n\n" + FIXTURE_OBO +
        "\n[Term]\nid: GO:0000005\nname: y\nnamespace: biological_process\n"
        "def: something\nsynonym: other\nxref: X:1\nis_a: GO:0008150\n"
    )
    o = parse_obo(text)
    assert "GO:0000005" in o.terms
    assert "part_of" not in o.terms


def test_part_of_edges_and_is_a_filter():
    text = FIXTURE_OBO + (
        "\n[Term]\nid: GO:0000006\nname: p\nnamespace: biological_process\n"
        "relationship: part_of GO:0000002\nis_a: GO:0008150\n"
    )
    o = parse_obo(text)
    assert o.ancestors("GO:0000006") == {"GO:0000006", "GO:0000002", ROOT}


def test_crlf_and_bytes_input():
    o = parse_obo(FIXTURE_OBO.replace("\n", "\r\n").encode("utf-8"))
    assert len(o.topo_order) == 4
    assert o.source_digest


def test_is_a_comment_stripped():
    text = FIXTURE_OBO.replace("is_a: GO:0000001", "is_a: GO:0000001 ! branch")
    o = parse_obo(text)
    assert ("GO:0000001", "is_a") in o.terms["GO:0000003"].parents


def test_roundtrip_structurally_equal(fixture_ontology):
    o1 = fixture_ontology
    o2 = parse_obo(to_obo_text(o1))
    assert o1.terms == o2.terms
    assert o1.topo_order == o2.topo_order
    assert o1.roots == o2.roots


def test_duplicate_id_rejected():
    text = FIXTURE_OBO + "\n[Term]\nid: GO:0000001\nname: again\nnamespace: biological_process\nis_a: GO:0008150\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_obo(text)


def test_term_unreachable_from_namespace_root_rejected():
    # the only parent path of GO:0000007 leads into molecular_function,
    # so it can never reach the biological_process root
    text = FIXTURE_OBO + (
        "\n[Term]\nid: GO:0003674\nname: mf root\nnamespace: molecular_function\n"
        "\n[Term]\nid: GO:0000007\nname: stranded\nnamespace: biological_process\n"
        "is_a: GO:0003674\n"
    )
    with pytest.raises(ValidationError, match="GO:0000007"):
        parse_obo(text)


def test_multiple_roots_in_namespace_rejected():
    text = FIXTURE_OBO + "\n[Term]\nid: GO:0000008\nname: second root\nnamespace: biological_process\n"
    with pytest.raises(ValidationError, match="multiple parentless"):
        parse_obo(text)


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_byte_order_mark_dropped(mark):
    # the first stanza starts on the first line, right after the mark
    data = mark + (
        "[Term]\nid: GO:0008150\nname: root\nnamespace: biological_process\n\n"
        "[Term]\nid: GO:0000001\nname: child\nnamespace: biological_process\n"
        "is_a: GO:0008150\n"
    ).encode()
    o = parse_obo(data)
    assert sorted(o.terms) == ["GO:0000001", "GO:0008150"]
    assert o.ancestors("GO:0000001") == frozenset({"GO:0000001", "GO:0008150"})
    assert o.source_digest == hashlib.sha256(data).hexdigest()
