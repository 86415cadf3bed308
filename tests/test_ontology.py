import re
from collections import deque
from itertools import chain
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from gofusion import ontology
from gofusion.errors import GofusionError, ParseError, UnknownIdError, ValidationError
from gofusion.ontology import IS_A, PART_OF, Ontology, Term, is_term_id, parse_obo, to_obo_text
from gofusion.synth import make_dataset, write_dataset

from conftest import BP, FIXTURE_OBO, ROOT, perfbench_godag

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


def test_ancestors_raise_for_dead_ids():
    o = parse_obo(FIXTURE_OBO + OBSOLETE_TERM)
    assert isinstance(o.ancestors("GO:0000003"), frozenset)
    for _ in range(2):
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


def test_unreachable_terms_in_two_branches_named_in_order():
    # two stranded branches under the molecular_function root, their ids
    # interleaved, so the message lists the first five of both, sorted
    mf = "\n[Term]\nid: GO:0003674\nname: mf root\nnamespace: molecular_function\n"
    for branch in ((20, 22, 24), (21, 23, 25)):
        top = "GO:0003674"
        for tid in branch:
            mf += f"\n[Term]\nid: GO:{tid:07d}\nname: s\nnamespace: {BP}\nis_a: {top}\n"
            top = f"GO:{tid:07d}"
    stranded = "['GO:0000020', 'GO:0000021', 'GO:0000022', 'GO:0000023', 'GO:0000024']"
    with pytest.raises(ValidationError) as err:
        parse_obo(FIXTURE_OBO + mf)
    assert str(err.value) == f"terms cannot reach the {BP} root {ROOT}: {stranded}"


def test_closure_raises_for_dead_ids_and_keeps_nothing():
    o = parse_obo(FIXTURE_OBO + OBSOLETE_TERM)
    for _ in range(2):
        with pytest.raises(UnknownIdError, match="^term GO:0000009 is obsolete$"):
            o.closure("GO:0000009")
        with pytest.raises(UnknownIdError, match="^unknown term 'GO:7654321'$"):
            o.closure("GO:7654321")
    assert o._bits == {}
    assert o.closure("GO:0000003") == sum(1 << o.index[t] for t in o.ancestors("GO:0000003"))
    assert o._bits.keys() == o.ancestors("GO:0000003")


def test_lines_in_blocks_equal_splitlines():
    rng = np.random.default_rng(15)
    alphabet = list("ab \t\r\n\x0b\x0c\x1c\x85\u2028")
    for _ in range(300):
        text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
        for block in (1, 2, 3, 5, 64):
            with mock.patch.object(ontology, "_LINE_BLOCK", block):
                lines = [ln for b in ontology._blocks(text) for ln in b.splitlines()]
                assert lines == text.splitlines()


def test_parse_memory_per_live_term(tmp_path, monkeypatch):
    """A 21k-term GO-shaped release parses in under 1.5 KB per live term:
    no closure bitset, child list or list of all lines is held."""
    godag = perfbench_godag()
    monkeypatch.setattr(godag, "LEVEL_SIZES", tuple(5 * s for s in godag.LEVEL_SIZES))
    data = godag.write_godag(1, tmp_path)["obo"].read_bytes()
    tracemalloc.start()
    try:
        o = parse_obo(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(o.topo_order) > 20_000
    assert peak < 1500 * len(o.topo_order)


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


def reference_parse_obo(data):
    """``parse_obo`` as written before its tag table: every value stripped,
    an if-chain over the tag names and a stanza flushed by a closure."""
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data

    terms = {}
    in_term = False
    cur_id = None
    cur_name = ""
    cur_ns = ""
    cur_parents = set()
    cur_obsolete = False

    def flush(at_line):
        nonlocal cur_id
        if cur_id is None:
            if in_term and (cur_name or cur_parents):
                raise ParseError("[Term] stanza without an id tag", at_line)
            return
        if cur_id in terms:
            raise ParseError(f"duplicate term id {cur_id}", at_line)
        parents = frozenset() if cur_obsolete else frozenset(cur_parents)
        terms[cur_id] = Term(
            id=cur_id, name=cur_name, namespace=cur_ns, parents=parents, obsolete=cur_obsolete
        )
        cur_id = None

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("["):
            flush(lineno)
            in_term = line == "[Term]"
            cur_id, cur_name, cur_ns = None, "", ""
            cur_parents, cur_obsolete = set(), False
            continue
        if not in_term:
            continue
        tag, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'tag: value', got {line!r}", lineno)
        tag = tag.strip()
        value = value.strip()
        if tag == "id":
            if not is_term_id(value):
                raise ParseError(f"malformed term id {value!r}", lineno)
            cur_id = value
        elif tag == "name":
            cur_name = value
        elif tag == "namespace":
            cur_ns = value
        elif tag == "is_a":
            target = value.split("!", 1)[0].strip()
            if not is_term_id(target):
                raise ParseError(f"malformed is_a target {value!r}", lineno)
            cur_parents.add((target, IS_A))
        elif tag == "relationship":
            parts = value.split("!", 1)[0].split()
            if len(parts) == 2 and parts[0] == PART_OF:
                if not is_term_id(parts[1]):
                    raise ParseError(f"malformed part_of target {value!r}", lineno)
                cur_parents.add((parts[1], PART_OF))
        elif tag == "is_obsolete":
            cur_obsolete = value == "true"
    flush(lineno + 1)

    dangling = sorted(
        {parent for term in terms.values() for parent, _ in term.parents if parent not in terms}
    )
    if dangling:
        raise ValidationError(f"parent references to unknown terms: {dangling}")
    return Ontology(terms)


def parse_outcome(parse, data):
    """What ``parse`` makes of ``data``: the ontology's parts, or the error."""
    try:
        o = parse(data)
    except GofusionError as e:
        return type(e), str(e), getattr(e, "line", None)
    return o.terms, o.topo_order, o.index, o.roots


def damaged(text: str, rng) -> str:
    """``text`` with one random line changed, dropped, repeated or moved."""
    lines = text.split("\n")
    i = int(rng.integers(len(lines)))
    line = lines[i]
    how = int(rng.integers(10))
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, line)
    elif how == 2:
        lines[i] = line.replace(":", " ", 1)
    elif how == 3:
        lines[i] = re.sub(r"\d", "x", line, count=1)
    elif how == 4:
        lines[i] = line.replace(":", " : ", 1)
    elif how == 5:
        lines[i] = "\t" + line + " \x0c"
    elif how == 6:
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], line
    elif how == 7:
        lines[i] = line.replace("[Term]", "[Typedef]").replace("false", "true")
    elif how == 8:
        lines[i] = line + " ! " + line
    else:  # a space inside a tag, a value or a stanza header
        lines[i] = line[: len(line) // 2] + " " + line[len(line) // 2 :]
    return "\n".join(lines)


def obo_sources():
    with tempfile.TemporaryDirectory() as tmp:
        yield "godag", perfbench_godag().write_godag(5, Path(tmp))["obo"].read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        yield "synth", write_dataset(make_dataset(seed=3), Path(tmp))["obo"].read_bytes()
    yield "fixture", (FIXTURE_OBO + OBSOLETE_TERM).encode()


OBO_SOURCES = list(obo_sources())


@pytest.mark.parametrize("name, data", OBO_SOURCES, ids=lambda v: v if isinstance(v, str) else "")
def test_parser_equals_reference_on_whole_and_damaged_files(name, data):
    assert parse_outcome(parse_obo, data) == parse_outcome(reference_parse_obo, data)
    assert parse_outcome(parse_obo, data) == parse_outcome(line_loop_parse_obo, data)
    text = data.decode()
    rng = np.random.default_rng(len(data))
    kinds = set()
    for _ in range(60 if name == "fixture" else 15):
        bad = damaged(text, rng)
        for form in (bad, bad.replace("\n", "\r\n").encode()):
            got = parse_outcome(parse_obo, form)
            assert got == parse_outcome(reference_parse_obo, form)
            assert got == parse_outcome(line_loop_parse_obo, form)
            kinds.add(re.sub(r"\d+", "", got[1])[:30] if isinstance(got[0], type) else "ok")
    assert len(kinds) >= 3  # the damage reaches several kinds of error


@pytest.mark.parametrize("name, data", OBO_SOURCES, ids=lambda v: v if isinstance(v, str) else "")
def test_parser_equals_reference_in_small_line_blocks(name, data):
    # blocks of a few characters: block edges fall next to "\r\n" pairs and inside stanzas
    with mock.patch.object(ontology, "_LINE_BLOCK", 3):
        test_parser_equals_reference_on_whole_and_damaged_files(name, data)


def line_loop_parse_obo(data):
    """``parse_obo`` as written before it split lines as they stand: each
    line numbered by ``enumerate`` and stripped, then split at its first
    ``:``, and the terms ordered by ``line_loop_order``.  Returns the
    ontology's parts: terms, topo_order, index and roots."""
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data

    tags = {"id": 0, "name": 1, "namespace": 2, "is_a": 3, "relationship": 4, "is_obsolete": 5}
    terms = {}
    in_term = False
    cur_id = None
    cur_name = cur_ns = ""
    cur_parents = set()
    cur_obsolete = False
    for lineno, raw in enumerate(chain(text.splitlines(), ["["]), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "[":
            if cur_id is not None:
                if cur_id in terms:
                    raise ParseError(f"duplicate term id {cur_id}", lineno)
                parents = frozenset() if cur_obsolete else frozenset(cur_parents)
                terms[cur_id] = Term(cur_id, cur_name, cur_ns, parents, cur_obsolete)
            elif in_term and (cur_name or cur_parents):
                raise ParseError("[Term] stanza without an id tag", lineno)
            in_term = line == "[Term]"
            cur_id, cur_name, cur_ns = None, "", ""
            cur_parents, cur_obsolete = set(), False
            continue
        if not in_term:
            continue
        tag, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'tag: value', got {line!r}", lineno)
        read = tags.get(tag.rstrip())
        if read is None:
            continue
        if read == 0:
            value = value.strip()
            if not is_term_id(value):
                raise ParseError(f"malformed term id {value!r}", lineno)
            cur_id = value
        elif read == 3:
            target = value.split("!", 1)[0].strip()
            if not is_term_id(target):
                raise ParseError(f"malformed is_a target {value.strip()!r}", lineno)
            cur_parents.add((target, IS_A))
        elif read == 1:
            cur_name = value.strip()
        elif read == 2:
            cur_ns = value.strip()
        elif read == 4:
            parts = value.split("!", 1)[0].split()
            if len(parts) == 2 and parts[0] == PART_OF:
                if not is_term_id(parts[1]):
                    raise ParseError(f"malformed part_of target {value.strip()!r}", lineno)
                cur_parents.add((parts[1], PART_OF))
        else:
            cur_obsolete = value.strip() == "true"

    dangling = sorted(
        {parent for term in terms.values() for parent, _ in term.parents if parent not in terms}
    )
    if dangling:
        raise ValidationError(f"parent references to unknown terms: {dangling}")
    order, index, roots = line_loop_order(terms)
    return SimpleNamespace(terms=terms, topo_order=order, index=index, roots=roots)


def line_loop_order(terms):
    """``Ontology.__init__`` as written before it built child lists for the
    parents only: the obsolete-parent check, the roots, then a breadth-first
    walk from the sorted roots over sorted child lists, with the stranded
    check made once per root.  Returns topo_order, index and roots."""
    children = {t: [] for t in terms}
    for term in terms.values():
        if term.obsolete:
            continue
        for parent, _kind in term.parents:
            if terms[parent].obsolete:
                dead = sorted(p for p, _ in term.parents if terms[p].obsolete)
                raise ValidationError(f"term {term.id} has obsolete parent(s): {', '.join(dead)}")
            children[parent].append(term.id)
    for kids in children.values():
        kids.sort()
    live = [t for t in terms.values() if not t.obsolete]
    parentless = {}
    for term in live:
        if not term.parents:
            parentless.setdefault(term.namespace, []).append(term.id)
    roots = {}
    for ns, ids in parentless.items():
        if len(ids) > 1:
            raise ValidationError(f"namespace {ns} has multiple parentless terms: {sorted(ids)}")
        roots[ns] = ids[0]
    indeg = {t.id: len(t.parents) for t in live}
    under = dict.fromkeys(indeg, 0)
    for i, root in enumerate(roots.values()):
        under[root] = 1 << i
    order = []
    ready = deque(sorted(t for t, d in indeg.items() if d == 0))
    while ready:
        tid = ready.popleft()
        order.append(tid)
        for child in children[tid]:
            under[child] |= under[tid]
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
    if len(order) != len(indeg):
        member = min(t for t, d in indeg.items() if d > 0)
        raise ValidationError(f"parent relation contains a cycle through {member}")
    for i, (ns, root) in enumerate(roots.items()):
        stranded = [t for t in order if not under[t] >> i & 1 and terms[t].namespace == ns]
        if stranded:
            raise ValidationError(
                f"terms cannot reach the {ns} root {root}: {sorted(stranded)[:5]}"
            )
    return order, {t: i for i, t in enumerate(order)}, roots


def test_ids_and_namespaces_interned():
    o = parse_obo(FIXTURE_OBO.encode())
    leaf = o.terms["GO:0000003"]
    assert next(p for p, _ in leaf.parents) is o.terms["GO:0000001"].id
    assert leaf.namespace is o.terms[ROOT].namespace


def test_ontology_rejects_dangling_parent_without_parse():
    terms = {
        ROOT: Term(ROOT, "root", BP, frozenset()),
        "GO:0000001": Term("GO:0000001", "a", BP, frozenset({("GO:0000404", IS_A)})),
    }
    with pytest.raises(ValidationError, match=r"unknown terms: \['GO:0000404'\]"):
        Ontology(terms)
