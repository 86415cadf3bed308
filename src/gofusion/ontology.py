"""GO ontology: OBO flat-file parsing and an immutable DAG with closure queries.

Only the OBO 1.2 tag subset needed downstream is interpreted: ``id``,
``name``, ``namespace``, ``is_a``, ``relationship: part_of`` and
``is_obsolete`` inside ``[Term]`` stanzas.  Everything else is skipped.
Ancestry follows both is_a and part_of edges, which is how mainstream GO
tooling propagates annotations.

Live term ``t`` sits at position ``index[t]`` of ``topo_order``, and
``closure(t)`` is a Python int whose bit ``j`` is set when ``topo_order[j]``
is an ancestor of ``t`` (itself included); ``terms_of`` turns such a mask
back into terms.  A bitset is computed the first time it is asked for, after
its parents' bitsets, with one OR per parent edge, and kept.  All of them
would hold about n²/16 bytes for n live terms; a run holds only those of the
terms it annotates and their ancestors.  ``ancestors()`` finds the same sets
by a DFS, keeps nothing, and is the scalar oracle the bitsets are tested
against.

Memory grows with the release only where it must: child lists exist only
while the ontology is checked, the OBO text is split into lines a block at
a time, and each term id and namespace is one string object however often
it occurs.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import chain
from operator import length_hint
from sys import intern
from typing import NamedTuple

import numpy as np

from .errors import ParseError, UnknownIdError, ValidationError

#: A GO accession: "GO:" followed by exactly seven decimal digits.
TermId = str

TERM_ID_RE = re.compile(r"GO:\d{7}$")

IS_A = "is_a"
PART_OF = "part_of"

NAMESPACES = ("biological_process", "molecular_function", "cellular_component")

# the tags ``parse_obo`` reads; a [Term] stanza's other tags are skipped
_ID, _NAME, _NAMESPACE, _IS_A, _RELATIONSHIP, _IS_OBSOLETE = range(6)
_READ_TAGS = {
    "id": _ID,
    "name": _NAME,
    "namespace": _NAMESPACE,
    "is_a": _IS_A,
    "relationship": _RELATIONSHIP,
    "is_obsolete": _IS_OBSOLETE,
}

# characters of OBO text split into lines at once; a block is cut just after
# a "\n", so no line and no "\r\n" pair spans two blocks
_LINE_BLOCK = 1 << 16


def is_term_id(s: str) -> bool:
    return bool(TERM_ID_RE.match(s))


class Term(NamedTuple):
    """One ontology term; ``parents`` holds (parent id, edge kind) pairs."""

    id: TermId
    name: str
    namespace: str
    parents: frozenset[tuple[TermId, str]]
    obsolete: bool = False


class Ontology:
    """Immutable DAG of GO terms with parent indices.

    Obsolete terms are kept in ``terms`` (so inputs referencing them can be
    diagnosed) but are excluded from ``topo_order`` and from all closure
    queries.  ``topo_order`` lists every non-obsolete term with parents
    before children; ``index`` and ``closure`` are described in the module
    docstring.  Child lists are built, for the parents only, to check the
    parent references and to order the terms, and are not kept.
    """

    def __init__(self, terms: dict[TermId, Term]):
        self.terms = terms
        children: dict[TermId, list[TermId]] = {}
        indeg: dict[TermId, int] = {}
        parentless: dict[str, list[TermId]] = {}
        dead: list[TermId] = []
        for tid, _name, ns, parents, obsolete in terms.values():
            if obsolete:
                dead.append(tid)
                continue
            indeg[tid] = len(parents)
            if not parents:
                parentless.setdefault(ns, []).append(tid)
            for parent, _kind in parents:
                kids = children.get(parent)
                if kids is None:
                    children[parent] = [tid]
                else:
                    kids.append(tid)
        dangling = sorted(p for p in children if p not in terms)
        if dangling:
            raise ValidationError(f"parent references to unknown terms: {dangling}")
        if not children.keys().isdisjoint(dead):
            dead_set = set(dead)
            for tid, _name, _ns, parents, obsolete in terms.values():
                bad = [] if obsolete else sorted(p for p, _ in parents if p in dead_set)
                if bad:
                    raise ValidationError(f"term {tid} has obsolete parent(s): {', '.join(bad)}")
        for ns, ids in parentless.items():
            if len(ids) > 1:
                raise ValidationError(
                    f"namespace {ns} has multiple parentless terms: {sorted(ids)}"
                )
        self.roots = {ns: ids[0] for ns, ids in parentless.items()}
        self.topo_order = self._toposort(children, indeg)
        self.index = dict(zip(self.topo_order, range(len(self.topo_order))))
        self._bits: dict[TermId, int] = {}

    # -- construction checks -------------------------------------------------

    def _toposort(
        self, children: dict[TermId, list[TermId]], indeg: dict[TermId, int]
    ) -> list[TermId]:
        """The live terms, parents first, by a breadth-first walk down the
        child edges, each term's children in id order, from the namespace
        roots in id order; ``indeg`` is each live term's parent count, and
        is used up.  The walk also checks that every term reaches its own
        namespace's root."""
        under = dict.fromkeys(indeg, 0)  # bit i: reached from the i-th root
        for i, root in enumerate(self.roots.values()):
            under[root] = 1 << i
        order = sorted(self.roots.values())
        for tid in order:  # ``order`` is also the walk's queue
            kids = children.get(tid)
            if kids is None:
                continue
            kids.sort()
            bits = under[tid]
            for child in kids:
                under[child] |= bits
                indeg[child] -= 1
                if not indeg[child]:
                    order.append(child)
        if len(order) != len(indeg):
            member = min(t for t, d in indeg.items() if d > 0)
            raise ValidationError(f"parent relation contains a cycle through {member}")
        if len(self.roots) > 1:  # with one root, every term reaches it
            need = {ns: 1 << i for i, ns in enumerate(self.roots)}
            terms = self.terms
            # a namespace without a root asks for no particular bit (-1)
            stranded = [t for t in order if not under[t] & need.get(terms[t].namespace, -1)]
            for ns, root in self.roots.items():
                lost = sorted(t for t in stranded if terms[t].namespace == ns)
                if lost:
                    raise ValidationError(f"terms cannot reach the {ns} root {root}: {lost[:5]}")
        return order

    # -- queries -------------------------------------------------------------

    def _live(self, t: TermId) -> Term:
        term = self.terms.get(t)
        if term is None:
            raise UnknownIdError(f"unknown term {t!r}")
        if term.obsolete:
            raise UnknownIdError(f"term {t} is obsolete")
        return term

    def ancestors(self, t: TermId) -> frozenset[TermId]:
        """Reflexive transitive parent closure of ``t``, found by a DFS."""
        self._live(t)
        seen = {t}
        stack = [t]
        while stack:
            cur = stack.pop()
            for parent, _kind in self.terms[cur].parents:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return frozenset(seen)

    def closure(self, t: TermId) -> int:
        """The ancestor bitset of ``t`` (see the module docstring).

        The missing bitsets of ``t`` and of its ancestors are computed
        parents first and kept.  Each stacked term is a parent of the one
        below it, so in a DAG no term is stacked twice.
        """
        done = self._bits
        hit = done.get(t)
        if hit is not None:
            return hit
        self._live(t)  # a live term's parents are live
        terms, index = self.terms, self.index
        stack = [t]
        while stack:
            cur = stack[-1]
            bits = 1 << index[cur]
            for p, _kind in terms[cur].parents:
                b = done.get(p)
                if b is None:  # the parent first, then this term again
                    stack.append(p)
                    break
                bits |= b
            else:
                done[cur] = bits
                stack.pop()
        return done[t]

    def terms_of(self, mask: int) -> list[TermId]:
        """The terms whose bits are set in ``mask``, in ``topo_order``."""
        order = self.topo_order
        return [order[j] for j in np.flatnonzero(self.bit_rows([mask])[0]).tolist()]

    def bit_rows(self, masks: list[int]) -> np.ndarray:
        """0/1 uint8 rows, one per mask over ``topo_order`` positions (such
        as ``closure`` values or ORs of them): column ``j`` is bit ``j``."""
        width = len(self.topo_order)
        nbytes = (width + 7) // 8
        packed = np.frombuffer(
            b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8
        )
        return np.unpackbits(
            packed.reshape(len(masks), nbytes), axis=1, count=width, bitorder="little"
        )

    def namespace_root(self, namespace: str) -> TermId:
        try:
            return self.roots[namespace]
        except KeyError:
            raise UnknownIdError(f"no root for namespace {namespace!r}") from None


def _blocks(text: str) -> Iterator[str]:
    """``text`` in blocks of ``_LINE_BLOCK`` characters or a little more,
    each cut just after a line feed, so that no line spans two blocks."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _LINE_BLOCK - 1) + 1 or end
        yield text[start:cut]
        start = cut


def parse_obo(data: bytes | str) -> Ontology:
    """Parse OBO 1.2 flat text into an :class:`Ontology`.

    Accepts UTF-8 bytes or text with LF or CRLF endings; a byte-order mark
    before the bytes is dropped.
    Unknown stanzas and tags are skipped.
    Obsolete terms are retained with their parent edges dropped.
    Equal term ids and namespaces share one string object.

    A line is first split at its first ``:`` as it stands; only a line whose
    tag is not one ``parse_obo`` reads, as written, is stripped and split
    again, which gives the same tag and value.  No line is counted as it is
    read: an error's line number comes from the lines before the block and
    what the block's iterator has left.
    """
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data

    terms: dict[TermId, Term] = {}
    tags: dict[str, int] = {}  # the tags read in the current stanza
    cur_id: TermId | None = None
    cur_name = cur_ns = ""
    cur_parents: set[tuple[TermId, str]] = set()
    cur_obsolete = False
    is_id = TERM_ID_RE.match
    new_term = tuple.__new__  # ``Term(...)`` without the NamedTuple's Python-level __new__
    done = 0  # lines in the blocks before this one

    def line_no() -> int:  # the line the block's iterator gave last
        return done + len(lines) - length_hint(rest)

    # one more stanza header ends the last stanza
    for block in chain(_blocks(text), ["["]):
        lines = block.splitlines()
        rest = iter(lines)
        for raw in rest:
            tag, sep, value = raw.partition(":")
            read = tags.get(tag)
            if read is None or not sep:
                line = raw.strip()
                if not line:
                    continue
                if line[0] == "[":
                    if cur_id is not None:
                        if cur_id in terms:
                            raise ParseError(f"duplicate term id {cur_id}", line_no())
                        parents = frozenset() if cur_obsolete else frozenset(cur_parents)
                        terms[cur_id] = new_term(
                            Term, (cur_id, cur_name, cur_ns, parents, cur_obsolete)
                        )
                    elif tags and (cur_name or cur_parents):
                        raise ParseError("[Term] stanza without an id tag", line_no())
                    tags = _READ_TAGS if line == "[Term]" else {}
                    cur_id, cur_name, cur_ns = None, "", ""
                    cur_parents, cur_obsolete = set(), False
                    continue
                if not tags:
                    continue
                tag, sep, value = line.partition(":")
                if not sep:
                    raise ParseError(f"expected 'tag: value', got {line!r}", line_no())
                read = tags.get(tag.rstrip())  # the line has no leading space
                if read is None:
                    continue
            if read == _ID:
                value = value.strip()
                if not is_id(value):
                    raise ParseError(f"malformed term id {value!r}", line_no())
                cur_id = intern(value)
            elif read == _IS_A:
                target = value.split("!", 1)[0].strip()
                if not is_id(target):
                    raise ParseError(f"malformed is_a target {value.strip()!r}", line_no())
                cur_parents.add((intern(target), IS_A))
            elif read == _NAME:
                cur_name = value.strip()
            elif read == _NAMESPACE:
                cur_ns = intern(value.strip())
            elif read == _RELATIONSHIP:
                parts = value.split("!", 1)[0].split()
                if len(parts) == 2 and parts[0] == PART_OF:
                    if not is_id(parts[1]):
                        raise ParseError(f"malformed part_of target {value.strip()!r}", line_no())
                    cur_parents.add((intern(parts[1]), PART_OF))
            else:
                cur_obsolete = value.strip() == "true"
        done += len(lines)

    return Ontology(terms)


def to_obo_text(o: Ontology) -> str:
    """Serialize the supported tag subset; parse(to_obo_text(o)) == structure of o."""
    chunks = []
    for tid in sorted(o.terms):
        term = o.terms[tid]
        lines = ["[Term]", f"id: {term.id}"]
        if term.name:
            lines.append(f"name: {term.name}")
        if term.namespace:
            lines.append(f"namespace: {term.namespace}")
        for parent, kind in sorted(term.parents):
            if kind == IS_A:
                lines.append(f"is_a: {parent}")
            else:
                lines.append(f"relationship: part_of {parent}")
        if term.obsolete:
            lines.append("is_obsolete: true")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
