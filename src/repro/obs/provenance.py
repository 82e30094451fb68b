"""Derivation trees for formula evaluations: schema ``repro-explain/1``.

PR 4 made the *cost* of a computation observable; this module makes its
*content* auditable.  A :class:`Derivation` records how the model checker
arrived at a verdict for one formula at one point -- which probability
assignment interpreted ``Pr_i`` (Section 5), which sample space
``S(i, c)`` and cells with which exact measures realised the inner bound
(Section 5's inner-measure semantics), which event witnessed
``K_i^alpha phi`` or which point refuted it (Theorem 7's two directions),
and the iteration snapshots of the ``C_G^alpha`` greatest fixed point
(Section 8).

The data model is deliberately *pure*: every field of every node is
JSON-ready at construction time (exact :class:`fractions.Fraction`
values are stored as their ``"p/q"`` strings, point references as
``{"bit", "time", "label"}`` dicts over the system's shared point
index), so dataclass equality coincides with JSON round-trip equality
and a derivation can be diffed, fingerprinted, and shipped between runs
without any context.  :mod:`repro.logic.explain` is the builder;
``tools/tracediff`` and ``tools/verifyaudit`` are the consumers.

Derivations are built, never recorded: ``Model.explain`` reads the
model's own kernels (the gfp iterates included), and the two carriers
are ``repro-explain/1`` documents (:func:`write_derivation`) and the
derivation nodes of ``repro-audit/1`` bundles (:mod:`repro.obs.audit`).
No recorder takes part.

This module is the one owner of the node format: its fields
(:data:`NODE_FIELDS`), its nested and Merkle-table encodings
(:meth:`DerivationNode.json_ready`, :func:`node_table`), their one
decoder, their one hash (:func:`canonical_digest`) and the point
references inside them (:func:`point_refs`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import ProvenanceError
from ..reporting import json_ready

__all__ = [
    "EXPLAIN_SCHEMA",
    "NODE_FIELDS",
    "Derivation",
    "DerivationNode",
    "canonical_digest",
    "derivation_from_json",
    "json_pure",
    "node_from_table",
    "node_table",
    "point_refs",
    "read_derivation",
    "render_derivation",
    "write_derivation",
]

#: Identifier written into (and demanded from) every serialised derivation.
EXPLAIN_SCHEMA = "repro-explain/1"


def json_pure(value):
    """Normalise a value to the *pure* JSON subset derivations are built on.

    Deterministic. Same value in, same normal form out -- no ids, no
    clock, no iteration-order dependence.
    Exact. Floats are rejected outright, so nothing downstream can
    round.

    Section 5's semantics is exact, so its provenance must be too:
    :class:`fractions.Fraction` values become their ``"p/q"`` strings
    (matching :func:`repro.reporting.json_ready` /
    :func:`repro.reporting.fraction_from_json`), tuples become lists, and
    floats are rejected outright -- a float in a derivation would mean a
    probability was rounded, which the reproduction never does.  Ints
    take :func:`repro.reporting.json_ready`'s form: the int itself, or,
    past its decimal-safe width (the point masks of systems past about
    14,000 points), an exact ``"0x..."`` string that ``int(text, 16)``
    restores.  The result round-trips through ``json.dumps`` /
    ``json.loads`` unchanged, which is what makes dataclass equality on
    derivation nodes coincide with equality of their serialised forms.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return json_ready(value)
    if isinstance(value, float):
        raise ProvenanceError(
            f"floats are banned in derivations (got {value!r}); "
            "encode exact Fractions as 'p/q' strings"
        )
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {str(key): json_pure(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_pure(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [json_pure(item) for item in sorted(value, key=repr)]
    raise ProvenanceError(
        f"value of type {type(value).__name__} cannot appear in a derivation"
    )


@dataclass(frozen=True, eq=True)
class DerivationNode:
    """One step of a derivation: a formula verdict and its justification.

    ``rule`` names the semantic clause applied (``"knows"``,
    ``"pr-at-least"``, ``"gfp"``, ...), ``definition`` cites the paper
    statement the clause instantiates (Section 5's inner-measure
    semantics, Section 8's fixed-point definition, ...), and ``detail``
    carries the rule-specific evidence -- sample-space cells with exact
    ``"p/q"`` measures, witness masks, counterexample point references,
    gfp iteration snapshots.  ``detail`` and ``children`` are normalised
    through :func:`json_pure` at construction, so two nodes are equal
    exactly when their serialised forms are.
    """

    rule: str
    formula: str
    point: Optional[Dict]
    holds: bool
    definition: str
    detail: Dict = field(default_factory=dict)
    children: Tuple["DerivationNode", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", json_pure(self.point))
        object.__setattr__(self, "detail", json_pure(self.detail))
        object.__setattr__(self, "children", tuple(self.children))

    def json_ready(self) -> Dict:
        """The node as a plain JSON-ready dict (schema ``repro-explain/1``)."""
        return _node_payload(self, [child.json_ready() for child in self.children])

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


#: The fields of one derivation node, in the order every encoding writes
#: them: :class:`DerivationNode`'s own fields.  ``children`` comes last;
#: it is the one field whose encoding differs between the two forms.
NODE_FIELDS: Tuple[str, ...] = tuple(item.name for item in fields(DerivationNode))


def _node_payload(node: DerivationNode, children: List) -> Dict:
    """The one encoding of a node: its :data:`NODE_FIELDS`, in order,
    with ``children`` standing in for its children -- their nested
    payloads in a document, their refs in a :func:`node_table`."""
    payload = {name: getattr(node, name) for name in NODE_FIELDS[:-1]}
    payload["children"] = children
    return payload


def canonical_digest(payload) -> str:
    """The SHA-256 of ``payload``'s canonical (sorted-key) JSON.

    Deterministic. Equal content gives an equal digest in every process.

    The one content hash: derivation fingerprints, node-table refs and
    the genesis and leaf hashes of a Section 8 sweep's audit chain are
    all this function.
    """
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def node_table(root: DerivationNode) -> Tuple[str, Dict[str, Dict]]:
    """The Merkle node table of the tree at ``root``: ``(root ref, table)``.

    Deterministic. Refs and table order are functions of the tree alone.

    Each distinct subtree is one entry, filed under its ref: the
    :func:`canonical_digest` of its payload with the
    children replaced by *their* refs, so one ref commits to a whole
    subtree and equal refs mean equal subtrees.  Entries are in
    post-order of first occurrence, children before parents -- the
    order the audit bundle of a Section 8 sweep streams them in.
    """
    table: Dict[str, Dict] = {}

    def encode(node: DerivationNode) -> str:
        payload = _node_payload(node, [encode(child) for child in node.children])
        ref = canonical_digest(payload)
        table.setdefault(ref, payload)
        return ref

    return encode(root), table


def point_refs(system) -> Callable[[object], Dict]:
    """The point-reference encoder of one system.

    Each point ``(r, k)`` becomes ``{"bit", "time", "label"}``: ``bit``
    is its position in ``system.point_index`` (the index every Section 5
    extension mask is built over), and ``label`` numbers its run by its
    position in ``system.runs``.  The run table is built once here, so
    one encoder serves a whole derivation.  Knowledge and betting
    derivations both name points this way, and
    :func:`repro.logic.explain.resolve_point_ref` is the inverse.
    """
    position = system.point_index.position
    run_number = {run: number for number, run in enumerate(system.runs)}

    def point_ref(point) -> Dict:
        return {
            "bit": position(point),
            "time": point.time,
            "label": f"(r{run_number[point.run]}, {point.time})",
        }

    return point_ref


@dataclass(frozen=True, eq=True)
class Derivation:
    """A complete derivation: formula, point, assignment, and proof tree.

    ``assignment`` is the *name* of the probability assignment that
    interpreted ``Pr_i`` (``post`` / ``fut`` / ``opp(j)`` / ``prior`` --
    the Section 6 lattice), because the choice of assignment is exactly
    what the paper says a probabilistic-knowledge claim is relative to.
    """

    assignment: str
    formula: str
    point: Dict
    root: DerivationNode

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", json_pure(self.point))

    @property
    def holds(self) -> bool:
        """The top-level verdict."""
        return self.root.holds

    def json_ready(self) -> Dict:
        """The full ``repro-explain/1`` payload."""
        return {
            "schema": EXPLAIN_SCHEMA,
            "assignment": self.assignment,
            "formula": self.formula,
            "point": self.point,
            "holds": self.root.holds,
            "root": self.root.json_ready(),
        }

    def fingerprint(self) -> str:
        """A content hash stable across processes and runs.

        Deterministic. The hash is a pure function of the derivation's
        content -- ``tools/tracediff`` depends on it.

        Every field of a derivation is deterministic (no timestamps, no
        ids), so the SHA-256 of the canonical sorted-key serialisation
        identifies the derivation itself: two runs that derived the same
        verdict the same way collide, two that diverged anywhere do not.
        ``tools/tracediff`` aligns derivations by this value.
        """
        return canonical_digest(self.json_ready())


def _decode_node(
    payload, path: str, decode_child: Callable[[object, str], DerivationNode]
) -> DerivationNode:
    """The one node decoder: check :data:`NODE_FIELDS`, decode children.

    ``decode_child(entry, path)`` turns one ``children`` entry into a
    node: a nested payload in a document, a fingerprint resolved against
    the table in a node table.
    """
    if not isinstance(payload, Mapping):
        raise ProvenanceError(f"derivation node at {path} is not a JSON object")
    missing = set(NODE_FIELDS) - set(payload)
    if missing:
        raise ProvenanceError(
            f"derivation node at {path} is missing fields {sorted(missing)}"
        )
    entries = payload["children"]
    if not isinstance(entries, (list, tuple)):
        raise ProvenanceError(f"derivation node at {path} has non-list children")
    values = {name: payload[name] for name in NODE_FIELDS[:-1]}
    values["holds"] = bool(values["holds"])
    return DerivationNode(
        **values,
        children=tuple(
            decode_child(entry, f"{path}.children[{index}]")
            for index, entry in enumerate(entries)
        ),
    )


def _decode_nested(payload, path: str) -> DerivationNode:
    """A document node: its children are nested payloads."""
    return _decode_node(payload, path, _decode_nested)


def node_from_table(nodes: Mapping[str, Dict], ref: str) -> DerivationNode:
    """Rebuild the tree rooted at ``ref`` from a Merkle node table.

    The inverse of :func:`node_table`, and the table form of the one
    node decoder: each child entry must be a fingerprint that resolves
    in ``nodes``, so a Section 8 sweep's bundle yields back the Section
    5 evidence it streamed.  Raises
    :class:`~repro.errors.ProvenanceError` on a non-reference child, a
    dangling fingerprint, a fingerprint that repeats on its own descent
    path (a cycle, which no Merkle table can hold), or a malformed node
    -- a derivation is only meaningful when every reference resolves to
    a finite tree.
    """

    def resolve(entry, path: str, ancestors: FrozenSet[str]) -> DerivationNode:
        if not isinstance(entry, str):
            raise ProvenanceError(
                f"derivation node table has non-reference children entry "
                f"{entry!r} at {path}"
            )
        if entry in ancestors:
            raise ProvenanceError(
                f"derivation node reference {entry!r} at {path} repeats on its "
                "own descent path"
            )
        payload = nodes.get(entry)
        if payload is None:
            raise ProvenanceError(
                f"derivation node reference {entry!r} at {path} resolves to no node"
            )
        inside = ancestors | {entry}
        return _decode_node(
            payload, path, lambda child, child_path: resolve(child, child_path, inside)
        )

    return resolve(ref, "root", frozenset())


def derivation_from_json(payload) -> Derivation:
    """Decode a ``repro-explain/1`` payload back into a :class:`Derivation`.

    The inverse of :meth:`Derivation.json_ready` -- the round trip is
    exact, including every ``"p/q"`` cell measure (Section 5 semantics is
    never rounded).  Raises :class:`~repro.errors.ProvenanceError` on a
    missing or foreign schema marker or a malformed node tree.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as error:
            raise ProvenanceError(f"derivation payload is not JSON: {error}") from None
    if not isinstance(payload, Mapping):
        raise ProvenanceError("derivation payload is not a JSON object")
    schema = payload.get("schema")
    if schema != EXPLAIN_SCHEMA:
        raise ProvenanceError(
            f"payload schema is {schema!r}, expected {EXPLAIN_SCHEMA!r}"
        )
    for key in ("assignment", "formula", "point", "root"):
        if key not in payload:
            raise ProvenanceError(f"derivation payload is missing {key!r}")
    return Derivation(
        assignment=payload["assignment"],
        formula=payload["formula"],
        point=payload["point"],
        root=_decode_nested(payload["root"], "root"),
    )


def write_derivation(derivation: Derivation, path) -> str:
    """Serialise one derivation to pretty-printed ``repro-explain/1`` JSON.

    The file holds a single JSON document (not JSONL): a derivation is
    one auditable object, the Section 5 evidence for one verdict.
    Returns the rendered text.
    """
    text = json.dumps(derivation.json_ready(), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text


def read_derivation(path) -> Derivation:
    """Load a ``repro-explain/1`` file written by :func:`write_derivation`.

    Strict by design (unlike the tolerant trace reader): a derivation is
    a single JSON document whose Section 5 evidence is only meaningful
    complete, so any truncation or schema mismatch raises
    :class:`~repro.errors.ProvenanceError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ProvenanceError(f"cannot read derivation file: {error}") from None
    return derivation_from_json(text)


_VERDICT = {True: "holds", False: "fails"}


def _render_node(node: DerivationNode, lines: List[str], indent: int) -> None:
    pad = "  " * indent
    where = ""
    if node.point is not None:
        where = f" @ {node.point.get('label', node.point)}"
    lines.append(f"{pad}[{_VERDICT[node.holds]}] {node.formula}{where}")
    lines.append(f"{pad}    rule: {node.rule}  --  {node.definition}")
    for key in sorted(node.detail):
        value = node.detail[key]
        if isinstance(value, list) and len(value) > 4:
            value = f"[{len(value)} entries]"
        lines.append(f"{pad}    {key}: {value}")
    for child in node.children:
        _render_node(child, lines, indent + 1)


def render_derivation(derivation: Derivation) -> str:
    """A human-readable account of the derivation, one node per block.

    Each step cites the paper definition it instantiates (the
    inner-measure semantics of Section 5, the ``K_i^alpha`` reading of
    Section 5, the greatest-fixed-point definition of Section 8, ...), so
    the rendering reads as a checkable proof sketch rather than a dump.
    """
    lines = [
        f"derivation ({EXPLAIN_SCHEMA})",
        f"  formula:    {derivation.formula}",
        f"  point:      {derivation.point.get('label', derivation.point)}",
        f"  assignment: {derivation.assignment}   (Section 6 lattice)",
        f"  verdict:    {_VERDICT[derivation.root.holds]}",
        "",
    ]
    _render_node(derivation.root, lines, 1)
    return "\n".join(lines)
