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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ProvenanceError
from ..reporting import json_ready

__all__ = [
    "EXPLAIN_SCHEMA",
    "Derivation",
    "DerivationNode",
    "derivation_from_json",
    "json_pure",
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
        return {
            "rule": self.rule,
            "formula": self.formula,
            "point": self.point,
            "holds": self.holds,
            "definition": self.definition,
            "detail": self.detail,
            "children": [child.json_ready() for child in self.children],
        }

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


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
        canonical = json.dumps(self.json_ready(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _node_from_json(payload, path: str) -> DerivationNode:
    if not isinstance(payload, Mapping):
        raise ProvenanceError(f"derivation node at {path} is not a JSON object")
    missing = {"rule", "formula", "holds", "definition"} - set(payload)
    if missing:
        raise ProvenanceError(
            f"derivation node at {path} is missing fields {sorted(missing)}"
        )
    children_payload = payload.get("children", [])
    if not isinstance(children_payload, (list, tuple)):
        raise ProvenanceError(f"derivation node at {path} has non-list children")
    children = tuple(
        _node_from_json(child, f"{path}.children[{index}]")
        for index, child in enumerate(children_payload)
    )
    return DerivationNode(
        rule=payload["rule"],
        formula=payload["formula"],
        point=payload.get("point"),
        holds=bool(payload["holds"]),
        definition=payload["definition"],
        detail=payload.get("detail", {}),
        children=children,
    )


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
        root=_node_from_json(payload["root"], "root"),
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
