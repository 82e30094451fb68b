"""Derivation trees for betting-game verdicts (Section 6, Theorems 7-8).

``Model.explain`` already turns every *logic* verdict into a
citation-annotated :class:`~repro.obs.provenance.Derivation`; this
module does the same for the *betting* layer, so safety verdicts and the
Theorem 8(b) adversarial construction are bundle-eligible evidence --
chainable into ``repro-audit/1`` bundles (whose node records store
each distinct subtree once), diffable with ``tools/tracediff`` -- exactly
like the Section 5 knowledge derivations, reusing
:mod:`repro.obs.provenance` unchanged.

Two builders:

* :func:`safety_derivation` unfolds a
  :class:`~repro.betting.safety.SafetyCertificate` into a tree: the root
  states the Theorem 7 verdict (``Bet(phi, alpha)`` is ``P^j``-safe at
  ``c`` iff ``(P^j, c) |= K_i^alpha phi``), one child per candidate
  ``d in K_i(c)`` records its exact inner probability against the
  threshold (the Theorem 7 closed form: break-even against every
  strategy iff ``(mu_id)_*(phi) >= alpha``), and the final child is
  either the measurable witness event realising the bound at the
  tightest candidate (safe) or the proof's refuting strategy with its
  full payoff table (unsafe).
* :func:`theorem8_witness_derivation` records a
  :class:`~repro.betting.theorems.Theorem8Witness`: the escaping point
  ``d in S_ic \\ Tree^j_ic``, the relabeling verdict, and the strategy
  under which the accepted bet loses money in expectation -- Theorem
  8(b)'s constructive refutation, with the exact expected loss.

Everything is content-pure (exact ``"p/q"`` strings, index-ordered
evidence, no clocks), so equal verdicts produce byte-identical
derivations with equal fingerprints across runs and processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.assignments import ProbabilityAssignment
from ..obs.provenance import Derivation, DerivationNode, point_refs
from .safety import SafetyCertificate
from .strategies import Strategy
from .theorems import Theorem8Witness

__all__ = [
    "safety_derivation",
    "strategy_payload",
    "theorem8_witness_derivation",
]


def strategy_payload(strategy: Optional[Strategy]) -> Optional[Dict]:
    """A strategy as pure JSON: agent, payoff table, default payoff.

    Local states have no canonical JSON form, so table keys serialise as
    their ``repr`` (deterministic for the frozen local-state types the
    systems use), sorted for run-to-run stability; payoffs are exact
    ``"p/q"`` strings.  This is evidence enough to *replay* the strategy
    against Section 6's winnings definition: the payoff offered at a
    point is the table entry for the opponent's local state there.
    """
    if strategy is None:
        return None
    table = sorted(
        (repr(local), payoff) for local, payoff in strategy.table_items()
    )
    return {
        "agent": strategy.agent,
        "name": strategy.name,
        "default": strategy.default_payoff,
        "table": [
            {"local": local, "payoff": payoff} for local, payoff in table
        ],
    }


def safety_derivation(
    opponent_assignment: ProbabilityAssignment,
    certificate: SafetyCertificate,
) -> Derivation:
    """A :class:`SafetyCertificate` as a ``repro-explain/1`` derivation.

    Theorem 7: ``Bet(phi, alpha)`` is safe for ``p_i`` against ``p_j``
    at ``c`` iff ``(P^j, c) |= K_i^alpha phi``.  The tree mirrors that
    biconditional: each candidate child is one ``d in K_i(c)`` with the
    closed-form break-even test (Section 6: against ``Tree^j`` spaces
    the opponent's payoff is constant per space, so break-even against
    all strategies reduces to ``(mu_id)_*(phi) >= alpha``), and the last
    child materialises whichever direction of the proof applies -- the
    inner-measure witness event when safe, the refuting strategy when
    not.  ``opponent_assignment`` must be the ``P^j`` the certificate
    was computed against; its name becomes the derivation's assignment
    field, the same convention ``Model.explain`` uses.
    """
    psys = opponent_assignment.psys
    point_ref = point_refs(psys.system)
    formula = f"Safe(Bet({certificate.fact_name}, {certificate.alpha}))"
    children: List[DerivationNode] = []
    for candidate, inner in certificate.candidates:
        breaks = inner >= certificate.alpha
        children.append(
            DerivationNode(
                rule="break-even",
                formula="E[W_f] >= 0 for every strategy f at d",
                point=point_ref(candidate),
                holds=breaks,
                definition=(
                    "Section 6 / Theorem 7 closed form: on Tree^j the "
                    "opponent's payoff is constant per space, so break-even "
                    "against all strategies iff (mu_id)_*(phi) >= alpha"
                ),
                detail={
                    "inner_probability": inner,
                    "alpha": certificate.alpha,
                },
            )
        )
    if certificate.safe:
        assert certificate.witness_event is not None
        witness_bits = sorted(
            psys.point_index.position(point)
            for point in certificate.witness_event
        )
        children.append(
            DerivationNode(
                rule="inner-witness",
                formula=f"(mu_id)_*({certificate.fact_name}) >= {certificate.alpha}",
                point=point_ref(certificate.minimising_candidate),
                holds=True,
                definition=(
                    "Section 5: the inner measure is realised by a "
                    "measurable event inside the fact's point set; its "
                    "exact measure certifies the bound at the tightest "
                    "candidate of K_i(c)"
                ),
                detail={
                    "witness_bits": witness_bits,
                    "witness_measure": certificate.witness_measure,
                    "min_inner": certificate.min_inner,
                },
            )
        )
    else:
        assert certificate.counterexample is not None
        children.append(
            DerivationNode(
                rule="refuting-strategy",
                formula="E[W_f] < 0 for the targeted strategy f",
                point=point_ref(certificate.counterexample),
                holds=False,
                definition=(
                    "Theorem 7 (proof) / Theorem 8 sharpness: offering "
                    "1/alpha throughout K_j(d) and the harmless payoff 1 "
                    "elsewhere gives p_i strictly negative expected "
                    "winnings at the failing candidate d"
                ),
                detail={
                    "strategy": strategy_payload(certificate.refutation),
                    "min_inner": certificate.min_inner,
                },
            )
        )
    root = DerivationNode(
        rule="bet-safe" if certificate.safe else "bet-unsafe",
        formula=formula,
        point=point_ref(certificate.point),
        holds=certificate.safe,
        definition=(
            "Theorem 7: Bet(phi, alpha) is P^j-safe for p_i at c iff "
            "(P^j, c) |= K_i^alpha phi, i.e. (mu_id)_*(phi) >= alpha at "
            "every d in K_i(c)"
        ),
        detail={
            "agent": certificate.agent,
            "fact": certificate.fact_name,
            "alpha": certificate.alpha,
            "min_inner": certificate.min_inner,
            "minimising_candidate": point_ref(certificate.minimising_candidate),
        },
        children=tuple(children),
    )
    return Derivation(
        assignment=opponent_assignment.name,
        formula=formula,
        point=point_ref(certificate.point),
        root=root,
    )


def theorem8_witness_derivation(
    witness: Theorem8Witness, agent: int, opponent: int
) -> Derivation:
    """A :class:`Theorem8Witness` as a ``repro-explain/1`` derivation.

    Theorem 8(b): if ``S not<= S^j``, the assignment ``S`` fails to
    determine safe bets.  The witness is the proof made concrete, and
    the tree records each step: the escaping point ``d`` in
    ``S_ic \\ Tree^j_ic``, the relabeled system concentrating measure on
    ``d``'s global state, the accepted bet (``(P_S, c) |= K_i^alpha
    phi`` with ``alpha`` strictly above the opponent-assignment bound),
    and the strategy whose exact expected winnings are negative --
    money actually lost on a bet the assignment called safe.  Point
    refs are relative to the *relabeled* system's index.
    """
    point_ref = point_refs(witness.relabeled.system)
    formula = f"Determines-safe-bets(S) fails via Bet({witness.fact.name}, {witness.alpha})"
    escape = DerivationNode(
        rule="escaping-point",
        formula="d in S_ic \\ Tree^j_ic",
        point=point_ref(witness.point),
        holds=True,
        definition=(
            "Theorem 8(b) (proof): pick c and d with d in the agent's "
            "sample space under S but outside the opponent's joint space "
            "Tree^j_ic; relabel the tree so the runs through G_d carry "
            "most of the measure (boost_path_labeling)"
        ),
        detail={
            "escaping_time": witness.escaping_point.time,
            "fact": witness.fact.name,
        },
    )
    accepted = DerivationNode(
        rule="bet-accepted",
        formula=f"(P_S, c) |= K_i^{witness.alpha} {witness.fact.name}",
        point=point_ref(witness.point),
        holds=True,
        definition=(
            "Section 5 / Theorem 8(b): under the relabeled system the "
            "agent's S-assignment assigns the fact inner probability "
            "alpha, strictly above the opponent-assignment bound, so "
            "S calls Bet(phi, alpha) safe"
        ),
        detail={
            "alpha": witness.alpha,
            "alpha_opponent": witness.alpha_opponent,
        },
    )
    loses = DerivationNode(
        rule="expected-loss",
        formula="E[W_f] < 0 for the targeted strategy f",
        point=point_ref(witness.point),
        holds=False,
        definition=(
            "Theorem 8(b) (proof): the opponent offers 1/alpha at c's "
            "local state; against the opponent assignment the accepted "
            "bet has strictly negative expected winnings -- S admitted "
            "an unsafe bet, so S does not determine safe bets"
        ),
        detail={"expected_loss": witness.expected_loss},
    )
    root = DerivationNode(
        rule="theorem8-witness",
        formula=formula,
        point=point_ref(witness.point),
        holds=False,
        definition=(
            "Theorem 8(b): S^j is the maximum assignment determining "
            "safe bets; any S not<= S^j is refuted constructively"
        ),
        detail={
            "agent": agent,
            "opponent": opponent,
            "alpha": witness.alpha,
            "alpha_opponent": witness.alpha_opponent,
            "expected_loss": witness.expected_loss,
        },
        children=(escape, accepted, loses),
    )
    return Derivation(
        assignment=f"S vs opp({opponent})",
        formula=formula,
        point=point_ref(witness.point),
        root=root,
    )
