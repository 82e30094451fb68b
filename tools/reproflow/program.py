"""Whole-program model: symbol resolution and the effect fixpoint.

Consumes the per-module summaries produced by
:mod:`tools.reproflow.extract` (plain dicts) and builds the
cross-module picture:

* a global function index keyed by fully-qualified name
  (``repro.attack.sweep.sweep_row_of``),
* symbol resolution that chases from-imports, aliases, package
  ``__init__`` re-exports (with a cycle guard), class methods through
  base classes, module-level instances, and constructor calls,
* a deterministic fixpoint over the transitive effect sets
  (``reads_clock``, ``unseeded_random``, ``mutates_global``, ``io``)
  with a *witness* per (function, effect) so every finding can print
  the exact call chain down to the intrinsic site,
* a second fixpoint for float-returning functions (``returns_float``)
  and transitive float usage (``uses_float``), with
  ``repro.probability.fractionutil`` carved out as the one sanctioned
  float boundary.

Known limitation, by design: calls through dynamically-typed values
(e.g. a ``recorder`` parameter satisfying a protocol) are not resolved.
The paper-level invariants this tier guards are about *statically
shipped* work -- task payloads and their call closures -- where every
edge is nameable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Effects propagated transitively through the call graph.
TRANSITIVE_EFFECTS = ("reads_clock", "unseeded_random", "mutates_global", "io")

#: The sanctioned float boundary (RL001's carve-out, honoured here too):
#: ``fractionutil`` converts floats *into* exact Fractions, so its return
#: values are never float-tainted.
FLOAT_BOUNDARY_MODULES = frozenset({"repro.probability.fractionutil"})

#: A witness for one (function, effect) pair: either the intrinsic site
#: itself or the first call edge that imported the effect.
Cause = Tuple  # ("intrinsic", line, detail) | ("call", callee_fqn, line)


@dataclass(frozen=True)
class FunctionInfo:
    """One function record located inside the whole program."""

    fqn: str
    module: str
    path: str
    record: Dict[str, object]

    @property
    def line(self) -> int:
        return int(self.record["line"])  # type: ignore[arg-type]

    @property
    def qualname(self) -> str:
        return str(self.record["name"])


@dataclass(frozen=True)
class PayloadSite:
    """One call site that ships a payload argument somewhere."""

    caller: FunctionInfo
    line: int
    callee_fqns: Tuple[str, ...]
    payload: Dict[str, object]


@dataclass
class Program:
    """The resolved whole-program view over a set of module summaries."""

    modules: Dict[str, Dict[str, object]] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: (caller_fqn) -> ordered resolved call edges (callee_fqn, line).
    resolved_calls: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    #: (fqn, effect) -> witness cause, after the fixpoint.
    effect_cause: Dict[Tuple[str, str], Cause] = field(default_factory=dict)
    #: fqn -> witness cause for a float-valued return, after the fixpoint.
    returns_float: Dict[str, Cause] = field(default_factory=dict)
    #: fqn -> witness cause for any transitive float usage.
    uses_float: Dict[str, Cause] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, summaries: Sequence[Dict[str, object]]) -> "Program":
        program = cls()
        for summary in summaries:
            program.modules[str(summary["module"])] = summary
        for module_name in sorted(program.modules):
            summary = program.modules[module_name]
            for qualname, record in summary["functions"].items():  # type: ignore[union-attr]
                fqn = f"{module_name}.{qualname}"
                program.functions[fqn] = FunctionInfo(
                    fqn=fqn,
                    module=module_name,
                    path=str(summary["path"]),
                    record=record,
                )
        program._resolve_all_calls()
        program._run_effect_fixpoint()
        program._run_float_fixpoint()
        return program

    # ------------------------------------------------------------------
    # symbol resolution
    # ------------------------------------------------------------------

    def _module_binding(
        self, module_name: str, name: str, seen: Set[Tuple[str, str]]
    ) -> Optional[Tuple]:
        """Resolve ``name`` inside ``module_name``'s namespace.

        Returns an entity tuple:
        ``("function", fqn)`` | ``("class", module, class_name)`` |
        ``("module", dotted)`` | ``("instance", module, const_name)``.
        """
        if (module_name, name) in seen:
            return None
        seen.add((module_name, name))
        summary = self.modules.get(module_name)
        if summary is None:
            return None
        functions = summary["functions"]
        classes = summary["classes"]
        constants = summary["constants"]
        imports = summary["imports"]
        if name in functions:  # type: ignore[operator]
            return ("function", f"{module_name}.{name}")
        if name in classes:  # type: ignore[operator]
            return ("class", module_name, name)
        if name in constants:  # type: ignore[operator]
            return ("instance", module_name, name)
        if name in imports:  # type: ignore[operator]
            return self._resolve_dotted(str(imports[name]), seen)  # type: ignore[index]
        # A submodule reachable as an attribute of its package.
        candidate = f"{module_name}.{name}"
        if candidate in self.modules:
            return ("module", candidate)
        return None

    def _resolve_dotted(
        self, dotted: str, seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple]:
        """Resolve an absolute dotted path to an entity, chasing
        re-exports.  ``repro.attack.sweep_row_of`` lands on the function
        in ``repro.attack.sweep`` via the package ``__init__`` import."""
        if seen is None:
            seen = set()
        if dotted in self.modules:
            return ("module", dotted)
        # Longest module prefix, then descend attribute by attribute.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.modules:
                continue
            entity: Optional[Tuple] = ("module", prefix)
            for attr in parts[cut:]:
                entity = self._descend(entity, attr, seen)
                if entity is None:
                    break
            if entity is not None:
                return entity
        return None

    def _descend(
        self, entity: Optional[Tuple], attr: str, seen: Set[Tuple[str, str]]
    ) -> Optional[Tuple]:
        if entity is None:
            return None
        kind = entity[0]
        if kind == "module":
            return self._module_binding(entity[1], attr, seen)
        if kind == "class":
            fqn = self._class_method(entity[1], entity[2], attr)
            return ("function", fqn) if fqn else None
        if kind == "instance":
            class_entity = self._instance_class(entity[1], entity[2])
            if class_entity is None:
                return None
            return self._descend(class_entity, attr, seen)
        return None

    def _instance_class(self, module_name: str, const_name: str) -> Optional[Tuple]:
        """The class entity of a module-level ``NAME = Ctor(...)``."""
        summary = self.modules.get(module_name)
        if summary is None:
            return None
        const = summary["constants"].get(const_name)  # type: ignore[union-attr]
        if not const or const.get("kind") != "instance":
            return None
        entity = self._resolve_in_module(module_name, str(const["ctor"]))
        if entity is not None and entity[0] == "class":
            return entity
        return None

    def _resolve_in_module(self, module_name: str, dotted: str) -> Optional[Tuple]:
        """Resolve a possibly-dotted local reference from inside a module."""
        head, _, rest = dotted.partition(".")
        entity = self._module_binding(module_name, head, set())
        for attr in rest.split(".") if rest else []:
            entity = self._descend(entity, attr, set())
        return entity

    def _class_method(
        self, module_name: str, class_name: str, method: str
    ) -> Optional[str]:
        """FQN of ``method`` on the class, searching base classes too."""
        pending: List[Tuple[str, str]] = [(module_name, class_name)]
        visited: Set[Tuple[str, str]] = set()
        while pending:
            mod, cls = pending.pop(0)
            if (mod, cls) in visited:
                continue
            visited.add((mod, cls))
            summary = self.modules.get(mod)
            if summary is None:
                continue
            info = summary["classes"].get(cls)  # type: ignore[union-attr]
            if info is None:
                continue
            fqn = f"{mod}.{cls}.{method}"
            if fqn in self.functions:
                return fqn
            for base in info.get("bases", []):
                base_entity = self._resolve_in_module(mod, str(base))
                if base_entity is not None and base_entity[0] == "class":
                    pending.append((base_entity[1], base_entity[2]))
        return None

    def _constructor_targets(self, module_name: str, class_name: str) -> List[str]:
        targets = []
        for hook in ("__init__", "__post_init__"):
            fqn = self._class_method(module_name, class_name, hook)
            if fqn is not None:
                targets.append(fqn)
        return targets

    def resolve_ref(self, info: FunctionInfo, ref: Sequence[object]) -> List[str]:
        """Resolve one raw call reference from ``info``'s body to the
        function FQNs it can reach (empty when dynamic/external)."""
        kind = str(ref[0])
        if kind == "local":
            fqn = f"{info.module}.{ref[1]}"
            return [fqn] if fqn in self.functions else []
        if kind == "self":
            record = info.record
            class_name = record.get("class")
            if class_name is None:
                return []
            fqn = self._class_method(info.module, str(class_name), str(ref[1]))
            return [fqn] if fqn else []
        if kind == "typed":
            entity = self._resolve_in_module(info.module, str(ref[1]))
            if entity is not None and entity[0] == "class":
                fqn = self._class_method(entity[1], entity[2], str(ref[2]))
                return [fqn] if fqn else []
            return []
        if kind == "name":
            entity = self._module_binding(info.module, str(ref[1]), set())
            return self._entity_call_targets(entity)
        if kind == "dotted":
            entity = self._resolve_in_module(info.module, str(ref[1]))
            return self._entity_call_targets(entity)
        return []

    def _entity_call_targets(self, entity: Optional[Tuple]) -> List[str]:
        """Function FQNs reached by *calling* the entity."""
        if entity is None:
            return []
        if entity[0] == "function":
            return [entity[1]] if entity[1] in self.functions else []
        if entity[0] == "class":
            return self._constructor_targets(entity[1], entity[2])
        if entity[0] == "instance":
            class_entity = self._instance_class(entity[1], entity[2])
            if class_entity is not None:
                fqn = self._class_method(class_entity[1], class_entity[2], "__call__")
                return [fqn] if fqn else []
        return []

    def resolve_payload_targets(
        self, info: FunctionInfo, payload: Dict[str, object]
    ) -> List[str]:
        """Function FQNs a payload descriptor names (empty for lambdas --
        those are judged directly by RL011, not resolved)."""
        kind = payload.get("kind")
        targets: List[str] = []
        if kind == "refs":
            for ref in payload.get("refs", []):  # type: ignore[union-attr]
                if ref and ref[0] == "lambda":
                    continue
                targets.extend(self.resolve_ref(info, ref))
        elif kind == "constructed":
            for ctor_target in self.resolve_ref(info, payload["ref"]):  # type: ignore[arg-type]
                # The instance is the payload: its __call__ does the work,
                # and construction effects ride along.
                targets.append(ctor_target)
                owner = ctor_target.rsplit(".", 2)
                if len(owner) == 3 and owner[2] in ("__init__", "__post_init__"):
                    call_fqn = self._class_method(
                        info.module
                        if owner[0] not in self.modules
                        else owner[0],
                        owner[1],
                        "__call__",
                    )
                    if call_fqn:
                        targets.append(call_fqn)
        deduped: List[str] = []
        for fqn in targets:
            if fqn not in deduped:
                deduped.append(fqn)
        return deduped

    # ------------------------------------------------------------------
    # fixpoints
    # ------------------------------------------------------------------

    def _resolve_all_calls(self) -> None:
        for fqn in sorted(self.functions):
            info = self.functions[fqn]
            edges: List[Tuple[str, int]] = []
            for call in info.record.get("calls", []):  # type: ignore[union-attr]
                for target in self.resolve_ref(info, call["ref"]):
                    edges.append((target, int(call["line"])))
            self.resolved_calls[fqn] = edges

    def _run_effect_fixpoint(self) -> None:
        for fqn in sorted(self.functions):
            effects = self.functions[fqn].record.get("effects", {})
            for effect in TRANSITIVE_EFFECTS:
                sites = effects.get(effect)  # type: ignore[union-attr]
                if sites:
                    first = sites[0]
                    self.effect_cause[(fqn, effect)] = (
                        "intrinsic",
                        int(first["line"]),
                        str(first["detail"]),
                    )
        changed = True
        while changed:
            changed = False
            for fqn in sorted(self.functions):
                for callee, line in self.resolved_calls[fqn]:
                    for effect in TRANSITIVE_EFFECTS:
                        if (callee, effect) in self.effect_cause and (
                            fqn,
                            effect,
                        ) not in self.effect_cause:
                            self.effect_cause[(fqn, effect)] = (
                                "call",
                                callee,
                                line,
                            )
                            changed = True

    def _run_float_fixpoint(self) -> None:
        for fqn in sorted(self.functions):
            info = self.functions[fqn]
            if info.module in FLOAT_BOUNDARY_MODULES:
                continue
            sites = info.record.get("float_return_sites", [])
            if sites:
                first = sites[0]  # type: ignore[index]
                self.returns_float[fqn] = (
                    "intrinsic",
                    int(first["line"]),
                    str(first["detail"]),
                )
            float_sites = info.record.get("float_sites", [])
            if float_sites:
                first = float_sites[0]  # type: ignore[index]
                self.uses_float[fqn] = (
                    "intrinsic",
                    int(first["line"]),
                    str(first["detail"]),
                )
        changed = True
        while changed:
            changed = False
            for fqn in sorted(self.functions):
                info = self.functions[fqn]
                if info.module in FLOAT_BOUNDARY_MODULES:
                    continue
                if fqn not in self.returns_float:
                    for taint in info.record.get("return_taint", []):  # type: ignore[union-attr]
                        for callee in self.resolve_ref(info, taint["ref"]):
                            if callee in self.returns_float:
                                self.returns_float[fqn] = (
                                    "call",
                                    callee,
                                    int(taint["line"]),
                                )
                                changed = True
                                break
                        if fqn in self.returns_float:
                            break
                if fqn not in self.uses_float:
                    for callee, line in self.resolved_calls[fqn]:
                        callee_info = self.functions[callee]
                        if callee_info.module in FLOAT_BOUNDARY_MODULES:
                            continue
                        if callee in self.uses_float:
                            self.uses_float[fqn] = ("call", callee, line)
                            changed = True
                            break

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def effect_chain(self, fqn: str, effect: str) -> List[Tuple[str, int, str]]:
        """The witness chain for ``(fqn, effect)`` down to the intrinsic
        site: ``[(fqn, line, detail_or_callee), ...]`` ending at the
        offending primitive."""
        chain: List[Tuple[str, int, str]] = []
        current = fqn
        guard: Set[str] = set()
        while current not in guard:
            guard.add(current)
            cause = self.effect_cause.get((current, effect))
            if cause is None:
                break
            if cause[0] == "intrinsic":
                chain.append((current, int(cause[1]), str(cause[2])))
                break
            chain.append((current, int(cause[2]), f"calls {cause[1]}"))
            current = str(cause[1])
        return chain

    def float_chain(self, fqn: str) -> List[Tuple[str, int, str]]:
        """Witness chain for a float-valued return."""
        chain: List[Tuple[str, int, str]] = []
        current = fqn
        guard: Set[str] = set()
        while current not in guard:
            guard.add(current)
            cause = self.returns_float.get(current)
            if cause is None:
                break
            if cause[0] == "intrinsic":
                chain.append((current, int(cause[1]), str(cause[2])))
                break
            chain.append((current, int(cause[2]), f"calls {cause[1]}"))
            current = str(cause[1])
        return chain

    def uses_float_chain(self, fqn: str) -> List[Tuple[str, int, str]]:
        """Witness chain for any transitive float usage."""
        chain: List[Tuple[str, int, str]] = []
        current = fqn
        guard: Set[str] = set()
        while current not in guard:
            guard.add(current)
            cause = self.uses_float.get(current)
            if cause is None:
                break
            if cause[0] == "intrinsic":
                chain.append((current, int(cause[1]), str(cause[2])))
                break
            chain.append((current, int(cause[2]), f"calls {cause[1]}"))
            current = str(cause[1])
        return chain

    def render_chain(self, chain: Sequence[Tuple[str, int, str]]) -> str:
        """``a (path:3) -> b (path:7): time.time()`` -- the human tail of
        every interprocedural finding."""
        parts: List[str] = []
        for index, (fqn, line, detail) in enumerate(chain):
            info = self.functions.get(fqn)
            location = f"{info.path}:{line}" if info else f"?:{line}"
            if index == len(chain) - 1:
                parts.append(f"{fqn} ({location}): {detail}")
            else:
                parts.append(f"{fqn} ({location})")
        return " -> ".join(parts)

    def payload_sites(self) -> Iterator[PayloadSite]:
        """Every call site that ships a statically-visible payload."""
        for fqn in sorted(self.functions):
            info = self.functions[fqn]
            for call in info.record.get("payload_calls", []):  # type: ignore[union-attr]
                callees = tuple(self.resolve_ref(info, call["ref"]))
                yield PayloadSite(
                    caller=info,
                    line=int(call["line"]),
                    callee_fqns=callees,
                    payload=call["payload"],
                )

    def registry_payloads(
        self, module_name: str, const_name: str
    ) -> List[Tuple[str, object]]:
        """Resolved values of a module-level registry dict: a list of
        ``("function", fqn)`` / ``("lambda", line)`` entries."""
        summary = self.modules.get(module_name)
        if summary is None:
            return []
        const = summary["constants"].get(const_name)  # type: ignore[union-attr]
        if not const or const.get("kind") != "registry":
            return []
        results: List[Tuple[str, object]] = []
        for ref in const.get("refs", []):
            if ref[0] == "lambda":
                results.append(("lambda", int(ref[1])))
                continue
            entity = (
                self._module_binding(module_name, str(ref[1]), set())
                if ref[0] == "name"
                else self._resolve_in_module(module_name, str(ref[1]))
            )
            for fqn in self._entity_call_targets(entity):
                results.append(("function", fqn))
        return results

    def transitive_closure(self, roots: Sequence[str]) -> List[str]:
        """Every function reachable from ``roots`` through resolved calls,
        sorted, roots included."""
        seen: Set[str] = set()
        pending = [fqn for fqn in roots if fqn in self.functions]
        while pending:
            fqn = pending.pop()
            if fqn in seen:
                continue
            seen.add(fqn)
            for callee, _line in self.resolved_calls.get(fqn, []):
                if callee not in seen:
                    pending.append(callee)
        return sorted(seen)

    def call_edges(self) -> List[Tuple[str, str, int]]:
        """All resolved edges, sorted, for the report artifact."""
        edges: List[Tuple[str, str, int]] = []
        for caller in sorted(self.resolved_calls):
            for callee, line in self.resolved_calls[caller]:
                edges.append((caller, callee, line))
        return sorted(set(edges))


__all__ = [
    "Cause",
    "FLOAT_BOUNDARY_MODULES",
    "FunctionInfo",
    "PayloadSite",
    "Program",
    "TRANSITIVE_EFFECTS",
]
