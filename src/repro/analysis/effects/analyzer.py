"""Interprocedural effect inference and shard-safety verification.

Builds on the package call graph (:mod:`.callgraph`):

1. **Local effect extraction** — per function, a set of effect atoms:

   =====================  ==============================================
   kind                   detail
   =====================  ==============================================
   ``writes-global``      ``module:attr`` of the mutated/rebound global
   ``reads-global``       ``module:attr`` of a read mutable global/slot
   ``rng-draw``           ``np.random``, ``module:name`` (shared
                          generator), ``arg:<param>``, ``self``, ``local``
   ``io``                 ``open``, ``print``, ``fs``, ``handle-write``,
                          ``os``, ``serialize``
   ``mutates-arg``        the parameter name
   ``thread-local``       ``module:attr`` of the ``threading.local``
   =====================  ==============================================

   A write to a manifest slot through its sanctioned installer is
   marked *safe* when the slot is classified ``synchronized``,
   ``thread-local`` or ``immutable`` — callers inherit the effect for
   reporting but it never violates a shard contract.

2. **Bottom-up fixpoint** over call-graph SCCs.  All kinds propagate
   caller-ward unchanged except ``mutates-arg``, which translates
   through the call site's argument-alias map (and drops when the
   mutated object is not one of the caller's own parameters).

3. **Findings** (gating codes; suppress with ``# repro: noqa[Cxxx]``
   on the offending line or the enclosing ``def`` line):

   ====  ========  =====================================================
   code  severity  meaning
   ====  ========  =====================================================
   C001  error     write to a module global not registered in
                   :data:`repro.concurrency.MANIFEST`
   C002  error     RNG draw from shared state (legacy ``np.random.*``
                   or a module-level generator)
   C003  error     manifest-slot write bypassing the slot's sanctioned
                   installer functions
   C004  error     ``@shard_safe`` entry has an inferred effect its
                   contract does not declare
   C005  error     manifest drift: a slot, installer or guard no longer
                   resolves against the scanned source
   C006  warning   ``@shard_safe`` entry transitively performs I/O
                   without declaring ``io=True``
   ====  ========  =====================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..findings import Finding, count_findings, filter_findings, \
    format_findings_text
from ...concurrency import MANIFEST, NEEDS_MERGE, SYNCHRONIZED, \
    THREAD_LOCAL, IMMUTABLE, GlobalSlot, ShardContract
from .callgraph import (
    GLOBAL_MUTABLE, GLOBAL_THREADLOCAL, CallSite, FunctionInfo, ModuleInfo,
    PackageGraph, _resolve_relative, attr_chain, call_sites, scan_package,
    strongly_connected,
)

__all__ = [
    "Effect", "EffectReport", "analyze_effects", "effects_of",
    "EFFECT_KINDS", "DEFAULT_ROOT",
]

#: Default scan root: the installed ``repro`` package directory.
DEFAULT_ROOT = Path(__file__).resolve().parents[2]

EFFECT_KINDS = ("writes-global", "reads-global", "rng-draw", "io",
                "mutates-arg", "thread-local")

#: numpy Generator / legacy mtrand drawing methods.
_RNG_DRAW_METHODS = {
    "random", "integers", "choice", "shuffle", "permutation", "permuted",
    "normal", "uniform", "standard_normal", "standard_exponential",
    "standard_gamma", "binomial", "poisson", "beta", "gamma",
    "exponential", "multivariate_normal", "bytes", "spawn",
    "rand", "randn", "randint", "random_sample", "seed",
}

#: Mutating container methods — receiver is modified in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "sort", "reverse", "fill",
}

#: Filesystem-touching method names (pathlib vocabulary).
#: Distinctively pathlib-flavoured names only — generic names such as
#: ``replace``/``save``/``load`` collide with str methods and model
#: checkpoints (numpy's savers are matched on the ``np.`` receiver).
_FS_METHODS = {
    "write_text", "read_text", "write_bytes", "read_bytes", "mkdir",
    "unlink", "touch", "rename", "rmdir", "symlink_to", "hardlink_to",
}

#: os-module functions with filesystem/process effects.
_OS_IO = {
    "makedirs", "remove", "rename", "replace", "rmdir", "unlink",
    "mkdir", "listdir", "scandir", "system", "popen", "chdir",
}

#: Attribute names that conventionally hold file handles / sinks.
_HANDLE_NAMES = {
    "_fh", "fh", "fp", "file", "stream", "sink", "stdout", "stderr",
    "handle", "buffer", "_file", "out", "_out",
}


@dataclass(frozen=True)
class Effect:
    """One effect atom; ``safe`` marks sanctioned-installer slot writes."""

    kind: str
    detail: str
    safe: bool = False

    def render(self) -> str:
        suffix = " [sanctioned]" if self.safe else ""
        return f"{self.kind}({self.detail}){suffix}"


# ===================================================================== #
# Local effect extraction
# ===================================================================== #
class _LocalEffects:
    """Extracts one function's own effects (no propagation)."""

    def __init__(self, graph: PackageGraph, mi: ModuleInfo, fi: FunctionInfo,
                 slots_by_location: Dict[Tuple[str, str], GlobalSlot],
                 installer_index: Dict[Tuple[str, str], Set[str]]):
        self.graph = graph
        self.mi = mi
        self.fi = fi
        self.slots = slots_by_location
        self.installers = installer_index
        self.effects: Dict[Effect, str] = {}
        self.declared_globals: Set[str] = set()
        self.local_names: Set[str] = set()
        # Function-level `from x import y` bindings — patch points are
        # sometimes imported right where they are monkeypatched.
        self.local_from: Dict[str, Tuple[str, str]] = {}
        self.local_plain_imports: Set[str] = set()

    def origin(self, lineno: int) -> str:
        return f"{self.fi.full_name}:{lineno}"

    def add(self, kind: str, detail: str, lineno: int, safe: bool = False) -> None:
        eff = Effect(kind, detail, safe)
        self.effects.setdefault(eff, self.origin(lineno))

    # -- scope bookkeeping --------------------------------------------- #
    def _collect_scope(self) -> None:
        for node in ast.walk(self.fi.node):
            if isinstance(node, ast.Global):
                self.declared_globals.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.local_names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.local_names.add(bound)
                    if isinstance(node, ast.ImportFrom) and alias.name != "*":
                        target = _resolve_relative(
                            self.mi.name, self.mi.is_package, node)
                        self.local_from[alias.asname or alias.name] = \
                            (target, alias.name)
                    elif isinstance(node, ast.Import):
                        self.local_plain_imports.add(bound)
        self.local_names.update(self.fi.params)
        self.local_names -= self.declared_globals

    def _is_module_global(self, name: str) -> bool:
        return name in self.mi.globals and name not in self.local_names

    def _global_kind(self, name: str) -> str:
        return self.mi.globals.get(name, "")

    # -- slot helpers -------------------------------------------------- #
    def _slot_for(self, module: str, attr: str) -> Optional[GlobalSlot]:
        return self.slots.get((module, attr))

    def _record_global_write(self, module: str, attr: str, lineno: int) -> None:
        slot = self._slot_for(module, attr)
        detail = f"{module}:{attr}"
        if slot is None:
            self.add("writes-global", detail, lineno)
            return
        sanctioned = (self.fi.module, self.fi.qualname) in \
            {pair: None for pair in slot.installer_pairs()}
        safe = sanctioned and slot.classification in (
            SYNCHRONIZED, THREAD_LOCAL, IMMUTABLE)
        self.add("writes-global", detail, lineno, safe=safe)

    def _record_global_read(self, module: str, attr: str, lineno: int) -> None:
        self.add("reads-global", f"{module}:{attr}", lineno)

    # -- store targets ------------------------------------------------- #
    def _handle_store_target(self, target: ast.expr, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                self._record_global_write(self.mi.name, target.id, lineno)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_store_target(elt, lineno)
            return
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        chain = attr_chain(base)
        if not chain:
            return
        head = chain[0]
        if head in ("self", "cls"):
            if head in self.fi.params:
                self.add("mutates-arg", head, lineno)
            return
        if head in self.fi.params and head not in self.declared_globals:
            self.add("mutates-arg", head, lineno)
            return
        if self._is_module_global(head):
            if self._global_kind(head) == GLOBAL_THREADLOCAL:
                self.add("thread-local", f"{self.mi.name}:{head}", lineno)
            else:
                self._record_global_write(self.mi.name, head, lineno)
            return
        # Cross-module rebind: `metrics._default = x` via a module alias,
        # or a class-attribute patch `Optimizer.__init__ = fn` (the class
        # may have been imported at function level, so check local
        # from-imports before dismissing `head` as a local name).
        resolved = self._resolve_external(chain)
        if resolved is not None:
            module, attr = resolved
            if module.startswith(self.graph.package) and attr:
                self._record_global_write(module, attr, lineno)

    def _resolve_external(self, chain: List[str]) -> Optional[Tuple[str, str]]:
        head = chain[0]
        if head in self.local_names and head not in self.local_from \
                and head not in self.local_plain_imports:
            return None  # a plain local, or shadowed import
        module = self.mi.imports.get(head)
        if module is not None:
            mod, idx = module, 1
            while idx < len(chain) - 1 and f"{mod}.{chain[idx]}" in self.graph.modules:
                mod = f"{mod}.{chain[idx]}"
                idx += 1
            return mod, ".".join(chain[idx:])
        for table in (self.mi.from_names, self.local_from):
            if head in table:
                target_module, orig = table[head]
                if self.graph.class_in(target_module, orig) is not None:
                    return target_module, ".".join([orig] + chain[1:])
        if head in self.mi.classes:
            return self.mi.name, ".".join(chain)
        return None

    # -- calls --------------------------------------------------------- #
    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        lineno = node.lineno
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("open", "print", "input") and name not in self.local_names:
                self.add("io", name if name != "input" else "open", lineno)
            elif name in ("getattr", "setattr", "delattr") and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) \
                        and self._is_module_global(first.id) \
                        and self._global_kind(first.id) == GLOBAL_THREADLOCAL:
                    self.add("thread-local",
                             f"{self.mi.name}:{first.id}", lineno)
            return
        chain = attr_chain(func)
        if not chain:
            return
        head, last = chain[0], chain[-1]
        head_module = self.mi.imports.get(head)

        if last in _RNG_DRAW_METHODS:
            self._handle_rng(chain, head, head_module, lineno)

        if head_module == "numpy" and last in ("save", "savez",
                                               "savez_compressed", "load",
                                               "loadtxt", "savetxt"):
            self.add("io", "fs", lineno)
        elif last in _FS_METHODS and head_module != "numpy" \
                and not self._receiver_is_numpy(chain):
            self.add("io", "fs", lineno)
        if head_module == "os" and (chain[1] if len(chain) > 1 else "") in _OS_IO:
            self.add("io", "os", lineno)
        if head_module in ("json", "pickle", "csv") and last in ("dump", "load"):
            self.add("io", "serialize", lineno)
        if head_module in ("shutil", "subprocess", "tempfile"):
            self.add("io", "os", lineno)
        if head_module == "sys" and len(chain) >= 2 \
                and chain[1] in ("stdout", "stderr"):
            self.add("io", "handle-write", lineno)
        if last in ("write", "writelines", "flush") \
                and any(part in _HANDLE_NAMES for part in chain[:-1]):
            self.add("io", "handle-write", lineno)

        # Mutation / read of a module-global container through a method.
        if len(chain) >= 2 and self._is_module_global(head):
            kind = self._global_kind(head)
            if kind == GLOBAL_THREADLOCAL:
                self.add("thread-local", f"{self.mi.name}:{head}", lineno)
            elif last in _MUTATOR_METHODS and len(chain) == 2:
                self._record_global_write(self.mi.name, head, lineno)
            else:
                self._maybe_read(head, lineno)
        # Mutator method on a parameter (batch.append(x), cfg.update(d)).
        elif last in _MUTATOR_METHODS and len(chain) >= 2:
            if head in ("self", "cls"):
                self.add("mutates-arg", "self", lineno)
            elif head in self.fi.params:
                self.add("mutates-arg", head, lineno)

    def _receiver_is_numpy(self, chain: List[str]) -> bool:
        return bool(chain) and self.mi.imports.get(chain[0]) == "numpy"

    def _handle_rng(self, chain: List[str], head: str,
                    head_module: Optional[str], lineno: int) -> None:
        if head_module == "numpy" and len(chain) >= 3 and chain[1] == "random":
            self.add("rng-draw", "np.random", lineno)
            return
        if head in ("self", "cls"):
            self.add("rng-draw", "self", lineno)
            return
        if self._is_module_global(head):
            self.add("rng-draw", f"{self.mi.name}:{head}", lineno)
            return
        if head in self.fi.params:
            self.add("rng-draw", f"arg:{head}", lineno)
            return
        if head in self.local_names:
            self.add("rng-draw", "local", lineno)
            return
        # Possibly a generator held in another package module.  Not a
        # draw if the chain names a package *function* that merely
        # shares a Generator method's name (``init.normal(...)``) —
        # the callee's own effects cover that case via the call graph.
        if len(chain) < 2:
            return
        resolved = self._resolve_external(chain[:-1])
        if resolved is not None and resolved[0].startswith(self.graph.package):
            module, attr = resolved
            if attr and self.graph.module_function(module, attr) is None:
                self.add("rng-draw", f"{module}:{attr}", lineno)

    # -- reads --------------------------------------------------------- #
    def _maybe_read(self, name: str, lineno: int) -> None:
        kind = self._global_kind(name)
        slot = self._slot_for(self.mi.name, name)
        if slot is not None or kind == GLOBAL_MUTABLE:
            self._record_global_read(self.mi.name, name, lineno)

    # -- driver -------------------------------------------------------- #
    def run(self) -> Dict[Effect, str]:
        self._collect_scope()
        for node in ast.walk(self.fi.node):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    self._handle_store_target(tgt, node.lineno)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if getattr(node, "value", None) is not None or \
                        isinstance(node, ast.AugAssign):
                    self._handle_store_target(node.target, node.lineno)
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    self._handle_store_target(tgt, node.lineno)
            elif isinstance(node, ast.Call):
                self._handle_call(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if self._is_module_global(node.id):
                    gk = self._global_kind(node.id)
                    if gk == GLOBAL_THREADLOCAL:
                        self.add("thread-local",
                                 f"{self.mi.name}:{node.id}", node.lineno)
                    else:
                        self._maybe_read(node.id, node.lineno)
        return self.effects


# ===================================================================== #
# Contracts (static discovery of @shard_safe)
# ===================================================================== #
def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


def _contract_from_decorator(fi: FunctionInfo) -> Optional[ShardContract]:
    for dec in fi.node.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        target = call.func if call else dec
        chain = attr_chain(target)
        if not chain or chain[-1] != "shard_safe":
            continue
        name = f"{fi.module}.{fi.qualname}"
        merges: Tuple[str, ...] = ()
        owns: Tuple[str, ...] = ()
        mutates: Tuple[str, ...] = ()
        io = False
        note = ""
        if call:
            if call.args:
                lit = _literal(call.args[0])
                if isinstance(lit, str):
                    name = lit
            for kw in call.keywords:
                lit = _literal(kw.value) if kw.value is not None else None
                if kw.arg == "merges" and lit is not None:
                    merges = tuple(lit)
                elif kw.arg == "owns" and lit is not None:
                    owns = tuple(lit)
                elif kw.arg == "mutates" and lit is not None:
                    mutates = tuple(lit)
                elif kw.arg == "io":
                    io = bool(lit)
                elif kw.arg == "note" and isinstance(lit, str):
                    note = lit
        return ShardContract(name=name, merges=merges, owns=owns,
                             mutates=mutates, io=io, note=note)
    return None


# ===================================================================== #
# Report
# ===================================================================== #
@dataclass
class EntrySummary:
    """One contracted entry point: its declaration and inferred effects."""

    function: str
    lineno: int
    contract: ShardContract
    effects: List[Tuple[str, str]] = field(default_factory=list)  # (render, origin)


@dataclass
class EffectReport:
    findings: List[Finding]
    modules: int = 0
    functions: int = 0
    edges: int = 0
    sccs: int = 0
    entries: List[EntrySummary] = field(default_factory=list)
    suppressed: int = 0

    def to_text(self, verbose: bool = False) -> str:
        lines = [
            f"effects: {self.functions} functions / {self.modules} modules, "
            f"{self.edges} call edges, {self.sccs} SCCs, "
            f"{len(self.entries)} shard contracts"
            + (f", {self.suppressed} suppressed" if self.suppressed else ""),
        ]
        for entry in self.entries:
            lines.append(f"  contract {entry.contract.describe()} "
                         f"at {entry.function}:{entry.lineno}")
            if verbose:
                for rendered, origin in sorted(entry.effects):
                    lines.append(f"    {rendered}  <- {origin}")
        lines.append(format_findings_text(self.findings))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "counts": count_findings(self.findings),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        payload["stats"] = {
            "modules": self.modules, "functions": self.functions,
            "edges": self.edges, "sccs": self.sccs,
            "suppressed": self.suppressed,
        }
        payload["entries"] = [
            {
                "function": entry.function,
                "line": entry.lineno,
                "contract": {
                    "name": entry.contract.name,
                    "merges": list(entry.contract.merges),
                    "owns": list(entry.contract.owns),
                    "mutates": list(entry.contract.mutates),
                    "io": entry.contract.io,
                },
                "effects": [
                    {"effect": rendered, "origin": origin}
                    for rendered, origin in sorted(entry.effects)
                ],
            }
            for entry in self.entries
        ]
        return payload


# ===================================================================== #
# The analysis driver
# ===================================================================== #
class _Analysis:
    def __init__(self, root: Path, package: str):
        self.graph = scan_package(root, package)
        self.slots_by_location: Dict[Tuple[str, str], GlobalSlot] = {
            (slot.module, slot.attr): slot for slot in MANIFEST
        }
        self.installer_index: Dict[Tuple[str, str], Set[str]] = {}
        for slot in MANIFEST:
            for pair in slot.installer_pairs():
                self.installer_index.setdefault(pair, set()).add(slot.name)
        self.local: Dict[str, Dict[Effect, str]] = {}
        self.sites: Dict[str, List[CallSite]] = {}
        self.effects: Dict[str, Dict[Effect, str]] = {}
        self.findings: List[Finding] = []
        self.suppressed = 0
        self.scc_count = 0

    # -- pipeline ------------------------------------------------------ #
    def run(self) -> None:
        for full_name, fi in self.graph.functions.items():
            mi = self.graph.modules[fi.module]
            extractor = _LocalEffects(self.graph, mi, fi,
                                      self.slots_by_location,
                                      self.installer_index)
            self.local[full_name] = extractor.run()
            self.sites[full_name] = call_sites(self.graph, fi)
        self._fixpoint()
        self._check_manifest()
        self._check_locals()
        self._check_contracts()

    def _fixpoint(self) -> None:
        nodes = list(self.graph.functions)
        edge_sets: Dict[str, Set[str]] = {
            name: {site.callee for site in self.sites[name]
                   if site.callee in self.graph.functions}
            for name in nodes
        }
        components = strongly_connected(nodes, edge_sets)
        self.scc_count = len(components)
        self.effects = {name: dict(self.local[name]) for name in nodes}
        for component in components:
            members = set(component)
            changed = True
            while changed:
                changed = False
                for name in component:
                    for site in self.sites[name]:
                        callee_effects = self.effects.get(site.callee)
                        if callee_effects is None:
                            continue
                        mine = self.effects[name]
                        for eff, origin in list(callee_effects.items()):
                            for translated in self._translate(eff, site, name):
                                if translated not in mine:
                                    mine[translated] = origin
                                    if name in members:
                                        changed = True
                # Single pass suffices for acyclic components.
                if len(component) == 1 and component[0] not in \
                        edge_sets.get(component[0], set()):
                    break

    def _translate(self, eff: Effect, site: CallSite,
                   caller: str) -> List[Effect]:
        if eff.kind != "mutates-arg":
            return [eff]
        mapped = site.arg_map.get(eff.detail)
        if mapped is None:
            return []
        return [Effect("mutates-arg", mapped, eff.safe)]

    # -- findings ------------------------------------------------------ #
    def _suppressed_at(self, fi: FunctionInfo, lineno: int, code: str) -> bool:
        mi = self.graph.modules[fi.module]
        for candidate in (lineno, fi.lineno):
            codes = mi.noqa.get(candidate)
            if codes and code in codes:
                return True
        return False

    def _emit(self, code: str, severity: str, kind: str, message: str,
              fi: FunctionInfo, lineno: int) -> None:
        if self._suppressed_at(fi, lineno, code):
            self.suppressed += 1
            return
        rel = self.graph.modules[fi.module].path
        try:
            rel = rel.relative_to(self.graph.root.parent)
        except ValueError:
            pass
        self.findings.append(Finding(
            kind=kind, severity=severity, message=message, code=code,
            where=f"{rel}:{lineno}",
        ))

    def _check_locals(self) -> None:
        for full_name, effects in self.local.items():
            fi = self.graph.functions[full_name]
            for eff, origin in effects.items():
                lineno = int(origin.rsplit(":", 1)[1])
                if eff.kind == "writes-global":
                    module, attr = eff.detail.split(":", 1)
                    slot = self.slots_by_location.get((module, attr))
                    if slot is None:
                        self._emit(
                            "C001", "error", "unregistered-global-write",
                            f"{fi.full_name} writes module global "
                            f"'{eff.detail}' that is not registered in "
                            f"repro.concurrency.MANIFEST — register a "
                            f"GlobalSlot with a shard-safety classification "
                            f"or make the state local",
                            fi, lineno)
                    elif (fi.module, fi.qualname) not in slot.installer_pairs():
                        self._emit(
                            "C003", "error", "slot-bypass-write",
                            f"{fi.full_name} writes manifest slot "
                            f"'{slot.name}' ({eff.detail}) but is not one of "
                            f"its sanctioned installers "
                            f"{[q for _, q in slot.installer_pairs()]} — "
                            f"route the write through the installer",
                            fi, lineno)
                elif eff.kind == "rng-draw" and (
                        eff.detail == "np.random"
                        or (":" in eff.detail
                            and not eff.detail.startswith("arg:"))):
                    what = ("legacy numpy global RNG"
                            if eff.detail == "np.random"
                            else f"shared module-level generator "
                                 f"'{eff.detail}'")
                    self._emit(
                        "C002", "error", "shared-rng-draw",
                        f"{fi.full_name} draws from {what}; thread an "
                        f"explicit seeded np.random.Generator through the "
                        f"call instead so shards can fork streams",
                        fi, lineno)

    def _check_manifest(self) -> None:
        where = "src/repro/concurrency.py:MANIFEST"
        for slot in MANIFEST:
            mi = self.graph.modules.get(slot.module)
            if mi is None:
                self.findings.append(Finding(
                    kind="stale-manifest", severity="error", code="C005",
                    message=f"slot '{slot.name}': module {slot.module} is "
                            f"not part of the scanned package",
                    where=where))
                continue
            attr_head = slot.attr.split(".", 1)[0]
            if "." in slot.attr:
                ok = attr_head in mi.classes and \
                    slot.attr.split(".", 1)[1] in mi.classes[attr_head].methods
            else:
                ok = attr_head in mi.globals
            if not ok:
                self.findings.append(Finding(
                    kind="stale-manifest", severity="error", code="C005",
                    message=f"slot '{slot.name}': attribute "
                            f"{slot.module}:{slot.attr} no longer exists",
                    where=where))
            if slot.classification == THREAD_LOCAL and "." not in slot.attr \
                    and mi.globals.get(attr_head) != GLOBAL_THREADLOCAL:
                self.findings.append(Finding(
                    kind="stale-manifest", severity="error", code="C005",
                    message=f"slot '{slot.name}' is classified thread-local "
                            f"but {slot.module}:{slot.attr} is not a "
                            f"threading.local()",
                    where=where))
            if slot.classification == SYNCHRONIZED and not slot.guard:
                self.findings.append(Finding(
                    kind="stale-manifest", severity="error", code="C005",
                    message=f"slot '{slot.name}' is classified synchronized "
                            f"but names no guard lock",
                    where=where))
            if slot.guard and slot.guard not in mi.globals:
                self.findings.append(Finding(
                    kind="stale-manifest", severity="error", code="C005",
                    message=f"slot '{slot.name}': guard {slot.module}:"
                            f"{slot.guard} no longer exists",
                    where=where))
            for pair in slot.installer_pairs():
                if ".".join(pair) not in self.graph.functions:
                    self.findings.append(Finding(
                        kind="stale-manifest", severity="error", code="C005",
                        message=f"slot '{slot.name}': installer "
                                f"{pair[0]}.{pair[1]} no longer exists",
                        where=where))

    def _check_contracts(self) -> None:
        self.entries: List[EntrySummary] = []
        slots_by_name = {slot.name: slot for slot in MANIFEST}
        for full_name, fi in sorted(self.graph.functions.items()):
            contract = _contract_from_decorator(fi)
            if contract is None:
                continue
            effects = self.effects.get(full_name, {})
            summary = EntrySummary(
                function=full_name, lineno=fi.lineno, contract=contract,
                effects=[(eff.render(), origin)
                         for eff, origin in effects.items()])
            self.entries.append(summary)
            allowed_writes = set(contract.owns) | set(contract.merges)
            has_undeclared_io = False
            io_origin = ""
            for eff, origin in effects.items():
                if eff.safe:
                    continue
                if eff.kind == "writes-global":
                    module, attr = eff.detail.split(":", 1)
                    slot = self.slots_by_location.get((module, attr))
                    if slot is None:
                        self._c004(fi, contract,
                                   f"writes unregistered global "
                                   f"'{eff.detail}' (via {origin})")
                    elif slot.name not in allowed_writes:
                        self._c004(fi, contract,
                                   f"writes slot '{slot.name}' "
                                   f"[{slot.classification}] without "
                                   f"declaring it in owns=/merges= "
                                   f"(via {origin})")
                elif eff.kind == "reads-global":
                    module, attr = eff.detail.split(":", 1)
                    slot = self.slots_by_location.get((module, attr))
                    if slot is not None \
                            and slot.classification == NEEDS_MERGE \
                            and slot.name not in allowed_writes:
                        self._c004(fi, contract,
                                   f"records into shared slot '{slot.name}' "
                                   f"[needs-merge-on-join] without declaring "
                                   f"merges=('{slot.name}',) (via {origin})")
                elif eff.kind == "rng-draw" and (
                        eff.detail == "np.random"
                        or (":" in eff.detail
                            and not eff.detail.startswith("arg:"))):
                    self._c004(fi, contract,
                               f"draws from shared RNG state "
                               f"'{eff.detail}' (via {origin})")
                elif eff.kind == "mutates-arg":
                    if eff.detail not in ("self", "cls") \
                            and eff.detail in fi.params \
                            and eff.detail not in contract.mutates:
                        self._c004(fi, contract,
                                   f"mutates parameter '{eff.detail}' "
                                   f"without declaring it in mutates= "
                                   f"(via {origin})")
                elif eff.kind == "io" and not contract.io:
                    has_undeclared_io = True
                    io_origin = io_origin or origin
            if has_undeclared_io:
                self._emit(
                    "C006", "warning", "undeclared-io",
                    f"shard-safe entry {contract.name} transitively performs "
                    f"I/O (via {io_origin}) but does not declare io=True",
                    fi, fi.lineno)

    def _c004(self, fi: FunctionInfo, contract: ShardContract,
              what: str) -> None:
        self._emit(
            "C004", "error", "shard-contract-violation",
            f"shard-safe entry {contract.name} {what}",
            fi, fi.lineno)


def analyze_effects(root: Optional[Path] = None, package: str = "repro",
                    select: Optional[Sequence[str]] = None,
                    ignore: Optional[Sequence[str]] = None) -> EffectReport:
    """Run the full effect analysis and return the report."""
    analysis = _Analysis(Path(root) if root else DEFAULT_ROOT, package)
    analysis.run()
    findings = filter_findings(analysis.findings, select=select, ignore=ignore)
    return EffectReport(
        findings=findings,
        modules=len(analysis.graph.modules),
        functions=len(analysis.graph.functions),
        edges=sum(len(s) for s in analysis.sites.values()),
        sccs=analysis.scc_count,
        entries=analysis.entries,
        suppressed=analysis.suppressed,
    )


def effects_of(full_name: str, root: Optional[Path] = None,
               package: str = "repro") -> List[Tuple[str, str]]:
    """Inferred transitive effects of one function, rendered.

    Returns ``(effect, origin)`` pairs; raises ``KeyError`` for an
    unknown function.  Mostly a debugging/inspection helper behind
    ``repro effects --entry``.
    """
    analysis = _Analysis(Path(root) if root else DEFAULT_ROOT, package)
    analysis.run()
    if full_name not in analysis.effects:
        raise KeyError(full_name)
    return sorted((eff.render(), origin)
                  for eff, origin in analysis.effects[full_name].items())
