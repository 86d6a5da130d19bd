"""Whole-program determinism & concurrency analyzer.

The per-file determinism linter (:mod:`repro.tools.lint`, rules
``REP001``-``REP006``) checks what a single line can prove.  This
module is its interprocedural counterpart: it parses *every* source
file under a root at once, builds a program-wide index of functions,
call sites, imports and module-level state, and checks the properties
the repo's bit-reproducibility guarantees actually rest on -- RNG
*provenance* rather than RNG *spelling*, and ownership/atomicity of
state that outlives one function call.

RNG provenance (``REP100``-``REP104``)
--------------------------------------
``REP100``
    A function builds ``default_rng(seed)`` from a parameter whose
    default is ``None`` -- fine when every caller threads a seed, but
    an in-package call site that leaves it unset silently draws OS
    entropy.  The per-file ``REP002`` cannot see this; the call-site
    cross-check here can.
``REP101``
    An RNG object is captured into a nested ``def`` or ``lambda``.
    Closures hide stream consumption from the caller and pickle the
    generator state if the closure crosses a process boundary.
``REP102``
    An RNG object travels through ``submit``/``map`` of a process
    pool.  Generators must not cross a fork: workers must receive
    *derived seeds* (``SeedSequence`` children), the pattern the
    parallel runner's worker-count invariance depends on.
``REP103``
    The same RNG is both consumed locally **and** shipped to a
    worker -- the parent and child then share one stream position and
    results depend on scheduling.
``REP104``
    A seed expression mixes in a nondeterministic source (``os.getpid``,
    ``os.urandom``, ``time.time``, ``uuid.*``, ``secrets.*``, ``id()``,
    ``hash()``).

Shared state & I/O atomicity (``REP110``-``REP112``)
----------------------------------------------------
``REP110``
    A module-level mutable container (dict/list/set/...) is written
    from function code without a **registered ownership contract** in
    :data:`OWNERSHIP_CONTRACTS`.  Process-level caches are legal --
    the LUT cache and the reference-trace cache are load-bearing --
    but each must declare who owns it, and why worker processes can
    rebuild it safely.
``REP111``
    A checkpoint/journal/spool/snapshot-shaped function truncates a
    file (``open(..., "w")``) without calling ``os.replace``: a kill
    mid-write leaves a torn artifact.  Durable writes go to a sibling
    temp file and are published atomically.
``REP112``
    A temp-suffixed path (``.tmp``/``.compact``/``.partial``) is
    written but the function never calls ``os.replace`` -- the
    other half of the same idiom.

Suppression uses the linter's ``# allow-lint: CODE reason`` comments,
applied at each finding's reported line.  Run via ``lint_paths`` /
``repro lint-code`` (the program pass activates whenever the lint
root is a directory) or directly through :func:`analyze_program`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity
from . import findings as F

#: ``"module:VARIABLE" -> contract`` -- the registered owners of
#: module-level mutable state.  An entry acknowledges that the
#: container is mutated at runtime and records the ownership rule
#: that makes the mutation reproducibility-safe (see DESIGN.md,
#: "Determinism contract").  ``REP110`` fires for any mutated
#: module-level container *not* listed here.
OWNERSHIP_CONTRACTS: Dict[str, str] = {
    "repro.analysis.findings:FINDING_CODES": (
        "append-only code registry, populated at import time by "
        "register_code; never mutated after import"
    ),
    "repro.decoders.batched:_LUT_CACHE": (
        "process-level LUT cache keyed by check-matrix digest; "
        "entries are pure functions of the key, workers rebuild "
        "independently, clear_lut_cache() owns invalidation"
    ),
    "repro.decoders.batched:_PACK_WEIGHTS": (
        "lazily-built constant pack-weight tables keyed by word "
        "count; pure function of the key, idempotent rebuild"
    ),
    "repro.decoders.batched:_BIT_INDEX": (
        "lazily-built constant bit-index tables keyed by word "
        "count; pure function of the key, idempotent rebuild"
    ),
    "repro.decoders.registry:_REGISTRY": (
        "decoder registry, populated at import time by "
        "register_decoder; runtime mutation only via the "
        "register/unregister test hooks"
    ),
    "repro.experiments.results:RESULT_KINDS": (
        "kind discriminator registry, populated by "
        "ResultBase.__init_subclass__ at class-definition time"
    ),
    "repro.sim.refcache:_REFERENCE_CACHE": (
        "bounded FIFO reference-trace cache; entries are pure "
        "functions of protocol-structure keys, replay is "
        "bit-identical, clear_reference_cache() owns invalidation"
    ),
}

#: Mutating container methods that count as a write for ``REP110``.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Constructor names whose module-level result is a mutable container.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}
)

#: RNG constructor call names (final segment of the dotted chain).
_RNG_CONSTRUCTORS = frozenset({"default_rng", "Generator"})

#: Generator methods that *derive* rather than consume -- calling
#: these is not a stream draw.
_RNG_NON_CONSUMING = frozenset({"spawn", "bit_generator"})

#: Dotted chains whose value is nondeterministic (``REP104``).
_NONDET_CHAINS = frozenset(
    {
        ("os", "urandom"),
        ("os", "getpid"),
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "perf_counter"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)

#: Bare builtins that are nondeterministic in a seed expression.
_NONDET_BUILTINS = frozenset({"id", "hash"})

#: Modules whose every attribute call is nondeterministic.
_NONDET_MODULES = frozenset({"secrets"})

#: Function/module names marking a durable-persistence scope
#: (``REP111``).
_PERSISTENCE_PATTERN = re.compile(
    r"journal|checkpoint|snapshot|spool|compact|persist",
    re.IGNORECASE,
)

#: Receiver-name fragments identifying an executor/pool object.
_POOL_PATTERN = re.compile(r"pool|executor|fleet", re.IGNORECASE)

#: Temp-file suffixes of the tmp-write + ``os.replace`` idiom.
_TMP_SUFFIXES = (".tmp", ".compact", ".partial")


def _dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-trivial bases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name of a source file.

    Files inside a ``repro`` package tree get their real dotted name
    (``repro.serve.jobs``); loose scripts (examples, benchmarks) are
    addressed by their stem.
    """
    parts = list(path.parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[start:]
    else:
        dotted = parts[-1:]
    dotted[-1] = Path(dotted[-1]).stem
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else path.stem


@dataclass
class ModuleInfo:
    """One parsed source file of the analyzed program."""

    name: str
    path: str
    tree: ast.Module
    source: str


@dataclass
class FunctionInfo:
    """One function or method definition in the program index."""

    module: str
    path: str
    qualname: str
    node: ast.AST
    params: List[str]
    none_defaults: Set[str]
    is_method: bool

    @property
    def callable_params(self) -> List[str]:
        """Parameters as seen by a caller (``self``/``cls`` dropped)."""
        if self.is_method and self.params:
            return self.params[1:]
        return self.params


@dataclass
class Program:
    """The whole-program index the rule passes share."""

    modules: List[ModuleInfo] = field(default_factory=list)
    #: simple function name -> all definitions carrying it.
    functions: Dict[str, List[FunctionInfo]] = field(
        default_factory=dict
    )
    #: ``module:NAME`` -> declaration line of a module-level mutable.
    module_mutables: Dict[str, Tuple[str, int]] = field(
        default_factory=dict
    )
    #: per-module import alias -> dotted module name.
    import_aliases: Dict[str, Dict[str, str]] = field(
        default_factory=dict
    )


def _collect_functions(
    info: ModuleInfo, program: Program
) -> None:
    """Index every def in ``info`` under its simple and qual names."""

    def visit(node: ast.AST, stack: List[str], in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                params = [a.arg for a in child.args.args]
                defaults = child.args.defaults
                none_defaults = {
                    params[len(params) - len(defaults) + i]
                    for i, default in enumerate(defaults)
                    if isinstance(default, ast.Constant)
                    and default.value is None
                }
                for kwarg, default in zip(
                    child.args.kwonlyargs, child.args.kw_defaults
                ):
                    if (
                        isinstance(default, ast.Constant)
                        and default.value is None
                    ):
                        none_defaults.add(kwarg.arg)
                qualname = ".".join(stack + [child.name])
                entry = FunctionInfo(
                    module=info.name,
                    path=info.path,
                    qualname=qualname,
                    node=child,
                    params=params
                    + [a.arg for a in child.args.kwonlyargs],
                    none_defaults=none_defaults,
                    is_method=in_class
                    and bool(params)
                    and params[0] in ("self", "cls"),
                )
                program.functions.setdefault(child.name, []).append(
                    entry
                )
                visit(child, stack + [child.name], in_class=False)
            elif isinstance(child, ast.ClassDef):
                visit(child, stack + [child.name], in_class=True)


    visit(info.tree, [], in_class=False)


def _collect_module_state(info: ModuleInfo, program: Program) -> None:
    """Record module-level mutables and import aliases."""
    aliases: Dict[str, str] = {}
    for node in info.tree.body:
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
        targets: List[ast.Name] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets = [
                t for t in node.targets if isinstance(t, ast.Name)
            ]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target]
            value = node.value
        if value is None:
            continue
        is_mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CONSTRUCTORS
        )
        if not is_mutable:
            continue
        for target in targets:
            if target.id == "__all__":
                continue
            program.module_mutables[f"{info.name}:{target.id}"] = (
                info.path,
                node.lineno,
            )
    program.import_aliases[info.name] = aliases


def build_program(
    paths: Sequence[Path], display_paths: Sequence[str]
) -> Program:
    """Parse ``paths`` into the shared whole-program index."""
    program = Program()
    for path, display in zip(paths, display_paths):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        info = ModuleInfo(
            name=module_name_for(path),
            path=display,
            tree=tree,
            source=source,
        )
        program.modules.append(info)
        _collect_functions(info, program)
        _collect_module_state(info, program)
    return program


# ----------------------------------------------------------------------
# Per-function scope model
# ----------------------------------------------------------------------
class _FunctionScope:
    """RNG-typed names and boundary calls of one function body."""

    def __init__(self, node: ast.AST):
        self.node = node
        self.rng_names: Set[str] = set()
        self._infer_rng_names()

    @staticmethod
    def _annotation_mentions_generator(annotation) -> bool:
        if annotation is None:
            return False
        try:
            text = ast.unparse(annotation)
        except Exception:  # pragma: no cover - exotic annotations
            return False
        return "Generator" in text

    @staticmethod
    def _is_rng_param(name: str) -> bool:
        return name == "rng" or name.endswith("_rng")

    @staticmethod
    def is_rng_attribute(node: ast.AST) -> bool:
        """``self.rng`` / ``spec._rng``-shaped attribute loads."""
        return isinstance(node, ast.Attribute) and (
            node.attr == "rng"
            or node.attr == "_rng"
            or node.attr.endswith("_rng")
        )

    def _infer_rng_names(self) -> None:
        args = self.node.args
        for arg in list(args.args) + list(args.kwonlyargs):
            if self._is_rng_param(
                arg.arg
            ) or self._annotation_mentions_generator(arg.annotation):
                self.rng_names.add(arg.arg)
        # Fixpoint over simple assignments so aliases propagate
        # (``g = rng`` / ``child = default_rng(s)``).
        changed = True
        while changed:
            changed = False
            for stmt in ast.walk(self.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                names = [
                    t.id
                    for t in stmt.targets
                    if isinstance(t, ast.Name)
                ]
                if not names:
                    continue
                if self.is_rng_value(stmt.value):
                    for name in names:
                        if name not in self.rng_names:
                            self.rng_names.add(name)
                            changed = True

    def is_rng_value(self, node: ast.AST) -> bool:
        """Whether an expression evaluates to an RNG object."""
        if isinstance(node, ast.Name):
            return node.id in self.rng_names
        if isinstance(node, ast.Attribute):
            return self.is_rng_attribute(node)
        if isinstance(node, ast.Call):
            chain = _dotted_chain(node.func)
            if chain is None:
                return False
            if chain[-1] in _RNG_CONSTRUCTORS:
                return True
            # ``rng.spawn(...)`` yields SeedSequences (sanctioned),
            # not generators; nothing else derives an RNG here.
            return False
        return False


def _pool_receiver(func: ast.AST) -> bool:
    """Whether ``<recv>.submit`` / ``<recv>.map`` targets a pool."""
    if not isinstance(func, ast.Attribute):
        return False
    receiver = func.value
    # Unwrap ``self.executor()``-style accessor calls.
    if isinstance(receiver, ast.Call):
        receiver = receiver.func
    chain = _dotted_chain(receiver)
    if chain is None:
        return False
    return any(_POOL_PATTERN.search(part) for part in chain)


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class ProgramAnalyzer:
    """Runs every interprocedural rule over a built :class:`Program`."""

    def __init__(self, program: Program):
        self.program = program
        self.findings: List[Finding] = []

    # -- helpers --------------------------------------------------------
    def _report(
        self,
        code: str,
        path: str,
        node: ast.AST,
        message: str,
    ) -> None:
        self.findings.append(
            Finding(
                code,
                Severity.ERROR,
                message,
                {
                    "path": path,
                    "line": node.lineno,
                    "column": node.col_offset,
                },
            )
        )

    def run(self) -> List[Finding]:
        """Execute all passes; findings sorted by (path, line)."""
        for info in self.program.modules:
            self._analyze_module(info)
        self._check_global_mutables()
        self.findings.sort(
            key=lambda f: (
                f.location["path"],
                f.location["line"],
                f.location["column"],
                f.code,
            )
        )
        return self.findings

    # -- per-module driver ----------------------------------------------
    def _analyze_module(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                scope = _FunctionScope(node)
                self._check_rng_default_none(info, node, scope)
                self._check_rng_closures(info, node, scope)
                self._check_pool_boundary(info, node, scope)
                self._check_persistence_writes(info, node)
            self._check_seed_entropy_node(info, node)

    # -- REP100 ---------------------------------------------------------
    def _check_rng_default_none(
        self, info: ModuleInfo, node: ast.AST, scope: _FunctionScope
    ) -> None:
        """``default_rng(param)`` with a None-default, unset caller."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            chain = _dotted_chain(call.func)
            if chain is None or chain[-1] != "default_rng":
                continue
            seed_args = list(call.args) + [
                kw.value for kw in call.keywords if kw.arg == "seed"
            ]
            for arg in seed_args:
                if not isinstance(arg, ast.Name):
                    continue
                owner = self._owning_function(node)
                if owner is None:
                    continue
                if arg.id not in owner.none_defaults:
                    continue
                site = self._unset_call_site(owner, arg.id)
                if site is None:
                    continue
                site_path, site_line = site
                self._report(
                    F.REP_RNG_DEFAULT_NONE,
                    info.path,
                    call,
                    f"default_rng({arg.id}) where {arg.id} defaults "
                    f"to None and {site_path}:{site_line} calls "
                    f"{owner.qualname}() without setting it; an "
                    f"unset caller draws OS entropy",
                )

    def _owning_function(
        self, node: ast.AST
    ) -> Optional[FunctionInfo]:
        name = getattr(node, "name", None)
        for candidate in self.program.functions.get(name, []):
            if candidate.node is node:
                return candidate
        return None

    def _unset_call_site(
        self, target: FunctionInfo, param: str
    ) -> Optional[Tuple[str, int]]:
        """An in-package call leaving ``param`` unbound, if any.

        Only unambiguous targets are cross-checked: when several
        functions share the simple name, a call cannot be attributed
        and the rule stays quiet rather than guessing.
        """
        simple = target.qualname.rsplit(".", 1)[-1]
        if len(self.program.functions.get(simple, [])) != 1:
            return None
        try:
            index = target.callable_params.index(param)
        except ValueError:
            return None
        for info in self.program.modules:
            for call in ast.walk(info.tree):
                if not isinstance(call, ast.Call):
                    continue
                chain = _dotted_chain(call.func)
                if chain is None or chain[-1] != simple:
                    continue
                if any(
                    isinstance(a, ast.Starred) for a in call.args
                ) or any(kw.arg is None for kw in call.keywords):
                    continue  # *args / **kwargs: assume bound
                if len(call.args) > index:
                    continue
                if any(kw.arg == param for kw in call.keywords):
                    continue
                return (info.path, call.lineno)
        return None

    # -- REP101 ---------------------------------------------------------
    def _check_rng_closures(
        self, info: ModuleInfo, node: ast.AST, scope: _FunctionScope
    ) -> None:
        if not scope.rng_names:
            return
        for child in ast.iter_child_nodes(node):
            self._walk_for_closures(info, child, scope, node)

    def _walk_for_closures(
        self,
        info: ModuleInfo,
        node: ast.AST,
        scope: _FunctionScope,
        owner: ast.AST,
    ) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            bound = {
                a.arg
                for a in list(node.args.args)
                + list(node.args.kwonlyargs)
            }
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.id in scope.rng_names
                    and inner.id not in bound
                ):
                    label = getattr(node, "name", "<lambda>")
                    self._report(
                        F.REP_RNG_CLOSURE,
                        info.path,
                        node,
                        f"{label} captures RNG {inner.id!r} from "
                        f"its enclosing scope; thread the generator "
                        f"(or a derived seed) as an argument",
                    )
                    return
            return
        for child in ast.iter_child_nodes(node):
            self._walk_for_closures(info, child, scope, owner)

    # -- REP102 / REP103 ------------------------------------------------
    def _check_pool_boundary(
        self, info: ModuleInfo, node: ast.AST, scope: _FunctionScope
    ) -> None:
        shipped: Set[str] = set()
        boundary_calls: List[ast.Call] = []
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in ("submit", "map")
                and _pool_receiver(call.func)
            ):
                boundary_calls.append(call)
                payload = call.args[1:] if call.args else []
                payload += [kw.value for kw in call.keywords]
                for arg in payload:
                    if scope.is_rng_value(arg):
                        name = (
                            arg.id
                            if isinstance(arg, ast.Name)
                            else ast.unparse(arg)
                        )
                        shipped.add(name)
                        self._report(
                            F.REP_RNG_ACROSS_POOL,
                            info.path,
                            call,
                            f"RNG {name!r} crosses the pool "
                            f"boundary via {call.func.attr}(); "
                            f"ship derived seeds instead",
                        )
            if (
                isinstance(call.func, ast.Name)
                and call.func.id == "ProcessPoolExecutor"
            ):
                for kw in call.keywords:
                    if kw.arg == "initargs" and any(
                        scope.is_rng_value(e)
                        for e in getattr(kw.value, "elts", [])
                    ):
                        self._report(
                            F.REP_RNG_ACROSS_POOL,
                            info.path,
                            call,
                            "RNG passed through ProcessPoolExecutor "
                            "initargs; ship derived seeds instead",
                        )
        if not shipped:
            return
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr not in _RNG_NON_CONSUMING
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id in shipped
            ):
                self._report(
                    F.REP_RNG_BOTH_SIDES,
                    info.path,
                    call,
                    f"RNG {call.func.value.id!r} is drawn from "
                    f"locally ({call.func.attr}) and also shipped "
                    f"to a worker; the stream is consumed on both "
                    f"sides of the fork",
                )

    # -- REP104 ---------------------------------------------------------
    def _check_seed_entropy_node(
        self, info: ModuleInfo, node: ast.AST
    ) -> None:
        context: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            names = [
                t.id
                for t in node.targets
                if isinstance(t, ast.Name)
            ]
            if any("seed" in name.lower() for name in names):
                context = node.value
        elif isinstance(node, ast.Call):
            chain = _dotted_chain(node.func)
            if chain is not None and chain[-1] in (
                "default_rng",
                "SeedSequence",
                "Generator",
                "PCG64",
                "Philox",
            ):
                context = node
        if context is None:
            return
        for inner in ast.walk(context):
            if not isinstance(inner, ast.Call):
                continue
            chain = _dotted_chain(inner.func)
            if chain is None:
                continue
            nondet = (
                chain in _NONDET_CHAINS
                or chain[0] in _NONDET_MODULES
                or (
                    len(chain) == 1
                    and chain[0] in _NONDET_BUILTINS
                )
            )
            if nondet:
                self._report(
                    F.REP_SEED_ENTROPY,
                    info.path,
                    inner,
                    f"seed derivation calls "
                    f"{'.'.join(chain)}(), a nondeterministic "
                    f"source; derive seeds from the experiment "
                    f"seed tree instead",
                )

    # -- REP110 ---------------------------------------------------------
    def _check_global_mutables(self) -> None:
        mutated: Dict[str, Tuple[str, int]] = {}
        for info in self.program.modules:
            aliases = self.program.import_aliases.get(info.name, {})
            for func in ast.walk(info.tree):
                if not isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                local = {
                    t.id
                    for stmt in ast.walk(func)
                    if isinstance(stmt, ast.Assign)
                    for t in stmt.targets
                    if isinstance(t, ast.Name)
                }
                for node in ast.walk(func):
                    key = self._mutation_key(
                        info, aliases, local, node
                    )
                    if key is not None and key not in mutated:
                        mutated[key] = (info.path, node.lineno)
        for key, (path, line) in sorted(mutated.items()):
            if key in OWNERSHIP_CONTRACTS:
                continue
            module, name = key.split(":", 1)
            decl = self.program.module_mutables[key]
            self.findings.append(
                Finding(
                    F.REP_GLOBAL_MUTABLE,
                    Severity.ERROR,
                    f"module-level mutable {name!r} of {module} is "
                    f"written from {path}:{line} without an "
                    f"ownership contract; register one in "
                    f"repro.analysis.dataflow.OWNERSHIP_CONTRACTS",
                    {
                        "path": decl[0],
                        "line": decl[1],
                        "column": 0,
                        "mutation": f"{path}:{line}",
                    },
                )
            )

    def _mutation_key(
        self,
        info: ModuleInfo,
        aliases: Dict[str, str],
        local_names: Set[str],
        node: ast.AST,
    ) -> Optional[str]:
        """``module:NAME`` if ``node`` writes a module-level mutable."""

        def resolve(base: ast.AST) -> Optional[str]:
            if isinstance(base, ast.Name):
                if base.id in local_names:
                    return None
                key = f"{info.name}:{base.id}"
                if key in self.program.module_mutables:
                    return key
                return None
            if isinstance(base, ast.Attribute) and isinstance(
                base.value, ast.Name
            ):
                module = aliases.get(base.value.id)
                if module is None:
                    return None
                key = f"{module}:{base.attr}"
                if key in self.program.module_mutables:
                    return key
            return None

        if isinstance(node, (ast.Subscript,)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            return resolve(node.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            return resolve(node.func.value)
        return None

    # -- REP111 / REP112 ------------------------------------------------
    def _check_persistence_writes(
        self, info: ModuleInfo, node: ast.AST
    ) -> None:
        scope_names = [getattr(node, "name", ""), info.name]
        persistent = any(
            _PERSISTENCE_PATTERN.search(name)
            for name in scope_names
            if name
        )
        has_replace = any(
            isinstance(call, ast.Call)
            and _dotted_chain(call.func) == ("os", "replace")
            for call in ast.walk(node)
        )
        if has_replace:
            return
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if persistent and self._is_truncating_open(call):
                self._report(
                    F.REP_NONATOMIC_WRITE,
                    info.path,
                    call,
                    f"{getattr(node, 'name', '?')}() truncates a "
                    f"durable file without os.replace; write to a "
                    f"sibling temp path and publish atomically",
                )
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign):
                continue
            if self._builds_tmp_path(stmt.value):
                self._report(
                    F.REP_TMP_NO_REPLACE,
                    info.path,
                    stmt,
                    "temp-suffixed path is written but this "
                    "function never calls os.replace; the artifact "
                    "is never atomically published",
                )

    @staticmethod
    def _is_truncating_open(call: ast.Call) -> bool:
        chain = _dotted_chain(call.func)
        if chain is None or chain[-1] != "open":
            return False
        mode: Optional[ast.AST] = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return False

        def truncates(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Constant) and isinstance(
                expr.value, str
            ):
                return "w" in expr.value
            if isinstance(expr, ast.IfExp):
                return truncates(expr.body) or truncates(
                    expr.orelse
                )
            return False

        return truncates(mode)

    @staticmethod
    def _builds_tmp_path(value: ast.AST) -> bool:
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                if node.value.endswith(_TMP_SUFFIXES):
                    return True
        return False


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_program(
    paths: Sequence[Path],
    display_paths: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every interprocedural rule over ``paths`` as one program.

    Suppressions (``# allow-lint: CODE reason``) are honored at each
    finding's reported line, exactly like the per-file linter.
    """
    if display_paths is None:
        display_paths = [str(p) for p in paths]
    program = build_program(paths, display_paths)
    findings = ProgramAnalyzer(program).run()
    _apply_suppressions(program, findings)
    return findings


def _apply_suppressions(
    program: Program, findings: List[Finding]
) -> None:
    from ..tools.lint import parse_suppressions

    by_path = {info.path: info for info in program.modules}
    cache: Dict[str, Dict[int, Tuple[Tuple[str, ...], str]]] = {}
    for finding in findings:
        info = by_path.get(finding.location["path"])
        if info is None:
            continue
        if info.path not in cache:
            cache[info.path] = parse_suppressions(info.source)
        entry = cache[info.path].get(finding.location["line"])
        if entry is not None and finding.code in entry[0]:
            finding.suppressed = True
            finding.suppression_reason = entry[1]


def ownership_contract(module: str, name: str) -> Optional[str]:
    """The registered ownership contract of ``module:name``, if any."""
    return OWNERSHIP_CONTRACTS.get(f"{module}:{name}")
