"""The repo-specific determinism rules.

Each rule encodes one way the reproduction's correctness argument has
been observed (or is known from the literature) to break: the paper's
DCC schedule is only well-defined if every node computes the *same*
verdicts from the same k-hop view, so unseeded randomness, unordered
iteration feeding order-sensitive sinks, and wall clock inside
deterministic paths are all reproduction bugs even when no test catches
them.

The set-iteration rule carries a small flow analysis: an expression is
*set-typed* if it is syntactically a set (literal, comprehension,
``set()``/``frozenset()`` call, set algebra), a name or ``self``
attribute assigned such an expression, a parameter annotated ``Set`` /
``FrozenSet``, a subscript into a ``Dict[..., Set[...]]`` attribute, or
a call to one of this repo's known set-returning APIs (``vertex_set``,
``edge_set``, ``k_hop_neighborhood``, ``punctured_neighborhood``,
``ball``).  Only iterations whose *consumer* is ordering-sensitive are
flagged — building another set, counting, or ``sorted()`` are all fine.

``dict`` iteration is deliberately exempt: CPython dicts preserve
insertion order, so a dict built deterministically iterates
deterministically; sets make no such promise across platforms or hash
seeds.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.checks.engine import Finding, ModuleContext, Rule
from repro.checks.locality import _bound_node_names

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> full dotted path, from every import in the module."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted path of a call target, via the import map."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    full_head = imports.get(head, head)
    return f"{full_head}.{rest}" if rest else full_head


def _snippet(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on py>=3.9
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ----------------------------------------------------------------------
# REPRO101: unseeded RNG in library code
# ----------------------------------------------------------------------
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "vonmisesvariate", "triangular", "getrandbits", "seed",
    "paretovariate", "weibullvariate", "lognormvariate",
}


class UnseededRngRule(Rule):
    """``random.Random()`` without a seed / global-state ``random.*``.

    Library code must draw from an explicitly seeded generator object
    (``random.Random(seed)``) that the caller can plumb a seed into;
    the process-global RNG makes every run — and every *node* of the
    distributed protocol — diverge.  The numpy analogue is REPRO109.
    """

    rule_id = "REPRO101"
    name = "unseeded-rng"
    summary = "unseeded or process-global RNG in library code"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, imports)
            if full is None:
                continue
            if full == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node, "random.Random() without a seed argument"
                )
            elif full.startswith("random.") and full.split(".", 1)[1] in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    ctx,
                    node,
                    f"{full}() uses the process-global RNG; "
                    "draw from a seeded random.Random instance",
                )


# ----------------------------------------------------------------------
# REPRO109: unseeded numpy.random generators and legacy global draws
# ----------------------------------------------------------------------
#: ``numpy.random`` bit-generator classes (all take ``seed`` first).
_NUMPY_BIT_GENERATORS = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
#: Constructors whose first argument (or ``seed=``) is the seed.
_NUMPY_SEEDED_CONSTRUCTORS = (
    {"default_rng", "SeedSequence", "RandomState"} | _NUMPY_BIT_GENERATORS
)


def _unseeded_call(node: ast.Call) -> bool:
    """No seed argument at all, or an explicit ``None`` seed."""
    seed: Optional[ast.AST] = None
    if node.args:
        seed = node.args[0]
    else:
        for keyword in node.keywords:
            if keyword.arg == "seed":
                seed = keyword.value
                break
    if seed is None:
        return True
    return isinstance(seed, ast.Constant) and seed.value is None


class NumpyRngRule(Rule):
    """Unseeded ``numpy.random`` use, now that numpy is in the runtime.

    Numpy is in library code (wave-MIS propagation, coverage
    evaluation), so the REPRO101 argument applies to its RNG surface
    too — in all three shapes it comes in: ``default_rng()`` /
    ``SeedSequence()`` / bit generators without an explicit seed
    (``None`` counts — that is OS entropy), ``Generator(...)`` wrapping an unseeded bit generator,
    and the legacy module-level draws (``numpy.random.rand`` et al.),
    which mutate process-global state no worker can reproduce.
    ``numpy.random.seed`` is flagged with the latter: seeding the
    global RNG *is* hidden shared state, exactly what the scheduler's
    plumbed ``random.Random(seed)`` objects exist to avoid.
    """

    rule_id = "REPRO109"
    name = "unseeded-numpy-rng"
    summary = "unseeded numpy.random generator or legacy global draw"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, imports)
            if full is None or not full.startswith("numpy.random."):
                continue
            tail = full[len("numpy.random."):]
            if tail == "Generator":
                if not node.args:
                    yield self.finding(
                        ctx,
                        node,
                        "numpy.random.Generator() without a bit generator; "
                        "use numpy.random.default_rng(seed)",
                    )
                    continue
                source = node.args[0]
                if isinstance(source, ast.Call):
                    inner = _resolve(source.func, imports)
                    if (
                        inner is not None
                        and inner.startswith("numpy.random.")
                        and inner[len("numpy.random."):]
                        in _NUMPY_BIT_GENERATORS
                        and _unseeded_call(source)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"{_snippet(node)}: Generator over an unseeded "
                            "bit generator; pass an explicit seed",
                        )
            elif tail in _NUMPY_SEEDED_CONSTRUCTORS:
                if _unseeded_call(node):
                    yield self.finding(
                        ctx,
                        node,
                        f"{full}() without an explicit seed "
                        "(None draws OS entropy)",
                    )
            else:
                yield self.finding(
                    ctx,
                    node,
                    f"{full}() uses numpy's process-global RNG; "
                    "use numpy.random.default_rng(seed)",
                )


# ----------------------------------------------------------------------
# REPRO102: unordered set iteration into ordering-sensitive sinks
# ----------------------------------------------------------------------
_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
#: Repo APIs documented to return ``set`` / ``frozenset``.
_REPO_SET_METHODS = {
    "vertex_set", "edge_set", "k_hop_neighborhood", "punctured_neighborhood",
    "ball", "ball_ids", "neighbors",
}
_SET_ANNOTATION_NAMES = {
    "Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet",
}
_DICT_ANNOTATION_NAMES = {"Dict", "dict", "Mapping", "MutableMapping"}
#: Order-insensitive consumers: a comprehension/generator feeding these
#: cannot leak set order into the result.
_ORDER_INSENSITIVE_CALLS = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
}
_APPEND_LIKE = {"append", "extend", "insert", "appendleft", "extendleft"}
_ORDERING_FUNCS = {"insort", "insort_left", "insort_right", "heappush"}


def _annotation_kind(node: Optional[ast.AST]) -> Optional[str]:
    """``"set"`` / ``"dict_of_set"`` / ``None`` for a type annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Name) and node.id in _SET_ANNOTATION_NAMES:
        return "set"
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in _SET_ANNOTATION_NAMES:
                return "set"
            if base.id in _DICT_ANNOTATION_NAMES:
                sl = node.slice
                if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                    if _annotation_kind(sl.elts[1]) == "set":
                        return "dict_of_set"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_kind(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    return None


class _ClassAttrTypes:
    """Collect ``self.X`` attribute kinds across one class body.

    Annotated attribute assignments type directly; plain assignments
    (``self._keep = keep``) are typed through each method's local
    environment, so ``keep = set(vs); self._keep = keep`` resolves.
    """

    def __init__(self) -> None:
        self.attrs: Dict[str, str] = {}

    def visit(self, cls: ast.ClassDef) -> None:
        methods = [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Annotations first (they also seed the per-method environments).
        for node in ast.walk(cls):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    kind = _annotation_kind(node.annotation)
                    if kind:
                        self.attrs[target.attr] = kind
        for method in methods:
            local = _function_local_types(method, self.attrs)
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if _is_set_expr(node.value, local, self.attrs):
                            self.attrs.setdefault(target.attr, "set")


def _syntactic_set(node: ast.AST) -> bool:
    """Is this expression a set by syntax alone (no environment)?"""
    return _is_set_expr(node, {}, {})


def _is_set_expr(
    node: ast.AST, local_types: Dict[str, str], attr_types: Dict[str, str]
) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_METHODS | _REPO_SET_METHODS:
                return True
            # dict-of-set .pop(key) hands back the set value
            if (
                func.attr == "pop"
                and len(node.args) >= 1
                and _is_dict_of_set(func.value, local_types, attr_types)
            ):
                return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, local_types, attr_types) or _is_set_expr(
            node.right, local_types, attr_types
        )
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, local_types, attr_types) or _is_set_expr(
            node.orelse, local_types, attr_types
        )
    if isinstance(node, ast.Name):
        return local_types.get(node.id) == "set"
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return attr_types.get(node.attr) == "set"
        return False
    if isinstance(node, ast.Subscript):
        return _is_dict_of_set(node.value, local_types, attr_types)
    return False


def _is_dict_of_set(
    node: ast.AST, local_types: Dict[str, str], attr_types: Dict[str, str]
) -> bool:
    if isinstance(node, ast.Name):
        return local_types.get(node.id) == "dict_of_set"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return attr_types.get(node.attr) == "dict_of_set"
    return False


def _function_local_types(
    fn: ast.AST, attr_types: Dict[str, str]
) -> Dict[str, str]:
    """Name -> kind for parameters (by annotation) and local assignments."""
    local: Dict[str, str] = {}
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        )
        for arg in args:
            kind = _annotation_kind(arg.annotation)
            if kind:
                local[arg.arg] = kind
    # Two passes so order of definition vs. use does not matter; the
    # environment grows monotonically (set algebra of set names).
    for _ in range(2):
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, local, attr_types):
                        local.setdefault(target.id, "set")
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                kind = _annotation_kind(node.annotation)
                if kind:
                    local[node.target.id] = kind
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                # ``s |= other`` marks s as a set
                if isinstance(node.op, (ast.BitOr, ast.BitAnd)) and _is_set_expr(
                    node.value, local, attr_types
                ):
                    local.setdefault(node.target.id, "set")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                # ``for k, row in d.items()`` / ``for row in d.values()``
                # over a Dict[..., Set[...]] bind set-typed loop vars.
                it = node.iter
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and _is_dict_of_set(it.func.value, local, attr_types)
                ):
                    if (
                        it.func.attr == "items"
                        and isinstance(node.target, ast.Tuple)
                        and len(node.target.elts) == 2
                        and isinstance(node.target.elts[1], ast.Name)
                    ):
                        local.setdefault(node.target.elts[1].id, "set")
                    elif it.func.attr == "values" and isinstance(
                        node.target, ast.Name
                    ):
                        local.setdefault(node.target.id, "set")
    return local


def _body_has_order_sink(body: Sequence[ast.stmt]) -> Optional[str]:
    """Name of the first ordering-sensitive effect in a loop body."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yield"
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _APPEND_LIKE:
                    return func.attr
                if isinstance(func, ast.Name) and func.id in _ORDERING_FUNCS:
                    return func.id
    return None


class SetIterationOrderRule(Rule):
    """Unordered set iteration flowing into an ordering-sensitive sink.

    Set iteration order is a function of the hash seed, the platform and
    the insertion/deletion history; when it feeds an ordered result
    (a list, a yield stream, an MIS draw, a deletion order) the output
    stops being a pure function of the graph.  Wrap the iterable in
    ``sorted(...)`` or restructure so the consumer is order-free.
    """

    rule_id = "REPRO102"
    name = "set-iteration-order"
    summary = "set iteration feeding an ordering-sensitive sink"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Parent map over the whole module: comprehension-consumer
        # detection and enclosing-class lookup both need it.
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        # Pass 1: class attribute kinds, per class.
        class_attrs: Dict[ast.ClassDef, Dict[str, str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                collector = _ClassAttrTypes()
                collector.visit(node)
                class_attrs[node] = collector.attrs
        # Pass 2: each scope is analysed with its own environment —
        # module statements with an empty one, every function with its
        # local inference plus the nearest enclosing class's attributes.
        yield from self._scan(ctx, ctx.tree, {}, {}, parents)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                attrs = self._enclosing_attrs(node, parents, class_attrs)
                local = _function_local_types(node, attrs)
                yield from self._scan(ctx, node, local, attrs, parents)

    @staticmethod
    def _enclosing_attrs(
        node: ast.AST,
        parents: Dict[ast.AST, ast.AST],
        class_attrs: Dict[ast.ClassDef, Dict[str, str]],
    ) -> Dict[str, str]:
        up = parents.get(node)
        while up is not None:
            if isinstance(up, ast.ClassDef):
                return class_attrs.get(up, {})
            up = parents.get(up)
        return {}

    def _scan(
        self,
        ctx: ModuleContext,
        scope: ast.AST,
        local_types: Dict[str, str],
        attr_types: Dict[str, str],
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        """DFS of one scope, pruning nested function/class subtrees."""
        stack: List[ast.AST] = [scope]
        while stack:
            node = stack.pop()
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from self._check_node(ctx, node, local_types, attr_types, parents)
            stack.extend(ast.iter_child_nodes(node))

    def _check_node(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        local_types: Dict[str, str],
        attr_types: Dict[str, str],
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        is_set = lambda expr: _is_set_expr(expr, local_types, attr_types)  # noqa: E731
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple", "enumerate")
                and len(node.args) == 1
                and is_set(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{func.id}() materialises unordered set "
                    f"`{_snippet(node.args[0])}` into an ordered sequence; "
                    "wrap it in sorted(...)",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)) and is_set(node.iter):
            sink = _body_has_order_sink(node.body)
            if sink is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"iteration over set `{_snippet(node.iter)}` feeds "
                    f"ordering-sensitive sink `{sink}`; iterate "
                    "sorted(...) instead",
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if any(is_set(gen.iter) for gen in node.generators):
                parent = parents.get(node)
                if (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_INSENSITIVE_CALLS
                ):
                    return
                if isinstance(parent, ast.Call) and isinstance(
                    parent.func, ast.Attribute
                ) and parent.func.attr in _SET_METHODS | {"isdisjoint", "update",
                                                          "issubset", "issuperset"}:
                    return
                kind = "list" if isinstance(node, ast.ListComp) else "generator"
                iter_src = next(
                    _snippet(g.iter) for g in node.generators if is_set(g.iter)
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} comprehension over set `{iter_src}` leaks set "
                    "order into an ordered result; iterate sorted(...) or "
                    "feed an order-free consumer",
                )


# ----------------------------------------------------------------------
# REPRO103: wall clock outside the observability layer
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    """``time.time()`` / ``datetime.now()`` outside ``repro/obs``.

    Wall-clock reads belong to the observability layer, whose exports
    mark them volatile and strip them before determinism comparisons.
    (``perf_counter`` / ``process_time`` are *allowed* everywhere: they
    are interval timers that only ever feed volatile metrics.)
    """

    rule_id = "REPRO103"
    name = "wall-clock"
    summary = "wall-clock call outside the obs layer"
    allowed_path_parts: Tuple[str, ...] = ("repro/obs/", "repro/checks/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(part in ctx.rel_path for part in self.allowed_path_parts):
            return
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, imports)
            if full in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{full}() in a deterministic path; route timing "
                    "through repro.obs (volatile metrics) instead",
                )


# ----------------------------------------------------------------------
# REPRO104: layering contract (kernel must stay below obs)
# ----------------------------------------------------------------------
#: (path substring, forbidden import prefix, why)
_LAYER_CONTRACTS: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro/cycles/",
        "repro.obs",
        "the kernel is observed through a duck-typed tracer attribute; an "
        "obs import would close the obs -> viz -> graph -> kernel cycle",
    ),
    (
        "repro/network/",
        "repro.obs",
        "graph primitives sit below the observability layer",
    ),
    (
        "repro/checks/sanitizer",
        "repro.topology",
        "the topology engine imports the sanitizer; importing it back "
        "would create an import cycle",
    ),
)


class LayeringRule(Rule):
    """Forbidden cross-layer imports (module-level *and* lazy)."""

    rule_id = "REPRO104"
    name = "layering"
    summary = "import that violates the layering contract"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        contracts = [
            (prefix, why)
            for part, prefix, why in _LAYER_CONTRACTS
            if part in ctx.rel_path
        ]
        if not contracts:
            return
        for node in ast.walk(ctx.tree):
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                for prefix, why in contracts:
                    if module == prefix or module.startswith(prefix + "."):
                        yield self.finding(
                            ctx, node, f"import of {module} is forbidden here: {why}"
                        )


# ----------------------------------------------------------------------
# REPRO105: mutable default arguments
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """``def f(x=[])`` — shared mutable state across calls."""

    rule_id = "REPRO105"
    name = "mutable-default"
    summary = "mutable default argument"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.SetComp,
                                        ast.ListComp, ast.DictComp)):
                    bad = True
                elif isinstance(default, ast.Call) and isinstance(
                    default.func, ast.Name
                ) and default.func.id in ("list", "dict", "set", "bytearray"):
                    bad = True
                else:
                    bad = False
                if bad:
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default `{_snippet(default)}` in {name}(); "
                        "use None and construct inside",
                    )


# ----------------------------------------------------------------------
# REPRO106: bare except
# ----------------------------------------------------------------------
class BareExceptRule(Rule):
    """``except:`` swallows SystemExit/KeyboardInterrupt and real bugs."""

    rule_id = "REPRO106"
    name = "bare-except"
    summary = "bare except clause"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node, "bare `except:`; catch a specific exception type"
                )


# ----------------------------------------------------------------------
# REPRO107: float accumulation inside mergeable metrics
# ----------------------------------------------------------------------
_MERGE_METHOD_NAMES = {"merge", "merge_payload", "__iadd__", "__add__"}


class FloatMergeRule(Rule):
    """Division / averaging inside a ``merge`` method.

    A merge that averages (``(a + b) / 2``) is not associative:
    ``merge(a, merge(b, c)) != merge(merge(a, b), c)``.  Mergeable
    metrics must accumulate totals and counts and derive means at export
    time only.
    """

    rule_id = "REPRO107"
    name = "float-merge"
    summary = "non-associative float arithmetic inside a merge method"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name not in _MERGE_METHOD_NAMES:
                    continue
                for node in ast.walk(item):
                    if isinstance(node, ast.BinOp) and isinstance(
                        node.op, (ast.Div, ast.FloorDiv)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"division inside {cls.name}.{item.name}(); "
                            "merged means break associativity — merge "
                            "totals and counts, derive means at export",
                        )
                    elif isinstance(node, ast.AugAssign) and isinstance(
                        node.op, (ast.Div, ast.FloorDiv)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"in-place division inside {cls.name}.{item.name}(); "
                            "merged means break associativity",
                        )


# ----------------------------------------------------------------------
# REPRO108: seed plumb-through on public entry points
# ----------------------------------------------------------------------
class SeedPlumbingRule(Rule):
    """Optional ``rng=None`` without a ``seed`` fallback parameter.

    An entry point that *optionally* takes an RNG claims to be
    reproducible by default; without a ``seed`` parameter the default
    path has nothing deterministic to fall back on (or hardcodes it).
    Required ``rng`` parameters are fine — determinism is then the
    caller's explicit job.
    """

    rule_id = "REPRO108"
    name = "seed-plumbing"
    summary = "optional rng parameter without a seed parameter"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = list(node.args.posonlyargs) + list(node.args.args)
            names = [a.arg for a in args] + [a.arg for a in node.args.kwonlyargs]
            if "rng" not in names or "seed" in names:
                continue
            # Is rng optional (defaulted to None)?
            defaults = node.args.defaults
            defaulted = args[len(args) - len(defaults):] if defaults else []
            rng_optional = any(
                a.arg == "rng"
                and isinstance(d, ast.Constant)
                and d.value is None
                for a, d in zip(defaulted, defaults)
            )
            for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if a.arg == "rng" and isinstance(d, ast.Constant) and d.value is None:
                    rng_optional = True
            if rng_optional:
                yield self.finding(
                    ctx,
                    node,
                    f"{node.name}() takes rng=None without a seed parameter; "
                    "add seed=... so the default path is reproducible",
                )


# ----------------------------------------------------------------------
# REPRO113: shard-local code must stay inside its partition
# ----------------------------------------------------------------------
#: The module holding shard-*local* protocol logic.  Everything else in
#: ``repro/shard/`` (plan, halo, scheduler) *is* the coordinator side.
_SHARD_LOCAL_SUFFIX = "repro/shard/runtime.py"

#: Coordinator-scope vocabulary.  A shard sees only its partition blob
#: (owned + halo vertices and their induced edges); any of these names
#: appearing in shard-local code means deployment-global state leaked
#: across the halo-exchange boundary.
_COORDINATOR_STATE_NAMES = {
    "plan", "owner_of", "subscribers", "specs", "work",
    "full_graph", "global_graph", "coordinator", "sim",
}

#: Modules a shard-local file must not import: they hold (or can reach)
#: the whole deployment, which would let a shard compute verdicts from
#: vertices outside its owned+halo range.
_COORDINATOR_MODULE_PREFIXES = (
    "repro.shard.plan",
    "repro.shard.halo",
    "repro.shard.scheduler",
    "repro.core",
    "repro.parallel",
    "repro.analysis",
)


class ShardLocalityRule(Rule):
    """Shard-local code reaching for coordinator-scope state.

    The sharded scheduler's correctness argument (DESIGN.md section 9)
    rests on each shard computing verdicts and MIS votes from its own
    partition only — the owned region plus the ``ceil(tau/2)``-hop halo
    the coordinator ships to it.  This is the same locality discipline
    REPRO210 enforces for the per-node runtime, lifted to regions: the
    rule reuses that flow machinery (:func:`repro.checks.locality.
    _bound_node_names`) to tell a coordinator name that was *threaded
    in* as a parameter or loop binding from one that leaked in as a
    global, and reports accordingly.
    """

    rule_id = "REPRO113"
    name = "shard-locality"
    summary = "shard-local code reaches for coordinator-scope state"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.rel_path.endswith(_SHARD_LOCAL_SUFFIX):
            return
        bound = _bound_node_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                for prefix in _COORDINATOR_MODULE_PREFIXES:
                    if module == prefix or module.startswith(prefix + "."):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {module} in shard-local code; the "
                            "coordinator side of the halo exchange must "
                            "stay out of the shard's reach",
                        )
            if isinstance(node, ast.Attribute):
                if node.attr in _COORDINATOR_STATE_NAMES:
                    yield self.finding(
                        ctx,
                        node,
                        f"attribute `.{node.attr}` is coordinator-scope "
                        "state; a shard may only read its own partition "
                        "(owned + halo rows shipped by the exchange)",
                    )
            elif isinstance(node, ast.Name) and node.id in _COORDINATOR_STATE_NAMES:
                how = (
                    "threaded in as a local binding"
                    if node.id in bound
                    else "read as a global"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"coordinator-scope name `{node.id}` {how} in "
                    "shard-local code; verdicts must derive from the "
                    "partition blob alone",
                )


# ----------------------------------------------------------------------
# REPRO114: hot-path trace calls must be guarded
# ----------------------------------------------------------------------
#: modules where tracing must cost one attribute probe when disabled
_HOT_PATH_PARTS: Tuple[str, ...] = ("repro/cycles/", "repro/topology/")
_HOT_PATH_SUFFIXES: Tuple[str, ...] = ("repro/shard/runtime.py",)
_TRACE_METHODS = frozenset({"trace", "add_span"})


class TraceGuardRule(Rule):
    """Unguarded tracer calls in hot-path modules.

    The null-tracer contract (DESIGN.md section 6) lets coarse sites —
    one span per round, per figure, per sweep — call ``tracer.trace()``
    unconditionally, but in the per-vertex/per-wave hot paths even the
    no-op context manager's allocation shows up.  There, every
    ``.trace()`` / ``.add_span()`` must sit behind a cheap guard.  Two
    shapes are accepted:

    * an **ancestor guard** — the call is (transitively) inside the
      positive branch of an ``if`` whose test probes ``.enabled`` or
      compares against ``NULL_TRACER``
      (``if tracer.enabled: with tracer.trace(...)``), and
    * an **early-return guard** — a preceding top-level statement of
      the enclosing function tests the same thing and leaves
      (``trc = self.tracer``, ``if trc is None or not trc.enabled:
      return self._impl(...)``, then ``with trc.trace(...)``).

    The rule keys on the receiver name (``tracer`` / ``trc`` /
    ``*.tracer``), so unrelated ``.trace()`` methods stay out of scope.
    """

    rule_id = "REPRO114"
    name = "trace-guard"
    summary = "unguarded trace call in a hot-path module"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        hot = any(part in ctx.rel_path for part in _HOT_PATH_PARTS) or (
            ctx.rel_path.endswith(_HOT_PATH_SUFFIXES)
        )
        if not hot:
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACE_METHODS
            ):
                continue
            receiver = _dotted(node.func.value) or ""
            tail = receiver.rsplit(".", 1)[-1]
            if tail not in ("tracer", "trc"):
                continue
            if self._guarded(node, parents):
                continue
            yield self.finding(
                ctx,
                node,
                f"`{_snippet(node.func)}()` in a hot-path module without a "
                "`tracer.enabled` / NULL_TRACER guard; disabled runs must "
                "pay one attribute probe, not a no-op span",
            )

    @staticmethod
    def _is_guard_test(test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "NULL_TRACER":
                return True
        return False

    @staticmethod
    def _leaves(stmt: ast.If) -> bool:
        return bool(stmt.body) and isinstance(
            stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    def _guarded(self, call: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
        node: ast.AST = call
        while node in parents:
            parent = parents[node]
            if (
                isinstance(parent, ast.If)
                and any(node is stmt for stmt in parent.body)
                and self._is_guard_test(parent.test)
            ):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Early-return guard: a preceding top-level statement of
                # this function that probes the tracer and leaves.
                for stmt in parent.body:
                    if stmt.lineno >= call.lineno:
                        break
                    if (
                        isinstance(stmt, ast.If)
                        and self._is_guard_test(stmt.test)
                        and self._leaves(stmt)
                    ):
                        return True
                return False
            node = parent
        return False


DEFAULT_RULES: Tuple[Rule, ...] = (
    UnseededRngRule(),
    NumpyRngRule(),
    SetIterationOrderRule(),
    WallClockRule(),
    LayeringRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    FloatMergeRule(),
    SeedPlumbingRule(),
    ShardLocalityRule(),
    TraceGuardRule(),
)


def all_rules() -> List[Rule]:
    """Fresh instances of every default rule (rules are stateless)."""
    return [type(rule)() for rule in DEFAULT_RULES]
