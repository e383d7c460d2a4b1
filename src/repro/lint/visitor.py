"""The AST pass behind ``repro lint``.

One :class:`DeterminismVisitor` walk per file emits raw findings (pragma
suppression is applied by the engine).  The pass is intentionally
syntactic — it proves the *absence of hazard patterns*, not program
properties — but it carries just enough local dataflow to be useful:

* import aliases are resolved (``import numpy as np`` makes
  ``np.random.seed`` a ``numpy.random.seed`` call);
* names assigned set-valued expressions inside the current scope are
  tracked, so ``keys = set(); ...; for k in keys:`` fires DET001 even
  though the loop iterable is a plain name;
* arguments of a direct ``sorted(...)`` wrapper are sanctioned — the
  sort makes the enumeration order irrelevant.

False positives are expected to be rare and are silenced with a
justified ``# repro: lint-disable=<code> -- why`` pragma (see
:mod:`repro.lint.pragmas`).
"""

from __future__ import annotations

import ast

from .findings import LintFinding
from .rules import rule_by_code

__all__ = ["DeterminismVisitor", "collect_findings"]

#: Module-global ``random`` entry points that read or mutate shared state.
_RANDOM_GLOBAL = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

#: ``numpy.random`` names that are fine: seeded generator construction.
_NP_RANDOM_OK = {
    "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
    "Philox", "RandomState", "SFC64", "SeedSequence", "default_rng",
}

_WALL_CLOCK = {"time.time", "time.time_ns"}
_FS_LISTING = {
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
    "os.walk", "pathlib.Path.iterdir",
}
_PATHLIKE_LISTING_ATTRS = {"iterdir", "rglob", "glob"}
_SET_RETURNING_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "defaultdict", "Counter",
    "OrderedDict", "deque",
}
#: Methods that mutate their receiver in place (DET006 kernel check).
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse", "fill",
}


def _finding(
    code: str, node: ast.AST, path: str, message: str, hint: str = ""
) -> LintFinding:
    rule = rule_by_code(code)
    return LintFinding(
        code=rule.code,
        rule=rule.name,
        severity=rule.default_severity,
        message=message,
        path=path,
        line=getattr(node, "lineno", 1),
        column=getattr(node, "col_offset", 0) + 1,
        hint=hint,
    )


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(stmt: ast.AST) -> set[str]:
    """Names a statement rebinds directly (``x = ...``, not ``x[i] = ...``).

    Subscript and attribute targets are excluded: they mutate an object
    without creating a binding, which matters when collecting a kernel's
    local names — ``_CACHE[k] = v`` must not make ``_CACHE`` look local.
    """
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    names: set[str] = set()
    for target in targets:
        elements = (
            target.elts
            if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        for element in elements:
            if isinstance(element, ast.Name):
                names.add(element.id)
    return names


def _is_chunk_kernel_decorator(dec: ast.expr) -> bool:
    """``@chunk_kernel(...)`` — bare or attribute-qualified."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id == "chunk_kernel"
    return isinstance(target, ast.Attribute) and target.attr == "chunk_kernel"


def _mutated_module_name(
    node: ast.AST, local: set[str], declared_global: set[str]
) -> str | None:
    """The non-local base name this node mutates, or None.

    Covers rebinding a ``global``-declared name, storing through a
    subscript/attribute of a non-local name, and in-place mutating
    method calls on a non-local name.
    """
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        for name in _bound_names(node):
            if name in declared_global:
                return name
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
        )
        for target in targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                if isinstance(element, (ast.Subscript, ast.Attribute)):
                    name = _root_name(element)
                    if name is not None and name not in local:
                        return name
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATING_METHODS
    ):
        name = _root_name(node.func.value)
        if name is not None and name not in local:
            return name
    return None


class DeterminismVisitor(ast.NodeVisitor):
    """Collects DET0xx / API0xx findings over one parsed module."""

    def __init__(self, path: str):
        self.path = path
        self.findings: list[LintFinding] = []
        #: local name -> dotted module/object path ("np" -> "numpy").
        self._aliases: dict[str, str] = {}
        #: stack of {name: is-set-valued} scopes (module scope at [0]).
        self._scopes: list[dict[str, bool]] = [{}]
        #: ids of nodes whose enumeration order a sorted() wrapper fixes.
        self._sanctioned: set[int] = set()
        #: nesting depth of function bodies (for API003 "public" check).
        self._func_depth = 0
        self._class_depth = 0

    # -- entry ---------------------------------------------------------
    def run(self, tree: ast.Module) -> list[LintFinding]:
        self._sanction_sorted_args(tree)
        self._check_kernel_mutations(tree)
        self.visit(tree)
        self.findings.sort(key=lambda f: (f.line, f.column, f.code))
        return self.findings

    def _sanction_sorted_args(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "len", "frozenset", "set", "sum")
                and node.args
            ):
                # sum() sanctions only the DET001 iteration check — its
                # own DET005 accumulation-order check still applies.
                arg = node.args[0]
                self._sanctioned.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    for gen in arg.generators:
                        self._sanctioned.add(id(gen.iter))

    # -- DET006: parallel chunk kernels must not touch module state ----
    def _check_kernel_mutations(self, tree: ast.Module) -> None:
        """Flag module-state mutation inside ``@chunk_kernel`` functions.

        The chunks of one dispatch run concurrently on pool threads,
        so a module-level write is a data race whose outcome depends on
        thread scheduling: a hidden channel between chunks that breaks
        the bit-identity of ``jobs=1`` and ``jobs=N``.  Purely
        syntactic: a decorator spelled ``chunk_kernel(...)`` (bare or
        attribute-qualified) marks the function; module-level names are
        the targets assigned at module scope.
        """
        module_names = {
            name
            for stmt in tree.body
            for name in _bound_names(stmt)
        }
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not any(_is_chunk_kernel_decorator(d) for d in node.decorator_list):
                continue
            self._check_one_kernel(node, module_names)

    def _check_one_kernel(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        module_names: set[str],
    ) -> None:
        args = fn.args
        local = {
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        }
        if args.vararg is not None:
            local.add(args.vararg.arg)
        if args.kwarg is not None:
            local.add(args.kwarg.arg)
        declared_global: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for name in _bound_names(node):
                    if name not in declared_global:
                        local.add(name)
        for node in ast.walk(fn):
            name = _mutated_module_name(node, local, declared_global)
            if name is not None and (
                name in module_names or name in declared_global
            ):
                self.findings.append(
                    _finding(
                        "DET006",
                        node,
                        self.path,
                        f"parallel chunk kernel {fn.name}() mutates "
                        f"module-level state {name!r}",
                        hint=(
                            "chunks run concurrently on pool threads; "
                            "write only through the declared output "
                            "views"
                        ),
                    )
                )

    # -- helpers -------------------------------------------------------
    def _dotted(self, node: ast.AST) -> str | None:
        """The fully qualified dotted path of a Name/Attribute chain."""
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

    def _lookup_set(self, name: str) -> bool:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return False

    def _mark(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self._scopes[-1][target.id] = is_set

    def _is_keysish(self, node: ast.AST) -> bool:
        """A ``<expr>.keys()`` call (set-like view in unions)."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
        )

    def _is_setish(self, node: ast.AST) -> bool:
        """Syntactically set-valued (hash-ordered) expression?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._lookup_set(node.id)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                return node.func.id in ("set", "frozenset")
            if isinstance(node.func, ast.Attribute):
                return (
                    node.func.attr in _SET_RETURNING_METHODS
                    and self._is_setish(node.func.value)
                )
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left_setlike = self._is_setish(node.left) or self._is_keysish(
                node.left
            )
            right_setlike = self._is_setish(node.right) or self._is_keysish(
                node.right
            )
            return left_setlike and right_setlike
        return False

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- assignment tracking ------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_setish(node.value)
        for target in node.targets:
            self._mark(target, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = (
            self._is_setish(node.value) if node.value is not None else False
        )
        ann = node.annotation
        base = ann.value if isinstance(ann, ast.Subscript) else ann
        if isinstance(base, ast.Name) and base.id in ("set", "frozenset"):
            is_set = True
        self._mark(node.target, is_set)
        self.generic_visit(node)

    # -- iteration contexts -------------------------------------------
    def _check_iteration(self, iterable: ast.expr, what: str) -> None:
        if id(iterable) in self._sanctioned:
            return
        if self._is_setish(iterable):
            self.findings.append(
                _finding(
                    "DET001",
                    iterable,
                    self.path,
                    f"{what} iterates a set in PYTHONHASHSEED order",
                    hint="iterate sorted(...) instead",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "for loop")
        # The loop target shadows any tracked set of the same name.
        self._mark(node.target, False)
        self.generic_visit(node)

    def _visit_comp(
        self, node: ast.ListComp | ast.DictComp | ast.GeneratorExp, what: str
    ) -> None:
        for gen in node.generators:
            if id(gen.iter) not in self._sanctioned and self._is_setish(
                gen.iter
            ):
                self.findings.append(
                    _finding(
                        "DET001",
                        gen.iter,
                        self.path,
                        f"{what} iterates a set in PYTHONHASHSEED order",
                        hint="iterate sorted(...) instead",
                    )
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # A generator fed straight into sorted()/set() was sanctioned.
        self._visit_comp(node, "generator expression")

    # SetComp deliberately unchecked: a set built from a set stays
    # unordered, so the iteration order cannot leak into results.

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)

        # DET003: process-global RNG state.
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _RANDOM_GLOBAL
            ):
                self.findings.append(
                    _finding(
                        "DET003",
                        node,
                        self.path,
                        f"call to global RNG {dotted}()",
                        hint="draw from a seeded random.Random instance",
                    )
                )
            elif (
                dotted.startswith("numpy.random.")
                and parts[-1] not in _NP_RANDOM_OK
            ):
                self.findings.append(
                    _finding(
                        "DET003",
                        node,
                        self.path,
                        f"call into numpy's global RNG ({dotted}())",
                        hint="use numpy.random.default_rng(seed)",
                    )
                )
            # DET004: wall clock.
            if dotted in _WALL_CLOCK or (
                "datetime" in parts[:-1] and parts[-1] in ("now", "utcnow", "today")
            ) or dotted in ("datetime.date.today",):
                self.findings.append(
                    _finding(
                        "DET004",
                        node,
                        self.path,
                        f"wall-clock read {dotted}()",
                        hint=(
                            "results must not depend on when they were "
                            "computed; time.monotonic/perf_counter are "
                            "fine for latency metrics"
                        ),
                    )
                )
            # DET002: filesystem enumeration order.
            if dotted in _FS_LISTING and id(node) not in self._sanctioned:
                self.findings.append(
                    _finding(
                        "DET002",
                        node,
                        self.path,
                        f"unsorted filesystem listing {dotted}()",
                        hint="wrap the call in sorted()",
                    )
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _PATHLIKE_LISTING_ATTRS
            and dotted not in _FS_LISTING
            and id(node) not in self._sanctioned
        ):
            self.findings.append(
                _finding(
                    "DET002",
                    node,
                    self.path,
                    f"unsorted filesystem listing .{node.func.attr}()",
                    hint="wrap the call in sorted()",
                )
            )

        # DET005 / DET001 on builtin consumers of set-valued arguments.
        if isinstance(node.func, ast.Name) and node.args:
            first = node.args[0]
            target = (
                first.generators[0].iter
                if isinstance(first, ast.GeneratorExp) and first.generators
                else first
            )
            if node.func.id == "sum" and self._is_setish(target):
                self.findings.append(
                    _finding(
                        "DET005",
                        node,
                        self.path,
                        "sum() over a set accumulates floats in "
                        "PYTHONHASHSEED order",
                        hint="sum(sorted(...)) fixes the rounding order",
                    )
                )
            elif node.func.id in ("list", "tuple") and self._is_setish(first):
                self.findings.append(
                    _finding(
                        "DET001",
                        node,
                        self.path,
                        f"{node.func.id}() materializes a set in "
                        "PYTHONHASHSEED order",
                        hint=f"use {node.func.id}(sorted(...))",
                    )
                )
        self.generic_visit(node)

    # -- functions: API001 / API003 / scoping -------------------------
    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            )
            if mutable:
                self.findings.append(
                    _finding(
                        "API001",
                        default,
                        self.path,
                        f"mutable default argument in {node.name}()",
                        hint="default to None and construct in the body",
                    )
                )

        is_public = (
            not node.name.startswith("_")
            and self._func_depth == 0
        )
        if is_public:
            all_args = args.posonlyargs + args.args + args.kwonlyargs
            skip_first = self._class_depth > 0 and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            if skip_first and all_args:
                all_args = all_args[1:]
            missing = [a.arg for a in all_args if a.annotation is None]
            if args.vararg is not None and args.vararg.annotation is None:
                missing.append("*" + args.vararg.arg)
            if args.kwarg is not None and args.kwarg.annotation is None:
                missing.append("**" + args.kwarg.arg)
            if missing or node.returns is None:
                what = (
                    f"parameters {', '.join(missing)}" if missing else ""
                )
                if node.returns is None:
                    what += (" and " if what else "") + "the return type"
                self.findings.append(
                    _finding(
                        "API003",
                        node,
                        self.path,
                        f"public function {node.name}() is missing "
                        f"annotations on {what}",
                        hint="annotate fully for the mypy --strict surface",
                    )
                )

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_function(node)
        self._func_depth += 1
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()
        self._func_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        saved, self._func_depth = self._func_depth, 0
        self.generic_visit(node)
        self._func_depth = saved
        self._class_depth -= 1

    # -- exception handlers: API002 -----------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None
        if node.type is not None:
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for t in types:
                if isinstance(t, ast.Name) and t.id in (
                    "Exception", "BaseException"
                ):
                    broad = True
        if broad:
            reraises = any(
                isinstance(n, ast.Raise)
                for stmt in node.body
                for n in ast.walk(stmt)
            )
            if not reraises:
                label = (
                    "bare except:" if node.type is None
                    else "except over Exception/BaseException"
                )
                self.findings.append(
                    _finding(
                        "API002",
                        node,
                        self.path,
                        f"{label} swallows all errors without re-raising",
                        hint=(
                            "catch the specific exception types, or "
                            "re-raise after annotating"
                        ),
                    )
                )
        self.generic_visit(node)


def collect_findings(source: str, path: str) -> list[LintFinding]:
    """Parse ``source`` and run the visitor (pragmas NOT yet applied)."""
    tree = ast.parse(source, filename=path)
    return DeterminismVisitor(path).run(tree)
