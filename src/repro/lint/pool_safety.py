"""Pool-safety lint (SPB401-SPB404).

The parallel runner (:mod:`repro.analysis.runner`) rebuilds every job in
a worker process from its pickled :class:`~repro.analysis.runner.SimJob`
description; a payload that only *appears* picklable fails at submit
time — or worse, pickles by reference and silently captures state the
worker does not share.  These rules keep job construction statically
picklable, and keep process/shared-memory lifecycles inside the one
module that owns each of them:

========  ==========================================================
SPB401    a lambda in a SimJob/SimSpec construction or submitted to a
          pool (lambdas never pickle)
SPB402    a locally-defined (nested) function passed by reference into
          a job or pool submission (pickle resolves functions by
          qualified name, which nested functions do not have)
SPB403    an unpicklable payload in a job construction: an open file
          handle or a live generator expression
SPB404    a ``SharedMemory(create=True)`` outside
          :mod:`repro.runtime.shm` (or inside it without paired
          ``close()``/``unlink()`` cleanup on every exit path), or a
          raw ``ProcessPoolExecutor``/``Pool`` construction outside
          :mod:`repro.runtime.pool` — both leak OS resources the
          runtime plane exists to track
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .base import LintContext, Rule, register_rule
from .findings import Finding

_JOB_CONSTRUCTORS = {"SimJob", "SimSpec"}
_POOL_SUBMIT_METHODS = {"submit", "map", "imap", "imap_unordered", "apply_async"}
_POOL_SUBMIT_FUNCTIONS = {"run_jobs", "run_tasks"}

#: run_tasks/run_jobs keyword arguments that stay in the parent process
#: (the durability checkpoint hooks) and therefore never cross the
#: pickle boundary — callbacks and tokens here may be closures.
_PARENT_SIDE_KWARGS = {"on_result", "stop", "completed"}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_job_payload_call(node: ast.Call) -> bool:
    """A call whose arguments must be picklable by the pool."""
    name = _call_name(node)
    if name in _JOB_CONSTRUCTORS or name in _POOL_SUBMIT_FUNCTIONS:
        return True
    return isinstance(node.func, ast.Attribute) and name in _POOL_SUBMIT_METHODS


def _payload_nodes(node: ast.Call) -> Iterator[ast.AST]:
    parent_side = _call_name(node) in _POOL_SUBMIT_FUNCTIONS
    for arg in node.args:
        yield arg
    for keyword in node.keywords:
        if parent_side and keyword.arg in _PARENT_SIDE_KWARGS:
            continue
        yield keyword.value


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function's body."""
    nested: Set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(outer):
            if stmt is outer:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(stmt.name)
    return nested


@register_rule
class LambdaInJobRule(Rule):
    code = "SPB401"
    summary = (
        "lambda in a job construction or pool submission — lambdas never "
        "pickle, so the sweep dies at submit time"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_job_payload_call(node)):
                continue
            for payload in _payload_nodes(node):
                for inner in ast.walk(payload):
                    if isinstance(inner, ast.Lambda):
                        yield ctx.finding(
                            self,
                            inner,
                            f"lambda inside {_call_name(node)}(...): job "
                            "payloads cross a process boundary and lambdas "
                            "never pickle; use a module-level function",
                        )


@register_rule
class NestedFunctionInJobRule(Rule):
    code = "SPB402"
    summary = (
        "nested function passed by reference into a job/pool call — "
        "pickle resolves functions by qualified module name, which "
        "closures do not have"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        nested = _nested_function_names(ctx.tree)
        if not nested:
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_job_payload_call(node)):
                continue
            for payload in _payload_nodes(node):
                for inner in ast.walk(payload):
                    if (
                        isinstance(inner, ast.Name)
                        and inner.id in nested
                        and not self._is_called(inner, payload)
                    ):
                        yield ctx.finding(
                            self,
                            inner,
                            f"nested function {inner.id!r} passed by "
                            f"reference into {_call_name(node)}(...): it "
                            "cannot be pickled for a worker process; move "
                            "it to module level",
                        )

    @staticmethod
    def _is_called(name: ast.Name, payload: ast.AST) -> bool:
        """True when ``name`` appears only as the callee of a call."""
        for node in ast.walk(payload):
            if isinstance(node, ast.Call) and node.func is name:
                return True
        return False


@register_rule
class UnpicklablePayloadRule(Rule):
    code = "SPB403"
    summary = (
        "open file handle or live generator in a job payload — neither "
        "survives the pickle boundary to a worker"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and _is_job_payload_call(node)):
                continue
            for payload in _payload_nodes(node):
                for inner in ast.walk(payload):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "open"
                    ):
                        yield ctx.finding(
                            self,
                            inner,
                            f"open(...) handle inside {_call_name(node)}"
                            "(...): file objects do not pickle; pass the "
                            "path and open it in the worker",
                        )
                    elif isinstance(inner, ast.GeneratorExp):
                        yield ctx.finding(
                            self,
                            inner,
                            f"generator expression inside {_call_name(node)}"
                            "(...): generators do not pickle; materialize "
                            "a list/tuple first",
                        )


_SHM_OWNER_MODULE = "repro.runtime.shm"
_POOL_OWNER_MODULE = "repro.runtime.pool"
_RAW_POOL_CONSTRUCTORS = {"ProcessPoolExecutor", "Pool"}


def _is_shm_create(node: ast.Call) -> bool:
    """A ``SharedMemory(...)`` call that *creates* a named segment.

    Attaching to an existing segment (no ``create`` argument, or
    ``create=False``) owns nothing and is not flagged.  ``create`` is
    the second positional parameter of
    ``SharedMemory(name, create, size)``.
    """
    if _call_name(node) != "SharedMemory":
        return False
    for keyword in node.keywords:
        if keyword.arg == "create":
            return bool(
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    if len(node.args) >= 2:
        flag = node.args[1]
        return bool(isinstance(flag, ast.Constant) and flag.value is True)
    return False


def _enclosing_scope(tree: ast.Module, call: ast.Call) -> ast.AST:
    """The innermost function containing ``call``, or the module itself."""
    innermost: ast.AST = tree
    innermost_size = sum(1 for _ in ast.walk(tree))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        if call in nodes and len(nodes) < innermost_size:
            innermost, innermost_size = func, len(nodes)
    return innermost


def _has_paired_cleanup(scope: ast.AST) -> bool:
    """Whether ``scope`` has a try whose recovery closes *and* unlinks.

    The owner-side discipline (:mod:`repro.runtime.shm`): a created
    segment is either registered for exit-time cleanup or torn down in
    an ``except``/``finally`` arm referencing both ``.close`` and
    ``.unlink`` — anything less leaves a named ``/dev/shm`` file behind
    on the error path.
    """
    for node in ast.walk(scope):
        if not isinstance(node, ast.Try):
            continue
        recovery = list(node.finalbody)
        for handler in node.handlers:
            recovery.extend(handler.body)
        attrs = {
            inner.attr
            for stmt in recovery
            for inner in ast.walk(stmt)
            if isinstance(inner, ast.Attribute)
        }
        if {"close", "unlink"} <= attrs:
            return True
    return False


@register_rule
class ResourceLifecycleRule(Rule):
    code = "SPB404"
    summary = (
        "SharedMemory segment created outside repro.runtime.shm (or "
        "without paired close()/unlink() cleanup), or a raw process "
        "pool constructed outside repro.runtime.pool"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _RAW_POOL_CONSTRUCTORS:
                if ctx.module != _POOL_OWNER_MODULE:
                    yield ctx.finding(
                        self,
                        node,
                        f"raw {name}(...) outside repro.runtime.pool: "
                        "acquire the pool through get_shared_pool so "
                        "sweeps share the warm pool and its health "
                        "accounting",
                    )
            elif _is_shm_create(node):
                if ctx.module != _SHM_OWNER_MODULE:
                    yield ctx.finding(
                        self,
                        node,
                        "SharedMemory(create=True) outside "
                        "repro.runtime.shm: publish segments through the "
                        "shared trace registry so they are tracked and "
                        "unlinked at exit",
                    )
                elif not _has_paired_cleanup(
                    _enclosing_scope(ctx.tree, node)
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "SharedMemory(create=True) without a try whose "
                        "except/finally arm references both .close and "
                        ".unlink: the error path leaks a named /dev/shm "
                        "segment",
                    )
