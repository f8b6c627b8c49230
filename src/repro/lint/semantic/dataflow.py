"""Nondeterminism primitives, set-ness, and the taint dataflow.

This module holds the one table of nondeterminism primitives
(:func:`classify_call`) and the one set-ness inference (:func:`setlike`,
:func:`infer_set_locals`).  The per-file rules read them to flag a
primitive where it is called — SPB101/SPB102/SPB104, SPB501's RNG check,
SPB103 — and the taint analysis below reads them as its sources, so a
helper that wraps ``time.time()`` is caught where its value enters the
simulated machine.  The analysis has two levels:

1. **Intra-procedural**: each function body is lowered to a control-flow
   graph of basic blocks; a forward may-analysis propagates, per local
   name, the set of *taint elements* that may reach it (reaching
   definitions specialized to taint).  Taint elements carry provenance —
   which call site introduced them and, transitively, through which
   functions the nondeterminism travelled — so findings can print the
   whole laundering chain.

2. **Inter-procedural**: every function gets a :class:`Summary` (taint
   kinds its return value may carry, which parameters flow to the
   return, which taint kinds it writes into object/global state, which
   parameters it stores into state).  Summaries are propagated to a
   fixed point over the project call graph, so a source three helpers
   deep still surfaces at the simulation-scope call site.

Taint kinds mirror the per-file determinism family: ``wallclock``
(SPB102 / SPB701), ``rng`` (SPB101 / SPB702), ``env`` (SPB104 /
SPB703), and ``setorder`` (SPB103 / SPB704).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import CallGraph, FunctionScope
from .project import ProjectModel

Kind = str
WALLCLOCK = "wallclock"
RNG = "rng"
ENV = "env"
SETORDER = "setorder"

_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.now",
        "datetime.date.utcnow", "datetime.date.today",
    }
)
#: OS-entropy draws (``secrets.*`` too): random by design, no seed to pass
_ENTROPY = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom"})
#: ``numpy.random`` names that build explicitly seeded generators
_NUMPY_SAFE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "Philox", "PCG64"}
)


def reads_environ(
    node: ast.AST, dotted: Callable[[ast.AST], Optional[str]]
) -> bool:
    """Whether ``node`` names ``os.environ`` or an imported alias of it,
    resolving names with ``dotted`` (see
    :meth:`~.project.ModuleInfo.dotted`)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and dotted(node) == "os.environ"
    return isinstance(node, ast.Name) and dotted(node) == "os.environ"


def classify_call(dotted: str, call: ast.Call) -> Optional[Kind]:
    """The nondeterminism kind of ``call``, whose callee resolves to
    ``dotted`` (see :meth:`~.project.ModuleInfo.dotted`); None when the
    call is deterministic."""
    if dotted in _WALL_CLOCK:
        return WALLCLOCK
    if dotted == "os.getenv":
        return ENV
    if dotted in _ENTROPY or dotted.startswith("secrets."):
        return RNG
    if dotted.startswith("random."):
        # Only random.Random(seed) is seeded; every other call (even
        # random.seed) touches the process-shared global RNG.
        return None if dotted == "random.Random" and call.args else RNG
    if dotted.startswith(("numpy.random.", "np.random.")):
        fn = dotted.rpartition(".")[2]
        if fn == "default_rng":
            return None if call.args else RNG
        return None if fn in _NUMPY_SAFE else RNG
    return None


#: set methods whose result is again a set
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def setlike(node: ast.AST, set_locals: Container[str]) -> bool:
    """Whether ``node`` evaluates to a set: a set literal/comprehension, a
    ``set()``/``frozenset()`` call, a set operator or set method applied
    to a set, or a name in ``set_locals``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # &, |, ^, - stay set-typed when either side is a set
        # (flagging `a - b` only when one side is known-set).
        return setlike(node.left, set_locals) or setlike(node.right, set_locals)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and setlike(func.value, set_locals)
        )
    return False


def infer_set_locals(root: ast.AST) -> Set[str]:
    """Names assigned an unambiguous set expression anywhere under ``root``.

    Deliberately simple flow-insensitive inference: a name counts as
    set-typed only if *every* assignment to it is set-like, so
    rebinding to a list/sorted() result clears it.
    """
    set_named: Set[str] = set()
    other_named: Set[str] = set()
    for node in ast.walk(root):
        if not isinstance(node, ast.Assign):
            continue
        is_set = setlike(node.value, ())
        for target in node.targets:
            if isinstance(target, ast.Name):
                (set_named if is_set else other_named).add(target.id)
    return set_named - other_named


#: calls that strip the set-order kind (a sorted sequence is stable)
_SETORDER_SANITIZERS = {"sorted", "len", "sum", "min", "max", "any", "all"}


@dataclass(frozen=True)
class Witness:
    """Provenance of one taint kind: the laundering chain to its source.

    ``fns`` is the call chain *below* the function whose summary carries
    this witness (empty for a direct source); ``source_fn`` is the
    function whose body contains the primitive call; ``primitive`` is
    the nondeterministic API itself (``time.time``, ``os.getenv`` ...).
    """

    fns: Tuple[str, ...]
    source_fn: str
    source_module: str
    primitive: str

    def extend(self, through: str) -> "Witness":
        return Witness(
            fns=(through,) + self.fns,
            source_fn=self.source_fn,
            source_module=self.source_module,
            primitive=self.primitive,
        )

    def render(self) -> str:
        chain = self.fns
        if not chain or chain[-1] != self.source_fn:
            chain = chain + (self.source_fn,)
        primitive = (
            self.primitive
            if self.primitive.endswith(")")
            else f"{self.primitive}()"
        )
        return " -> ".join(chain + (primitive,))


# taint elements: ("src", kind, witness, origin_node) | ("param", index)
Elem = Tuple[Any, ...]


@dataclass
class Summary:
    """What calling a function does to determinism, seen from outside."""

    #: taint kinds the return value may carry (from internal sources)
    returns: Dict[Kind, Witness] = field(default_factory=dict)
    #: parameter indices whose taint flows into the return value
    param_to_return: Set[int] = field(default_factory=set)
    #: taint kinds written into attribute/subscript/global state
    state: Dict[Kind, Witness] = field(default_factory=dict)
    #: parameter indices stored into attribute/subscript/global state
    params_to_state: Set[int] = field(default_factory=set)

    def merge(self, other: "Summary") -> bool:
        """Union ``other`` in; True when anything new appeared.

        Witnesses are write-once per kind — the first chain discovered is
        kept — which keeps the fixed point monotone and terminating.
        """
        changed = False
        for kind, witness in other.returns.items():
            if kind not in self.returns:
                self.returns[kind] = witness
                changed = True
        for kind, witness in other.state.items():
            if kind not in self.state:
                self.state[kind] = witness
                changed = True
        if not other.param_to_return <= self.param_to_return:
            self.param_to_return |= other.param_to_return
            changed = True
        if not other.params_to_state <= self.params_to_state:
            self.params_to_state |= other.params_to_state
            changed = True
        return changed


@dataclass
class TaintEvent:
    """A tainted value reaching a sink inside one function."""

    sink: str  # "return" | "state" | "branch" | "effect" | "arg-state"
    node: ast.AST
    elems: FrozenSet[Elem]


# ----------------------------------------------------------------------
# CFG


class Block:
    __slots__ = ("bid", "items", "succs")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        self.items: List[ast.AST] = []
        self.succs: Set[int] = set()


class CFG:
    """Basic blocks over one function body."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def edge(self, src: Block, dst: Block) -> None:
        src.succs.add(dst.bid)


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Lower a statement list to basic blocks.

    Compound headers (``if``/``while`` tests, ``for`` iterables, ``with``
    items) are appended to the block that evaluates them; bodies branch
    off and rejoin.  ``try`` is approximated: handlers are reachable
    from the block entering the try, which over-approximates reachable
    state — safe for a may-analysis.
    """
    cfg = CFG()
    entry = cfg.new_block()
    _build(cfg, body, entry, loops=[], handlers=[])
    return cfg


def _build(
    cfg: CFG,
    stmts: Sequence[ast.stmt],
    block: Block,
    loops: List[Tuple[Block, Block]],
    handlers: List[Block],
) -> Optional[Block]:
    """Append ``stmts`` starting at ``block``; return the fall-through
    block, or None when control never falls through (return/raise/...)."""
    current: Optional[Block] = block
    for stmt in stmts:
        if current is None:  # unreachable code after return/raise
            current = cfg.new_block()
        if isinstance(stmt, ast.If):
            current.items.append(stmt)
            then_entry = cfg.new_block()
            cfg.edge(current, then_entry)
            then_exit = _build(cfg, stmt.body, then_entry, loops, handlers)
            if stmt.orelse:
                else_entry = cfg.new_block()
                cfg.edge(current, else_entry)
                else_exit = _build(
                    cfg, stmt.orelse, else_entry, loops, handlers
                )
            else:
                else_exit = current
            join = cfg.new_block()
            if then_exit is not None:
                cfg.edge(then_exit, join)
            if else_exit is not None:
                cfg.edge(else_exit, join)
            current = join
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.new_block()
            cfg.edge(current, header)
            header.items.append(stmt)
            exit_block = cfg.new_block()
            body_entry = cfg.new_block()
            cfg.edge(header, body_entry)
            cfg.edge(header, exit_block)
            loops.append((header, exit_block))
            body_exit = _build(cfg, stmt.body, body_entry, loops, handlers)
            loops.pop()
            if body_exit is not None:
                cfg.edge(body_exit, header)
            if stmt.orelse:
                else_exit = _build(cfg, stmt.orelse, exit_block, loops, handlers)
                current = else_exit if else_exit is not None else cfg.new_block()
            else:
                current = exit_block
        elif isinstance(stmt, ast.Try):
            join = cfg.new_block()
            handler_entries: List[Block] = []
            for handler in stmt.handlers:
                handler_entry = cfg.new_block()
                handler_entry.items.append(handler)
                handler_entries.append(handler_entry)
                cfg.edge(current, handler_entry)
                handler_exit = _build(
                    cfg, handler.body, handler_entry, loops, handlers
                )
                if handler_exit is not None:
                    cfg.edge(handler_exit, join)
            body_exit = _build(
                cfg, stmt.body, current, loops, handlers + handler_entries
            )
            if body_exit is not None and stmt.orelse:
                body_exit = _build(cfg, stmt.orelse, body_exit, loops, handlers)
            if body_exit is not None:
                cfg.edge(body_exit, join)
            current = join
            if stmt.finalbody:
                current = _build(cfg, stmt.finalbody, current, loops, handlers)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.items.append(stmt)
            current = _build(cfg, stmt.body, current, loops, handlers)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            current.items.append(stmt)
            for handler_entry in handlers if isinstance(stmt, ast.Raise) else []:
                cfg.edge(current, handler_entry)
            current = None
        elif isinstance(stmt, ast.Break):
            if loops:
                cfg.edge(current, loops[-1][1])
            current = None
        elif isinstance(stmt, ast.Continue):
            if loops:
                cfg.edge(current, loops[-1][0])
            current = None
        elif isinstance(stmt, getattr(ast, "Match", ())):
            current.items.append(stmt)
            join = cfg.new_block()
            for case in stmt.cases:  # type: ignore[attr-defined]
                case_entry = cfg.new_block()
                cfg.edge(current, case_entry)
                case_exit = _build(cfg, case.body, case_entry, loops, handlers)
                if case_exit is not None:
                    cfg.edge(case_exit, join)
            cfg.edge(current, join)  # no case may match
            current = join
        else:
            current.items.append(stmt)
    return current


# ----------------------------------------------------------------------
# intra-procedural taint interpretation


class _FunctionTaint:
    """One function's taint interpretation against fixed summaries."""

    def __init__(
        self,
        project: ProjectModel,
        graph: CallGraph,
        scope: FunctionScope,
        summaries: Dict[str, Summary],
    ) -> None:
        self.project = project
        self.graph = graph
        self.scope = scope
        self.summaries = summaries
        self.events: List[TaintEvent] = []
        self.param_names: List[str] = []
        node = scope.info.node
        args = getattr(node, "args", None)
        if args is not None:
            self.param_names = [
                a.arg for a in args.posonlyargs + args.args
            ]
        self.set_locals = infer_set_locals(node)

    def _direct_witness(self, primitive: str) -> Witness:
        return Witness(
            fns=(),
            source_fn=self.scope.info.qualname,
            source_module=self.scope.info.module,
            primitive=primitive,
        )

    # -- expression evaluation -------------------------------------------

    def eval(self, node: ast.AST, state: Dict[str, FrozenSet[Elem]]) -> FrozenSet[Elem]:
        if isinstance(node, ast.Name) and node.id in state:
            return state[node.id]
        if reads_environ(node, self.scope.module.dotted):
            return frozenset(
                {("src", ENV, self._direct_witness("os.environ"), node)}
            )
        if isinstance(node, ast.Name):
            return frozenset()
        if isinstance(node, ast.Attribute):
            return self.eval(node.value, state)
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            return frozenset()
        if isinstance(node, ast.Call):
            return self.eval_call(node, state)
        # Generic conservative union over child expressions.
        out: Set[Elem] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword, ast.comprehension)):
                out |= self.eval_children(child, state)
        return frozenset(out)

    def eval_children(
        self, node: ast.AST, state: Dict[str, FrozenSet[Elem]]
    ) -> FrozenSet[Elem]:
        if isinstance(node, ast.expr):
            return self.eval(node, state)
        out: Set[Elem] = set()
        for child in ast.iter_child_nodes(node):
            out |= self.eval_children(child, state)
        return frozenset(out)

    def eval_call(
        self, call: ast.Call, state: Dict[str, FrozenSet[Elem]]
    ) -> FrozenSet[Elem]:
        arg_taints: List[FrozenSet[Elem]] = [
            self.eval(arg, state) for arg in call.args
        ]
        kw_taints = {
            kw.arg: self.eval(kw.value, state) for kw in call.keywords
        }
        all_args: FrozenSet[Elem] = frozenset().union(
            *arg_taints, *kw_taints.values()
        ) if (arg_taints or kw_taints) else frozenset()

        # 1. direct nondeterminism primitive
        dotted = self.scope.module.dotted(call.func)
        if dotted is not None:
            kind = classify_call(dotted, call)
            if kind is not None:
                return all_args | frozenset(
                    {("src", kind, self._direct_witness(dotted), call)}
                )

        # 2. set-order materialization: list(a_set) etc.
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _SETORDER_SANITIZERS:
                return frozenset(
                    e for e in all_args if not (e[0] == "src" and e[1] == SETORDER)
                )
            if (
                func.id in ("list", "tuple", "iter", "enumerate")
                and call.args
                and setlike(call.args[0], self.set_locals)
            ):
                return all_args | frozenset(
                    {
                        (
                            "src",
                            SETORDER,
                            self._direct_witness(f"{func.id}(set)"),
                            call,
                        )
                    }
                )

        # 3. project function with a summary
        callee = self.graph.resolve_call(self.scope, call)
        if callee is not None:
            summary = self.summaries.get(callee)
            if summary is None:
                return all_args
            out: Set[Elem] = set()
            for kind, witness in summary.returns.items():
                out.add(("src", kind, witness.extend(callee), call))
            params = self._callee_params(callee)
            for index in summary.param_to_return:
                out |= self._arg_taint(index, params, arg_taints, kw_taints)
            if summary.state:
                self.events.append(
                    TaintEvent(
                        sink="effect",
                        node=call,
                        elems=frozenset(
                            ("src", kind, witness.extend(callee), call)
                            for kind, witness in summary.state.items()
                        ),
                    )
                )
            for index in summary.params_to_state:
                passed = self._arg_taint(index, params, arg_taints, kw_taints)
                if passed:
                    self.events.append(
                        TaintEvent(sink="arg-state", node=call, elems=passed)
                    )
            return frozenset(out)

        # 4. unknown/external call: conservative pass-through of arg taint
        receiver: FrozenSet[Elem] = frozenset()
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, state)
        return all_args | receiver

    def _callee_params(self, callee: str) -> List[str]:
        fn = self.project.functions.get(callee)
        if fn is None:
            return []
        params = fn.params
        if fn.cls is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        return params

    def _arg_taint(
        self,
        index: int,
        params: List[str],
        arg_taints: List[FrozenSet[Elem]],
        kw_taints: Dict[Optional[str], FrozenSet[Elem]],
    ) -> FrozenSet[Elem]:
        if index < len(arg_taints):
            return arg_taints[index]
        if index < len(params):
            return kw_taints.get(params[index], frozenset())
        return frozenset()

    # -- statement transfer ----------------------------------------------

    def transfer(
        self, item: ast.AST, state: Dict[str, FrozenSet[Elem]]
    ) -> None:
        if isinstance(item, ast.Assign):
            taint = self.eval(item.value, state)
            for target in item.targets:
                self._assign(target, taint, state)
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            self._assign(item.target, self.eval(item.value, state), state)
        elif isinstance(item, ast.AugAssign):
            taint = self.eval(item.value, state)
            if isinstance(item.target, ast.Name):
                taint = taint | state.get(item.target.id, frozenset())
            self._assign(item.target, taint, state)
        elif isinstance(item, ast.Return):
            if item.value is not None:
                taint = self.eval(item.value, state)
                if taint:
                    self.events.append(
                        TaintEvent(sink="return", node=item, elems=taint)
                    )
        elif isinstance(item, ast.Expr):
            self.eval(item.value, state)
        elif isinstance(item, ast.If):
            taint = self.eval(item.test, state)
            if taint:
                self.events.append(
                    TaintEvent(sink="branch", node=item.test, elems=taint)
                )
        elif isinstance(item, (ast.While,)):
            taint = self.eval(item.test, state)
            if taint:
                self.events.append(
                    TaintEvent(sink="branch", node=item.test, elems=taint)
                )
        elif isinstance(item, (ast.For, ast.AsyncFor)):
            taint = self.eval(item.iter, state)
            self._assign(item.target, taint, state)
        elif isinstance(item, (ast.With, ast.AsyncWith)):
            for with_item in item.items:
                taint = self.eval(with_item.context_expr, state)
                if with_item.optional_vars is not None:
                    self._assign(with_item.optional_vars, taint, state)
        elif isinstance(item, ast.ExceptHandler):
            if item.name:
                state[item.name] = frozenset()
        elif isinstance(item, ast.Raise):
            if item.exc is not None:
                self.eval(item.exc, state)
        elif isinstance(item, (ast.Delete,)):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
        elif isinstance(item, getattr(ast, "Match", ())):
            self.eval(item.subject, state)  # type: ignore[attr-defined]
        elif isinstance(item, ast.Assert):
            taint = self.eval(item.test, state)
            if taint:
                self.events.append(
                    TaintEvent(sink="branch", node=item.test, elems=taint)
                )

    def _assign(
        self,
        target: ast.AST,
        taint: FrozenSet[Elem],
        state: Dict[str, FrozenSet[Elem]],
    ) -> None:
        if isinstance(target, ast.Name):
            state[target.id] = taint
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, state)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taint, state)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            if taint:
                self.events.append(
                    TaintEvent(sink="state", node=target, elems=taint)
                )

    # -- driver -----------------------------------------------------------

    def run(self) -> List[TaintEvent]:
        body = getattr(self.scope.info.node, "body", [])
        cfg = build_cfg(body)
        init: Dict[str, FrozenSet[Elem]] = {}
        for index, name in enumerate(self.param_names):
            if name in ("self", "cls"):
                continue
            offset = (
                index - 1
                if self.param_names and self.param_names[0] in ("self", "cls")
                else index
            )
            init[name] = frozenset({("param", offset)})

        # Phase 1: converge per-block entry states with a worklist
        # (events recorded along the way are noise and discarded).
        entry_states: Dict[int, Dict[str, FrozenSet[Elem]]] = {0: dict(init)}
        pending = [0]
        iterations = 0
        max_iterations = max(64, 16 * len(cfg.blocks))
        while pending and iterations < max_iterations:
            iterations += 1
            bid = pending.pop(0)
            block = cfg.blocks[bid]
            state = dict(entry_states.get(bid, {}))
            for item in block.items:
                self.transfer(item, state)
            for succ in block.succs:
                merged = entry_states.get(succ)
                if merged is None:
                    entry_states[succ] = dict(state)
                    pending.append(succ)
                    continue
                changed = False
                for name, elems in state.items():
                    combined = merged.get(name, frozenset()) | elems
                    if combined != merged.get(name):
                        merged[name] = combined
                        changed = True
                if changed and succ not in pending:
                    pending.append(succ)
        # Phase 2: one clean sweep over reachable blocks against the
        # converged entry states; these are the reported events.
        self.events = []
        for block in cfg.blocks:
            if block.bid not in entry_states:
                continue
            state = dict(entry_states[block.bid])
            for item in block.items:
                self.transfer(item, state)
        return self.events

    def summary_from_events(self, events: List[TaintEvent]) -> Summary:
        summary = Summary()
        for event in events:
            for elem in event.elems:
                if elem[0] == "src":
                    _, kind, witness, _origin = elem
                    if event.sink == "return":
                        summary.returns.setdefault(kind, witness)
                    elif event.sink in ("state", "effect", "arg-state"):
                        summary.state.setdefault(kind, witness)
                elif elem[0] == "param":
                    index = elem[1]
                    if event.sink == "return":
                        summary.param_to_return.add(index)
                    elif event.sink in ("state", "arg-state"):
                        summary.params_to_state.add(index)
        return summary


# ----------------------------------------------------------------------
# project-wide fixed point


class TaintAnalysis:
    """Summaries for every project function, to a fixed point."""

    def __init__(self, project: ProjectModel, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.summaries: Dict[str, Summary] = {}

    def run(self, max_rounds: int = 8) -> None:
        qualnames = list(self.graph.scopes)
        for name in qualnames:
            self.summaries[name] = Summary()
        pending = set(qualnames)
        rounds = 0
        while pending and rounds < max_rounds:
            rounds += 1
            current, pending = pending, set()
            for qualname in sorted(current):
                scope = self.graph.scopes.get(qualname)
                if scope is None:
                    continue
                interp = _FunctionTaint(
                    self.project, self.graph, scope, self.summaries
                )
                events = interp.run()
                new_summary = interp.summary_from_events(events)
                if self.summaries[qualname].merge(new_summary):
                    pending |= self.graph.callers_of(qualname)

    def events_for(self, qualname: str) -> List[TaintEvent]:
        """Final-pass events for one function, against fixed summaries."""
        scope = self.graph.scopes.get(qualname)
        if scope is None:
            return []
        interp = _FunctionTaint(
            self.project, self.graph, scope, self.summaries
        )
        return interp.run()
