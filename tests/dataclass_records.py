"""The records that `foundry.span.node` (and, for `RunReport`, a plain class)
replaced, kept verbatim as `dataclasses.dataclass` classes.

`tests/test_nodes.py` compares each record in foundry with its twin here.
Each class body is the one its module held, under the decorator it had; the
helpers the bodies call are imported from foundry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from foundry.dtt.kernel import DTT_AXIOMS
from foundry.errors import SemanticsError, SortError, TheoryError, TypeCheckError
from foundry.fol.syntax import Sort, alpha_equal, check_well_formed, is_sentence
from foundry.fol.theory import schema_recognizes
from foundry.hol.kernel import axiom_name


# foundry/run.py
@dataclass
class Options:
    """What a script runs under: logic mode, kernel switches, axioms, fuel, tracing."""

    classical: bool = False
    eta: bool = False
    cumulative: bool = False
    impredicative_prop: bool = False
    proof_irrelevance: bool = False
    axioms: tuple = ()
    fuel: int = 10**5
    trace: bool = False


# foundry/run.py
@dataclass
class CommandResult:
    """One command's status in a run report, with its output or its tagged error."""

    index: int
    command: str
    status: str  # ok | error
    name: str = ""
    tag: str = ""
    message: str = ""
    line: int = 0
    col: int = 0
    output: str = ""

    def as_dict(self) -> dict:
        return {
            "col": self.col,
            "command": self.command,
            "index": self.index,
            "line": self.line,
            "message": self.message,
            "name": self.name,
            "output": self.output,
            "status": self.status,
            "tag": self.tag,
        }


# foundry/run.py
@dataclass
class RunReport:
    """The report of one script run: one result per command, in order."""

    file: str
    calculus: str
    results: list = field(default_factory=list)
    theorems_certified: int = 0
    elapsed_s: float = 0.0
    trace: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.results)

    def first_error(self) -> CommandResult | None:
        for r in self.results:
            if r.status != "ok":
                return r
        return None

    def to_json(self) -> str:
        import json  # only a JSON report loads it

        doc = {
            "calculus": self.calculus,
            "commands": [r.as_dict() for r in self.results],
            "elapsed_s": round(self.elapsed_s, 6),
            "file": self.file,
            "ok": self.ok,
            "theorems_certified": self.theorems_certified,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            head = f"[{r.index + 1:3}] {r.command}"
            if r.name:
                head += f" {r.name}"
            if r.status == "ok":
                line = f"{head}: ok"
                if r.output:
                    line += f" -- {r.output}"
            else:
                line = f"{head}: error[{r.tag}] at {r.line}:{r.col}: {r.message}"
            lines.append(line)
        lines.append(
            f"{self.file}: {'ok' if self.ok else 'FAILED'}, "
            f"{self.theorems_certified} theorem(s) certified"
        )
        return "\n".join(lines)


# foundry/surface/fol_parser.py
@dataclass
class FolEnv:
    """What the FOL parser knows: the signature and the sorts of named variables."""

    signature: Signature | None = None
    var_sorts: dict | None = None  # name -> Sort

    def sort_named(self, name: str, cur: Cursor) -> Sort:
        s = Sort(name)
        if self.signature is not None and s not in self.signature.sorts:
            cur.fail(f"unknown sort {name}")
        return s

    def default_sort(self, cur: Cursor, name: str) -> Sort:
        if self.var_sorts and name in self.var_sorts:
            return self.var_sorts[name]
        if self.signature is not None and self.signature.only_sort is not None:
            return self.signature.only_sort
        cur.fail(f"cannot determine the sort of variable {name}")

    def is_constant(self, name: str) -> bool:
        return (
            self.signature is not None
            and name in self.signature.functions
            and self.signature.functions[name][0] == ()
        )


# foundry/fol/syntax.py
@dataclass(frozen=True)
class Signature:
    """Sorts plus sorted function and relation profiles.

    A 0-ary function is a constant; a 0-ary relation is a propositional atom.
    """

    sorts: frozenset[Sort]
    functions: Mapping[str, tuple[tuple[Sort, ...], Sort]] = field(default_factory=dict)
    relations: Mapping[str, tuple[Sort, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, (args, res) in self.functions.items():
            for s in (*args, res):
                if s not in self.sorts:
                    raise SortError(f"function {name}: unknown sort {s}")
        for name, args in self.relations.items():
            for s in args:
                if s not in self.sorts:
                    raise SortError(f"relation {name}: unknown sort {s}")
        if set(self.functions) & set(self.relations):
            clash = sorted(set(self.functions) & set(self.relations))
            raise SortError(f"symbols declared as both function and relation: {clash}")

    @property
    def only_sort(self) -> Sort | None:
        if len(self.sorts) == 1:
            return next(iter(self.sorts))
        return None

    def with_function(self, name: str, args: tuple[Sort, ...], res: Sort) -> "Signature":
        if name in self.functions or name in self.relations:
            raise SortError(f"symbol {name} already declared")
        fns = dict(self.functions)
        fns[name] = (args, res)
        return replace(self, functions=fns)

    def with_relation(self, name: str, args: tuple[Sort, ...]) -> "Signature":
        if name in self.functions or name in self.relations:
            raise SortError(f"symbol {name} already declared")
        rels = dict(self.relations)
        rels[name] = args
        return replace(self, relations=rels)

    def with_sort(self, sort: Sort) -> "Signature":
        return replace(self, sorts=self.sorts | {sort})


# foundry/fol/theory.py
@dataclass(frozen=True)
class Theory:
    """A signature, axioms and schemas, in a logic mode, with its extension log."""

    name: str
    signature: Signature
    axioms: Mapping[str, Formula] = field(default_factory=dict)
    schemas: Mapping[str, AxiomSchema] = field(default_factory=dict)
    mode: str = "classical"
    definition_log: tuple = ()

    def __post_init__(self):
        if self.mode not in ("classical", "intuitionistic"):
            raise TheoryError(f"unknown logic mode {self.mode}")
        for name, a in self.axioms.items():
            check_well_formed(self.signature, a)
            if not is_sentence(a):
                raise TheoryError(f"axiom {name} is not a sentence")

    def with_axiom(self, name: str, a: Formula) -> "Theory":
        if name in self.axioms:
            raise TheoryError(f"axiom name {name} already used")
        axs = dict(self.axioms)
        axs[name] = a
        return replace(self, axioms=axs)

    def log(self, entry: LogEntry) -> "Theory":
        return replace(self, definition_log=self.definition_log + (entry,))

    def proves_outright(self, a: Formula) -> bool:
        """Is the formula available without proof: an axiom or an instance of
        one of the theory's schemas?"""
        if any(alpha_equal(a, ax) for ax in self.axioms.values()):
            return True
        return any(schema_recognizes(s, a) for s in self.schemas.values())


# foundry/fol/semantics.py
@dataclass(frozen=True)
class FiniteModel:
    """Finite Tarski structure: one finite universe per sort, total tables."""

    universes: Mapping[Sort, tuple[Elem, ...]]
    functions: Mapping[str, Mapping[tuple, Elem]] = field(default_factory=dict)
    relations: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        for sort, elems in self.universes.items():
            if not elems:
                raise SemanticsError(f"empty universe for sort {sort}")
            if len(set(elems)) != len(elems):
                raise SemanticsError(f"duplicate elements in universe for sort {sort}")

    def universe(self, sort: Sort) -> tuple[Elem, ...]:
        try:
            return self.universes[sort]
        except KeyError:
            raise SemanticsError(f"model has no universe for sort {sort}") from None

    def validate(self, sig: Signature) -> None:
        """Check totality of every declared table over the universes."""
        for name, (arg_sorts, res) in sig.functions.items():
            table = self.functions.get(name)
            if table is None:
                raise SemanticsError(f"missing function table for {name}")
            codomain = set(self.universe(res))
            for args in itertools.product(*(self.universe(s) for s in arg_sorts)):
                if args not in table:
                    raise SemanticsError(f"function table {name} not total at {args}")
                if table[args] not in codomain:
                    raise SemanticsError(f"function table {name} leaves the universe at {args}")
        for name, arg_sorts in sig.relations.items():
            if name not in self.relations:
                raise SemanticsError(f"missing relation table for {name}")


# foundry/fol/semantics.py
@dataclass(frozen=True)
class KripkeModel:
    """Finitely many worlds ordered by information growth.

    `order` holds pairs (lower, upper); we close it reflexively and
    transitively. Inclusion maps are identity embeddings on shared element
    names, so growth means: universes only gain elements, atomic facts only
    become true.
    """

    worlds: tuple[str, ...]
    order: frozenset
    models: Mapping[str, FiniteModel]

    def __post_init__(self):
        object.__setattr__(self, "_up", self._closure())
        self._check_monotone()

    def _closure(self) -> dict[str, frozenset[str]]:
        up = {w: {w} for w in self.worlds}
        for (lo, hi) in self.order:
            if lo not in up or hi not in up:
                raise SemanticsError(f"order mentions unknown world in ({lo}, {hi})")
            up[lo].add(hi)
        changed = True
        while changed:
            changed = False
            for w in self.worlds:
                new = set(up[w])
                for v in up[w]:
                    new |= up[v]
                if new != up[w]:
                    up[w] = new
                    changed = True
        return {w: frozenset(v) for w, v in up.items()}

    def _check_monotone(self) -> None:
        for w in self.worlds:
            mw = self.models[w]
            for v in self.above(w):
                mv = self.models[v]
                for sort, elems in mw.universes.items():
                    if not set(elems) <= set(mv.universe(sort)):
                        raise SemanticsError(
                            f"universe of {sort} shrinks from world {w} to {v}"
                        )
                for rel, table in mw.relations.items():
                    if not table <= mv.relations.get(rel, frozenset()):
                        raise SemanticsError(
                            f"atomic facts for {rel} are lost from world {w} to {v}"
                        )
                for fn, table in mw.functions.items():
                    upper = mv.functions.get(fn, {})
                    for args, val in table.items():
                        if upper.get(args) != val:
                            raise SemanticsError(
                                f"function {fn} changes on old elements from {w} to {v}"
                            )

    def above(self, w: str) -> frozenset[str]:
        return self._up[w]


# foundry/hol/kernel.py
@dataclass(frozen=True)
class KernelState:
    """Constant and type-operator tables; append-only, no redefinition.

    The tables are stored as read-only copies, so a state's tables never
    change after construction. `checked` memoizes check_term on closed terms,
    leaf constants and free variables included, for this state object only;
    every new state, replace() included, starts with an empty memo. `lemmas`
    is the derived layer's cache of theorems that kernel rules minted under
    this state object; it starts empty in the same way.
    """

    constants: Mapping[str, ConstDecl]
    type_ops: Mapping[str, int]
    enabled_axioms: frozenset[str] = frozenset()
    definition_log: tuple = ()
    checked: dict = field(init=False, compare=False, repr=False, default_factory=dict)
    lemmas: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "constants", MappingProxyType(dict(self.constants)))
        object.__setattr__(self, "type_ops", MappingProxyType(dict(self.type_ops)))

    def enable_axiom(self, name: str) -> "KernelState":
        return replace(self, enabled_axioms=self.enabled_axioms | {axiom_name(name)})

    def log(self, kind: str, name: str, detail: str = "") -> "KernelState":
        return replace(self, definition_log=self.definition_log + ((kind, name, detail),))


# foundry/dtt/kernel.py
@dataclass(frozen=True)
class KernelConfig:
    """What a DTT check runs under: eta, cumulativity, Prop's rules and enabled axioms."""

    eta_for_pi: bool = False
    cumulativity: bool = False
    impredicative_prop: bool = False
    proof_irrelevance: bool = False
    axioms: frozenset = frozenset()

    def __post_init__(self):
        for a in self.axioms:
            if a not in DTT_AXIOMS:
                raise TypeCheckError(f"unknown axiom {a}")
