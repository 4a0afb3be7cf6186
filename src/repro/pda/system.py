"""Weighted pushdown systems in normal form.

A pushdown system (PDS) is a triple ``(P, Γ, Δ)`` of control states,
stack symbols and rules. Rules are kept in *normal form*: each rule
``⟨p, γ⟩ → ⟨p', w⟩`` pushes at most two symbols (|w| ≤ 2), which is the
form the saturation algorithms require. The three shapes are:

* ``POP``  — ``w = ε``,
* ``SWAP`` — ``w = γ'``,
* ``PUSH`` — ``w = γ₁ γ₂`` (``γ₁`` becomes the new top).

Every rule carries a semiring weight and an opaque ``tag`` used by the
verification layer to map PDA runs back to network traces.

Control states and stack symbols are *interned* on insertion: the
system owns (or shares) a pair of :class:`~repro.pda.intern.SymbolTable`
arenas, every rule carries the dense ids of its head and body next to
the symbolic values, and rule lookup is indexed by packed int heads.
The saturators run entirely on those ids; the symbolic fields exist so
witnesses, traces and serializations can resolve back to names at the
boundary without any reverse lookups.
"""

from __future__ import annotations

from array import array
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import PdaError
from repro.pda.intern import EPSILON, MASK, SHIFT, SymbolTable

State = Hashable
Symbol = Hashable


class Rule:
    """One normal-form rule ``⟨from_state, pop⟩ → ⟨to_state, push⟩``.

    ``push`` is a tuple of 0, 1 or 2 stack symbols; for a push rule
    ``push[0]`` is the new top of stack and ``push[1]`` sits below it.
    The ``*_id`` slots hold the dense ids of the owning system's symbol
    tables (-1 / empty until the rule is adopted by a system).
    """

    __slots__ = (
        "from_state",
        "pop",
        "to_state",
        "push",
        "weight",
        "tag",
        "from_id",
        "pop_id",
        "to_id",
        "push_ids",
    )

    def __init__(
        self,
        from_state: State,
        pop: Symbol,
        to_state: State,
        push: Tuple[Symbol, ...],
        weight: Any,
        tag: Any = None,
    ) -> None:
        if len(push) > 2:
            raise PdaError("rules must be in normal form (|push| <= 2)")
        self.from_state = from_state
        self.pop = pop
        self.to_state = to_state
        self.push = push
        self.weight = weight
        self.tag = tag
        self.from_id = -1
        self.pop_id = -1
        self.to_id = -1
        self.push_ids: Tuple[int, ...] = ()

    @property
    def is_pop(self) -> bool:
        return len(self.push) == 0

    @property
    def is_swap(self) -> bool:
        return len(self.push) == 1

    @property
    def is_push(self) -> bool:
        return len(self.push) == 2

    def __repr__(self) -> str:
        pushed = " ".join(str(s) for s in self.push) or "ε"
        return (
            f"<{self.from_state}, {self.pop}> -> <{self.to_state}, {pushed}>"
            f" @{self.weight}"
        )


class PushdownSystem:
    """A weighted pushdown system with id-indexed rule lookup.

    ``state_table`` / ``symbol_table`` default to fresh arenas; passing
    existing ones creates a system in the *same id space* — which is how
    :meth:`replace_rules` makes reduced systems share their parent's
    interning (rule objects are adopted as-is, no re-interning).
    """

    def __init__(
        self,
        state_table: Optional[SymbolTable] = None,
        symbol_table: Optional[SymbolTable] = None,
    ) -> None:
        self.state_table = state_table if state_table is not None else SymbolTable()
        self.symbol_table = (
            symbol_table if symbol_table is not None else SymbolTable(reserve=(EPSILON,))
        )
        self._rules: List[Rule] = []
        #: packed head ``(from_id << SHIFT) | pop_id`` → rules.
        self._by_head: Dict[int, List[Rule]] = {}
        self._state_ids: Set[int] = set()
        self._symbol_ids: Set[int] = set()
        self._head_index: Optional[List[Optional[Dict[int, List[Rule]]]]] = None

    def add_rule(
        self,
        from_state: State,
        pop: Symbol,
        to_state: State,
        push: Tuple[Symbol, ...],
        weight: Any,
        tag: Any = None,
    ) -> Rule:
        """Create, intern, index and return a rule."""
        rule = Rule(from_state, pop, to_state, push, weight, tag)
        states = self.state_table
        symbols = self.symbol_table
        rule.from_id = states.intern(from_state)
        rule.pop_id = symbols.intern(pop)
        rule.to_id = states.intern(to_state)
        rule.push_ids = tuple(symbols.intern(s) for s in push)
        self._index_rule(rule)
        return rule

    def _index_rule(self, rule: Rule) -> None:
        self._rules.append(rule)
        self._by_head.setdefault((rule.from_id << SHIFT) | rule.pop_id, []).append(rule)
        self._state_ids.add(rule.from_id)
        self._state_ids.add(rule.to_id)
        self._symbol_ids.add(rule.pop_id)
        self._symbol_ids.update(rule.push_ids)
        self._head_index = None

    def rules_from(self, state: State, symbol: Symbol) -> Sequence[Rule]:
        """All rules with head ``⟨state, symbol⟩`` (symbolic lookup)."""
        from_id = self.state_table.id_of(state)
        pop_id = self.symbol_table.id_of(symbol)
        if from_id is None or pop_id is None:
            return ()
        return self._by_head.get((from_id << SHIFT) | pop_id, ())

    def head_index(self) -> List[Optional[Dict[int, List[Rule]]]]:
        """Per-state rule rows, indexed by state id (the CSR-style view).

        ``head_index()[from_id][pop_id]`` is the rule list of one head;
        states without rules hold None. The list covers the state table
        as of the build — ids interned later (saturation mid-states,
        automaton finals) simply index past the end, which callers guard
        with a length check. Rebuilt lazily after any ``add_rule``.
        """
        index = self._head_index
        if index is None:
            index = [None] * len(self.state_table)
            for packed, rules in self._by_head.items():
                from_id = packed >> SHIFT
                row = index[from_id]
                if row is None:
                    row = index[from_id] = {}
                row[packed & MASK] = rules
            self._head_index = index
        return index

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return tuple(self._rules)

    @property
    def control_state_ids(self) -> Set[int]:
        """Ids of all control states (read-only view; do not mutate)."""
        return self._state_ids

    @property
    def states(self) -> FrozenSet[State]:
        resolve = self.state_table.resolve
        return frozenset(resolve(i) for i in self._state_ids)

    @property
    def symbols(self) -> FrozenSet[Symbol]:
        resolve = self.symbol_table.resolve
        return frozenset(resolve(i) for i in self._symbol_ids)

    def state_count(self) -> int:
        """Number of control states (without materializing them)."""
        return len(self._state_ids)

    def rule_count(self) -> int:
        """Number of rules in Δ."""
        return len(self._rules)

    def replace_rules(self, rules: Iterable[Rule]) -> "PushdownSystem":
        """A new system containing only the given rules (used by reductions).

        The new system shares this one's symbol tables, so rules that
        were interned here are adopted without copying; foreign rules
        (different tables, or never interned) are re-created.
        """
        reduced = PushdownSystem(self.state_table, self.symbol_table)
        states = self.state_table
        symbols = self.symbol_table
        for rule in rules:
            if (
                states.id_of(rule.from_state) == rule.from_id
                and symbols.id_of(rule.pop) == rule.pop_id
            ):
                reduced._index_rule(rule)
            else:
                reduced.add_rule(
                    rule.from_state,
                    rule.pop,
                    rule.to_state,
                    rule.push,
                    rule.weight,
                    rule.tag,
                )
        return reduced

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the interned form, not the rule objects.

        Each :class:`Rule` stores its symbolic head/body *and* the dense
        ids — pickling the objects writes every nested state tuple and
        Label twice over (once in the tables, once per rule), which made
        compiled artifacts ~4x larger and correspondingly slow to load
        from the shared store. Instead we write the two arenas plus flat
        integer arrays (packed ``from/pop/to`` triples and the push ids)
        alongside the weight and tag lists, and rebuild the rules from
        the tables on load. ``_head_index`` is derived and dropped.
        """
        rules = self._rules
        push_flat = array("i")
        for rule in rules:
            push_flat.extend(rule.push_ids)
        return {
            "state_table": self.state_table,
            "symbol_table": self.symbol_table,
            "packed_heads": array(
                "q",
                (
                    (((r.from_id << SHIFT) | r.pop_id) << SHIFT) | r.to_id
                    for r in rules
                ),
            ),
            "push_arity": array("b", (len(r.push_ids) for r in rules)),
            "push_flat": push_flat,
            "weights": [r.weight for r in rules],
            "tags": [r.tag for r in rules],
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.state_table = state["state_table"]
        self.symbol_table = state["symbol_table"]
        self._rules = rules = []
        self._by_head = by_head = {}
        self._head_index = None
        # Positional access into the arenas: ids *are* list positions,
        # and resolve()'s per-call guard would dominate this loop.
        states = self.state_table._values
        symbols = self.symbol_table._values
        packed_heads = state["packed_heads"]
        push_flat = state["push_flat"]
        position = 0
        new = Rule.__new__
        append = rules.append
        for packed, arity, weight, tag in zip(
            packed_heads,
            state["push_arity"],
            state["weights"],
            state["tags"],
        ):
            from_id = packed >> (2 * SHIFT)
            pop_id = (packed >> SHIFT) & MASK
            rule = new(Rule)
            rule.from_state = states[from_id]
            rule.pop = symbols[pop_id]
            rule.to_id = to_id = packed & MASK
            rule.to_state = states[to_id]
            if arity == 0:
                rule.push_ids = ()
                rule.push = ()
            elif arity == 1:
                first = push_flat[position]
                position += 1
                rule.push_ids = (first,)
                rule.push = (symbols[first],)
            else:
                first = push_flat[position]
                second = push_flat[position + 1]
                position += 2
                rule.push_ids = (first, second)
                rule.push = (symbols[first], symbols[second])
            rule.weight = weight
            rule.tag = tag
            rule.from_id = from_id
            rule.pop_id = pop_id
            append(rule)
            head = (from_id << SHIFT) | pop_id
            row = by_head.get(head)
            if row is None:
                by_head[head] = [rule]
            else:
                row.append(rule)
        # The id sets fall out of the flat arrays in bulk, which beats
        # four .add() calls per rule through the loop above.
        self._state_ids = {p >> (2 * SHIFT) for p in packed_heads} | {
            p & MASK for p in packed_heads
        }
        self._symbol_ids = {
            (p >> SHIFT) & MASK for p in packed_heads
        } | set(push_flat)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __repr__(self) -> str:
        return (
            f"PushdownSystem(states={len(self._state_ids)}, "
            f"symbols={len(self._symbol_ids)}, rules={len(self._rules)})"
        )


class Configuration:
    """A PDS configuration ``⟨state, stack⟩`` (top of stack first)."""

    __slots__ = ("state", "stack")

    def __init__(self, state: State, stack: Tuple[Symbol, ...]) -> None:
        self.state = state
        self.stack = stack

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.state == other.state and self.stack == other.stack

    def __hash__(self) -> int:
        return hash((self.state, self.stack))

    def __repr__(self) -> str:
        stack = " ".join(str(s) for s in self.stack) or "ε"
        return f"<{self.state}, {stack}>"


def apply_rule(configuration: Configuration, rule: Rule) -> Configuration:
    """One transition step of the PDS semantics.

    Raises :class:`PdaError` when the rule head does not match — callers
    replaying reconstructed runs use this as a soundness assertion.
    """
    if not configuration.stack:
        raise PdaError(f"cannot apply {rule!r}: empty stack")
    if configuration.state != rule.from_state or configuration.stack[0] != rule.pop:
        raise PdaError(f"rule {rule!r} does not match {configuration!r}")
    return Configuration(rule.to_state, rule.push + configuration.stack[1:])


def run_rules(
    initial: Configuration, rules: Sequence[Rule]
) -> Tuple[Configuration, ...]:
    """Replay a rule sequence, returning every intermediate configuration.

    The first element is ``initial``; the last is the final configuration.
    """
    configurations = [initial]
    for rule in rules:
        configurations.append(apply_rule(configurations[-1], rule))
    return tuple(configurations)
