"""Compilation of (network, query) into a weighted pushdown system.

This implements the translation at the heart of AalWiNes (§4): a query
``⟨a⟩ b ⟨c⟩ k`` over an MPLS network becomes a single-source,
single-target reachability question on a pushdown system whose stack
holds the packet header. The construction has three phases:

1. **Header construction** — from the start state, push a word of
   ``Lang(a) ∩ H`` (valid headers) onto the stack. Pushing builds the
   stack bottom-up, so the phase walks the *reversed* product automaton
   of ``a`` and the valid-header automaton; each control state remembers
   the NFA state and the symbol just pushed (the current top), keeping
   every rule in normal form.
2. **Routing simulation** — control states ``(link e, A_b-state)``
   describe a packet that has just arrived on ``e`` with the path
   automaton at that state. Every routing-table entry becomes a chain of
   normal-form rules applying its operation sequence; an entry of
   priority group ``j`` is enabled iff the links of all higher-priority
   groups can fail, which is where the over-/under-approximation of the
   failure bound ``k`` enters:

   * *over-approximation*: the entry is usable whenever its required
     failed-link set has size ≤ k (i.e. "up to k links may fail at any
     router", §4.2);
   * *under-approximation*: the control state additionally carries a
     global budget ``f``; each step adds its required-failure count and
     the run blocks when the budget would exceed ``k`` (loops may count
     one failed link twice — hence *under*).

3. **Final check** — when the path automaton accepts, the stack is
   popped through the automaton of ``c``; reaching the bottom marker in
   an accepting state moves to the accept state.

Rule weights come from the query's weight vector (or ``True`` for the
unweighted engines): the quantitative contribution of each forwarding
step is attached to the first rule of its operation chain.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import VerificationError
from repro.model.labels import BOTTOM, Label
from repro.model.network import MplsNetwork
from repro.model.operations import Operation, Push, Swap, stack_growth
from repro.model.quantities import failure_set_cost
from repro.model.topology import Link
from repro.pda.semiring import BOOLEAN, Semiring, vector_semiring
from repro.pda.system import PushdownSystem
from repro.query.ast import Query
from repro.query.nfa import Nfa, label_nfa, link_nfa, valid_header_nfa
from repro.query.weights import StepCosts, WeightVector

#: Compilations a :class:`QueryCompiler` memoizes before evicting the
#: least recently used one.
MEMO_CAPACITY = 128

#: Control-state tags.
START = ("start",)
ACCEPT = ("accept",)


@dataclass
class CompiledQuery:
    """A compiled reachability instance plus everything needed to map PDA
    runs back to network traces."""

    network: MplsNetwork
    query: Query
    mode: str  # "over" | "under"
    pds: PushdownSystem
    semiring: Semiring
    initial: Tuple[Any, Any]
    target: Tuple[Any, Any]
    weight_vector: Optional[WeightVector]

    def link_of_state(self, state: Any) -> Optional[Link]:
        """The network link of a phase-2 arrival state, None otherwise."""
        if isinstance(state, tuple) and state and state[0] == "link":
            return self.network.topology.link(state[1])
        return None


def find_one_step_witness(
    network: MplsNetwork,
    query: Query,
    weight_vector: Optional[WeightVector] = None,
    distance_of: Optional[Callable[[Link], int]] = None,
) -> Optional[Tuple[Any, Any]]:
    """Closed-form handling of one-step traces.

    A trace of length one — the packet arrives on a single link matching
    ``b`` with a header in ``Lang(a) ∩ Lang(c) ∩ H`` — involves no
    forwarding at all, so it can be decided by NFA products alone. The
    engine checks this first; the pushdown encoding then only has to
    cover traces of length ≥ 2, which keeps its entry phase linear.

    Returns ``(trace, weight)`` for the minimum-weight one-step witness
    (weight is None for unweighted verification), or None when no
    one-step witness exists. One-step traces never require failures, so
    the witness is always feasible.
    """
    from repro.model.header import Header
    from repro.model.trace import Trace, TraceStep
    from repro.query.nfa import Nfa

    distance = distance_of if distance_of is not None else network.topology.link_distance
    a_nfa = label_nfa(query.initial_header, network).intersect(
        valid_header_nfa(network)
    )
    c_nfa = label_nfa(query.final_header, network)
    product = a_nfa.intersect(c_nfa).trim()
    header_word = _shortest_word(product)
    if header_word is None:
        return None
    b_nfa = link_nfa(query.path, network)
    best_link: Optional[Link] = None
    best_weight: Optional[Tuple[int, ...]] = None
    for link in network.topology.links:
        if not b_nfa.accepts([link]):
            continue
        if weight_vector is None:
            best_link = link
            break
        weight = weight_vector.step_weight(StepCosts.for_link(link, distance))
        if best_weight is None or weight < best_weight:
            best_link, best_weight = link, weight
    if best_link is None:
        return None
    trace = Trace([TraceStep(best_link, Header(header_word))])
    return trace, best_weight


def _shortest_word(nfa: "Nfa") -> Optional[Tuple[Label, ...]]:
    """One shortest accepted word of an NFA (None for the empty language)."""
    from collections import deque as _deque

    frontier = _deque((state, ()) for state in nfa.initial)
    seen = set(nfa.initial)
    while frontier:
        state, word = frontier.popleft()
        if state in nfa.accepting:
            return word
        for edge in nfa.edges_from(state):
            if edge.target not in seen and edge.symbols:
                seen.add(edge.target)
                # min over the symbol set keeps the chosen word independent
                # of set iteration order (i.e. of PYTHONHASHSEED).
                symbol = min(edge.symbols, key=str)
                frontier.append((edge.target, word + (symbol,)))
    return None


class QueryCompiler:
    """Compiles queries against one fixed network.

    ``distance_of`` feeds the *Distance* atomic quantity; it defaults to
    the topology's link distance (geographic when coordinates exist).

    Compilations are memoized per ``(query, mode, weight vector)``:
    queries and weight vectors are frozen dataclasses, compilation is a
    pure function of them plus the fixed network, and a compiled system
    is safe to share — reductions build *new* systems and the interning
    tables are append-only arenas (with a thread-safe ``intern``), so
    concurrent solves over one memoized instance never interfere. This is
    what lets the server's long-lived ``/verify`` engines answer hot
    queries without recompiling. The memo holds :data:`MEMO_CAPACITY`
    entries.
    """

    def __init__(
        self,
        network: MplsNetwork,
        distance_of: Optional[Callable[[Link], int]] = None,
    ) -> None:
        self.network = network
        self._custom_distance = distance_of is not None
        self.distance_of = (
            distance_of if distance_of is not None else network.topology.link_distance
        )
        #: Content-hash key of the network in the shared artifact store;
        #: None keeps the store out of the loop (see
        #: :meth:`attach_artifact_key`).
        self.artifact_key: Optional[str] = None
        self._memo: "OrderedDict[Tuple[Query, str, Optional[WeightVector]], CompiledQuery]" = (
            OrderedDict()
        )
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def attach_artifact_key(self, key: str) -> None:
        """Name this compiler's network in the shared artifact store.

        Once attached (and when a store is active — see
        :func:`repro.farm.store.active_store`), compile-memo misses
        consult the store for a pickled :class:`CompiledQuery` built by
        a sibling process, and publish fresh compilations back. The key
        is ignored when compilation is not a pure function of the
        network's content: a custom ``distance_of`` callable makes the
        artifact process-specific.
        """
        if self._custom_distance:
            return
        self.artifact_key = key

    def _store_fetch(
        self,
        query: Query,
        mode: str,
        weight_vector: Optional[WeightVector],
    ) -> Tuple[Optional[CompiledQuery], Optional[Any], Optional[str]]:
        """(stored artifact, store, key) for a memo miss; Nones when the
        store is out of the loop."""
        if self.artifact_key is None:
            return None, None, None
        from repro.farm.store import active_store

        store = active_store()
        if store is None:
            return None, None, None
        from repro.farm.store import hash_text

        key = hash_text(
            f"{self.artifact_key}|{mode}|{query!r}|{weight_vector!r}"
        )
        compiled = store.get_object("compiled", key)
        if compiled is not None:
            # The pickled artifact carries a *copy* of the network;
            # rebind ours so witness traces reference this process's
            # link objects (identity matters to failure-set reporting).
            compiled.network = self.network
            if obs.enabled():
                obs.add("compiler.store_hits")
        return compiled, store, key

    def compile(
        self,
        query: Query,
        mode: str = "over",
        weight_vector: Optional[WeightVector] = None,
    ) -> CompiledQuery:
        """Build the pushdown system for one query.

        ``mode`` selects the over- or under-approximating encoding of the
        failure bound; ``weight_vector`` switches on the quantitative
        (weighted) encoding.
        """
        if mode not in ("over", "under"):
            raise VerificationError(f"unknown compilation mode {mode!r}")
        memo_key = (query, mode, weight_vector)
        # The build runs *under* the lock: compilation is deterministic,
        # and compile-once keeps the observability counters independent
        # of thread scheduling.
        with self._memo_lock:
            cached = self._memo.get(memo_key)
            if cached is not None:
                self._memo.move_to_end(memo_key)
                if obs.enabled():
                    obs.add("compiler.memo_hits")
                return cached
            compiled, store, store_key = self._store_fetch(
                query, mode, weight_vector
            )
            if compiled is None:
                compiled = self._compile(query, mode, weight_vector)
                if store is not None:
                    # Strip the network before publishing: the fetch path
                    # rebinds the reader's own network anyway (states and
                    # tags reference links by *name*), and the copy is
                    # pure dead weight — for small queries it dominates
                    # the artifact.
                    store.put_object(
                        "compiled", store_key, replace(compiled, network=None)
                    )
            if obs.enabled():
                obs.add("compiler.memo_misses")
            self._memo[memo_key] = compiled
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)
            return compiled

    def _compile(
        self,
        query: Query,
        mode: str,
        weight_vector: Optional[WeightVector],
    ) -> CompiledQuery:
        semiring: Semiring = (
            BOOLEAN if weight_vector is None else vector_semiring(weight_vector.arity)
        )
        with obs.span("compile", mode=mode):
            builder = _Builder(self, query, mode, weight_vector, semiring)
            pds = builder.build()
        if obs.enabled():
            obs.add("compiler.compilations")
            obs.add(f"compiler.{mode}_rules", pds.rule_count())
            obs.add(
                "compiler.nfa_states",
                builder.a_nfa.state_count
                + builder.b_nfa.state_count
                + builder.c_nfa.state_count,
            )
        return CompiledQuery(
            network=self.network,
            query=query,
            mode=mode,
            pds=pds,
            semiring=semiring,
            initial=(START, BOTTOM),
            target=(ACCEPT, BOTTOM),
            weight_vector=weight_vector,
        )


class _Builder:
    """One compilation run (kept separate to hold per-run state)."""

    def __init__(
        self,
        compiler: QueryCompiler,
        query: Query,
        mode: str,
        weight_vector: Optional[WeightVector],
        semiring: Semiring,
    ) -> None:
        self.network = compiler.network
        self.distance_of = compiler.distance_of
        self.query = query
        self.mode = mode
        self.weight_vector = weight_vector
        self.semiring = semiring
        self.max_failures = query.max_failures
        self.pds = PushdownSystem()
        # Compiled NFAs.
        network = self.network
        self.a_nfa = label_nfa(query.initial_header, network).intersect(
            valid_header_nfa(network)
        )
        self.b_nfa = link_nfa(query.path, network)
        self.c_nfa = label_nfa(query.final_header, network)
        self.reversed_a = self.a_nfa.reverse().trim()
        # Label pools for unknown-top op expansion. Sorted so rule order —
        # and therefore interned ids and equal-weight tie-breaking — is
        # identical across processes regardless of PYTHONHASHSEED.
        labels = network.labels
        self.plain_labels = tuple(sorted(labels.mpls_labels, key=str))
        self.bottom_labels = tuple(sorted(labels.bottom_mpls_labels, key=str))
        self.ip_labels = tuple(sorted(labels.ip_labels, key=str))

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def _weight(self, costs: Optional[StepCosts]) -> Any:
        if self.weight_vector is None:
            return True
        if costs is None:
            return self.semiring.one
        return self.weight_vector.step_weight(costs)

    def _one(self) -> Any:
        return self.semiring.one

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> PushdownSystem:
        entry_states = self._build_header_phase()
        reachable_links = self._build_routing_phase(entry_states)
        self._build_check_phase(reachable_links)
        return self.pds

    # -- phase 1: header construction ----------------------------------
    def _build_header_phase(self) -> List[Tuple[Any, Label]]:
        """Push words of Lang(a) ∩ H (reversed) and hand over to entry links.

        Returns the list of phase-2 entry states paired with the header's
        top label (needed nowhere further, but useful for debugging).
        """
        reversed_a = self.reversed_a
        # Possible (NFA state, just-pushed top) pairs, discovered by BFS.
        initial_pairs = [(q, BOTTOM) for q in reversed_a.initial]
        seen: Set[Tuple[int, Label]] = set(initial_pairs)
        frontier = deque(initial_pairs)
        accepting_pairs: List[Tuple[int, Label]] = []
        while frontier:
            q, top = frontier.popleft()
            if q in reversed_a.accepting and top is not BOTTOM:
                accepting_pairs.append((q, top))
            for edge in reversed_a.edges_from(q):
                for label in sorted(edge.symbols, key=str):
                    source_state = ("hdr", q, top) if top is not BOTTOM else START
                    self.pds.add_rule(
                        source_state,
                        top,
                        ("hdr", edge.target, label),
                        (label, top),
                        self._one(),
                        tag=("hdr", label),
                    )
                    pair = (edge.target, label)
                    if pair not in seen:
                        seen.add(pair)
                        frontier.append(pair)

        # Hand over: for every completed header with top `t`, enter the
        # network on any link the path automaton can start with. An entry
        # is only useful when the packet can be forwarded further (the
        # link has a rule for that top label): one-step traces — where
        # the packet enters and immediately leaves — are handled in
        # closed form by :func:`find_one_step_witness`, never through the
        # pushdown, which keeps this construction linear instead of
        # |labels| × |links|.
        entry_states: List[Tuple[Any, Label]] = []
        b_nfa = self.b_nfa
        routing = self.network.routing
        for q, top in accepting_pairs:
            for link in self.network.topology.links:
                if not routing.has_rule(link, top):
                    continue
                for q_b in b_nfa.step_set(b_nfa.initial, link):
                    state = self._link_state(link, q_b, 0)
                    costs = StepCosts.for_link(link, self.distance_of)
                    self.pds.add_rule(
                        ("hdr", q, top),
                        top,
                        state,
                        (top,),
                        self._weight(costs),
                        tag=("entry", link.name),
                    )
                    entry_states.append((state, top))
        return entry_states

    def _link_state(self, link: Link, q_b: int, budget: int) -> Tuple[Any, ...]:
        if self.mode == "under":
            return ("link", link.name, q_b, budget)
        return ("link", link.name, q_b)

    # -- phase 2: routing simulation ------------------------------------
    def _build_routing_phase(
        self, entry_states: Sequence[Tuple[Any, Label]]
    ) -> List[Tuple[Any, ...]]:
        """Generate op-chain rules for every reachable (link, A_b state
        [, budget]) control state; returns all discovered link states."""
        routing = self.network.routing
        b_nfa = self.b_nfa
        # Insertion-ordered (dict-as-set) so the returned state list is
        # discovery-ordered, not hash-ordered.
        seen: Dict[Tuple[Any, ...], None] = {}
        frontier: deque = deque()
        for state, _top in entry_states:
            if state not in seen:
                seen[state] = None
                frontier.append(state)
        while frontier:
            state = frontier.popleft()
            link = self.network.topology.link(state[1])
            q_b = state[2]
            budget = state[3] if self.mode == "under" else 0
            for label in routing.labels_for_link(link):
                groups = routing.lookup(link, label)
                for priority_index, entry in groups.all_entries():
                    required = groups.required_failures(priority_index)
                    if entry.out_link in required:
                        continue  # the chosen link would itself be failed
                    failures_needed = len(required)
                    if self.mode == "over":
                        if failures_needed > self.max_failures:
                            continue
                        next_budget = 0
                    else:
                        next_budget = budget + failures_needed
                        if next_budget > self.max_failures:
                            continue
                    for q_b_next in b_nfa.step(q_b, entry.out_link):
                        target = self._link_state(entry.out_link, q_b_next, next_budget)
                        costs = StepCosts.for_link(
                            entry.out_link,
                            self.distance_of,
                            failures=failures_needed,
                            tunnels=max(0, stack_growth(entry.operations)),
                            likelihood=failure_set_cost(required),
                        )
                        self._compile_chain(
                            state, label, entry.operations, target, costs
                        )
                        if target not in seen:
                            seen[target] = None
                            frontier.append(target)
        return list(seen)

    def _compile_chain(
        self,
        source: Tuple[Any, ...],
        matched_label: Label,
        operations: Tuple[Operation, ...],
        target: Tuple[Any, ...],
        costs: StepCosts,
    ) -> None:
        """Translate one routing entry into a chain of normal-form rules.

        The quantitative weight of the whole step sits on the first rule;
        intermediate rules carry the neutral weight.
        """
        weight = self._weight(costs)
        if not operations:
            self.pds.add_rule(
                source, matched_label, target, (matched_label,), weight, tag=("fwd",)
            )
            return
        # Chain states are *content-addressed*, not numbered per run:
        # the same entry gets the same intermediate state names in every
        # compilation and every network variant.
        chain_key = (source, matched_label, operations, target)
        current_state = source
        # Known top symbol, or None once a pop uncovered unknown content.
        known_top: Optional[Label] = matched_label
        for index, op in enumerate(operations):
            is_last = index == len(operations) - 1
            next_state = target if is_last else ("op", chain_key, index)
            rule_weight = weight if index == 0 else self._one()
            self._compile_op(current_state, known_top, op, next_state, rule_weight)
            known_top = self._next_known_top(known_top, op)
            current_state = next_state

    def _next_known_top(
        self, known_top: Optional[Label], op: Operation
    ) -> Optional[Label]:
        if isinstance(op, (Swap, Push)):
            return op.label
        return None  # after a pop the uncovered symbol is unknown

    def _tops_for_unknown(self, op: Operation) -> Tuple[Label, ...]:
        """Feasible top symbols for an operation on an *unknown* top.

        Validity of the rewritten header restricts the candidates by
        label kind, which keeps the expansion small.
        """
        if isinstance(op, Swap):
            if op.label.is_mpls:
                return self.plain_labels
            if op.label.is_bottom_mpls:
                return self.bottom_labels
            return self.ip_labels
        if isinstance(op, Push):
            if op.label.is_mpls:
                return self.plain_labels + self.bottom_labels
            if op.label.is_bottom_mpls:
                return self.ip_labels
            return ()
        # Pop: anything poppable.
        return self.plain_labels + self.bottom_labels

    def _compile_op(
        self,
        source: Any,
        known_top: Optional[Label],
        op: Operation,
        target: Any,
        weight: Any,
    ) -> None:
        tops = (known_top,) if known_top is not None else self._tops_for_unknown(op)
        for top in tops:
            if isinstance(op, Swap):
                if not self._swap_valid(top, op.label):
                    continue
                self.pds.add_rule(
                    source, top, target, (op.label,), weight, tag=("op", op)
                )
            elif isinstance(op, Push):
                if not self._push_valid(top, op.label):
                    continue
                self.pds.add_rule(
                    source, top, target, (op.label, top), weight, tag=("op", op)
                )
            else:  # Pop
                if top.is_ip or top.is_stack_bottom:
                    continue
                self.pds.add_rule(source, top, target, (), weight, tag=("op", op))

    @staticmethod
    def _swap_valid(top: Label, replacement: Label) -> bool:
        if top.is_stack_bottom:
            return False
        return top.kind is replacement.kind

    @staticmethod
    def _push_valid(top: Label, pushed: Label) -> bool:
        if top.is_stack_bottom:
            return False
        if top.is_ip:
            return pushed.is_bottom_mpls
        return pushed.is_mpls

    # -- phase 3: final-header check ------------------------------------
    def _build_check_phase(self, link_states: Iterable[Tuple[Any, ...]]) -> None:
        c_nfa = self.c_nfa
        # Pop-and-read rules inside the check phase. Only states reachable
        # *after* the first symbol can host them (entry rules below jump
        # straight past the first symbol of c).
        interior = {
            edge.target
            for state in range(c_nfa.state_count)
            for edge in c_nfa.edges_from(state)
        }
        for state in sorted(interior):
            for edge in c_nfa.edges_from(state):
                for label in sorted(edge.symbols, key=str):
                    self.pds.add_rule(
                        ("chk", state),
                        label,
                        ("chk", edge.target),
                        (),
                        self._one(),
                        tag=("chk",),
                    )
        # Entry into the check phase from accepting path states, merged
        # with the first pop (keeps the construction ε-free). A naive
        # expansion would emit |accepting states| × |first(c)| rules; we
        # instead run the top-of-stack analysis on the phases built so far
        # and only generate rules for labels that can actually be on top
        # at each state — the same static analysis the reductions use.
        from repro.pda.reductions import analyze_top_of_stack

        analysis = analyze_top_of_stack(self.pds, START, BOTTOM)
        first_targets: Dict[Label, Set[int]] = {}
        for q0 in c_nfa.initial:
            for edge in c_nfa.edges_from(q0):
                for label in edge.symbols:
                    first_targets.setdefault(label, set()).add(edge.target)
        accepting_b = self.b_nfa.accepting
        for state in link_states:
            if state[2] not in accepting_b:
                continue
            possible_tops = analysis.tops.get(state, ())
            for label in sorted(possible_tops, key=str):
                for target_state in sorted(first_targets.get(label, ())):
                    self.pds.add_rule(
                        state,
                        label,
                        ("chk", target_state),
                        (),
                        self._one(),
                        tag=("chk-enter",),
                    )
        # Acceptance once the stack is down to the bottom marker.
        for q in c_nfa.accepting:
            self.pds.add_rule(
                ("chk", q), BOTTOM, ACCEPT, (BOTTOM,), self._one(), tag=("accept",)
            )
