"""The interned saturation core against its tuple oracle, PDA by PDA.

:mod:`repro.pda.reference` keeps the pre-interning (symbolic, tuple
keyed) reductions and saturations verbatim, and
:func:`repro.pda.solver.solve_reachability` selects between the two with
``core=``. The engine-level differential suites compare verdicts and
traces; this file pins the layer below them:

* the two reduction pipelines keep the same rules, in the same order,
  with the same report;
* the two saturations reach the same fixpoint — equal symbolic weight
  maps (:func:`_digest`) — on random systems in any insertion order, and
  on compiled builtin and synthesized systems mutated by seeded rule
  deltas, where their witness runs also replay and coincide;
* budgets, deadlines, early termination and observability counters
  behave alike on both cores.

Saturation computes the least fixpoint of a monotone operator, and
least fixpoints are unique, so equal digests after a full saturation
mean the cores are interchangeable on that system.
"""

import hashlib
import pickle
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import PdaError, ReproError, VerificationTimeout
from repro.pda.poststar import poststar_single
from repro.pda.prestar import prestar_single
from repro.pda.reductions import reduce_pushdown
from repro.pda.reference import (
    reference_poststar_single,
    reference_prestar_single,
    reference_reduce_pushdown,
)
from repro.pda.semiring import BOOLEAN, MIN_PLUS, vector_semiring
from repro.pda.solver import solve_reachability
from repro.pda.system import Configuration, PushdownSystem, run_rules
from repro.query.parser import parse_query
from repro.verification.compiler import QueryCompiler
from repro.verification.engine import VerificationEngine
from tests.pda.conftest import (
    CORE_MATRIX,
    builtin_network,
    fuzz_seeds,
    query_corpus,
    synthesized_network,
)

SEEDS = fuzz_seeds()

SATURATIONS = {
    "interned": (poststar_single, prestar_single),
    "tuple": (reference_poststar_single, reference_prestar_single),
}

SEMIRINGS = {
    "bool": (BOOLEAN, lambda rng: True),
    "minplus": (MIN_PLUS, lambda rng: rng.randint(0, 5)),
    "vec2": (vector_semiring(2), lambda rng: (rng.randint(0, 3), rng.randint(0, 3))),
}


def _random_rules(seed, weight_of, rules=25, states=5, symbols=4):
    """``rules`` seeded normal-form rules as ``add_rule`` argument tuples."""
    rng = random.Random(seed)
    state_names = [f"s{i}" for i in range(states)]
    symbol_names = [f"g{i}" for i in range(symbols)]
    specs = []
    for _ in range(rules):
        kind = rng.choice(["pop", "swap", "push"])
        push = {
            "pop": (),
            "swap": (rng.choice(symbol_names),),
            "push": (rng.choice(symbol_names), rng.choice(symbol_names)),
        }[kind]
        specs.append(
            (
                rng.choice(state_names),
                rng.choice(symbol_names),
                rng.choice(state_names),
                push,
                weight_of(rng),
            )
        )
    return specs


def _build(specs):
    pds = PushdownSystem()
    for spec in specs:
        pds.add_rule(*spec)
    return pds


def _random_pds(seed, weight_of, rules=25):
    return _build(_random_rules(seed, weight_of, rules=rules))


def _digest(automaton):
    """SHA-256 of an automaton's symbolic weight map, for either core.

    Packed-int keys (interned core) are resolved through the symbol
    tables; tuple keys (reference core) are used as they are.
    """
    lines = []
    for key, weight in automaton.weights.items():
        if hasattr(automaton, "resolve_key"):
            key = automaton.resolve_key(key)
        source, symbol, target = key
        lines.append(f"{source!r}|{symbol!r}|{target!r}|{weight!r}")
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _saturate(core, method, pds, semiring, head, **kwargs):
    poststar_fn, prestar_fn = SATURATIONS[core]
    saturate = poststar_fn if method == "poststar" else prestar_fn
    return saturate(pds, semiring, head[0], head[1], **kwargs)


def _spec(rule):
    return (rule.from_state, rule.pop, rule.to_state, rule.push, rule.weight, rule.tag)


def _random_rule_delta(rng, current, max_removed=3, max_added=3):
    """One seeded retract/add mutation over a list of rule specs.

    Removes a sample of ``current`` and adds fresh rules over the states
    and symbols the system already mentions, now and then with a symbol
    it has never seen.
    """
    removed = rng.sample(current, rng.randint(0, min(max_removed, len(current))))
    states = sorted({s[0] for s in current} | {s[2] for s in current}, key=repr)
    symbols = sorted(
        {s[1] for s in current} | {sym for s in current for sym in s[3]}, key=repr
    )
    added = []
    for index in range(rng.randint(0, max_added)):
        push = {
            "pop": (),
            "swap": (rng.choice(symbols),),
            "push": (rng.choice(symbols), rng.choice(symbols)),
        }[rng.choice(["pop", "swap", "push"])]
        if rng.random() < 0.1:
            push = (("fresh", rng.randint(0, 9)),) + push[1:]
        added.append(
            (
                rng.choice(states),
                rng.choice(symbols),
                rng.choice(states),
                push,
                True,
                ("mut", rng.randrange(1 << 30), index),
            )
        )
    return removed, added


def _mutated_systems(compiled, rng, steps):
    """``steps`` successive mutations of a compiled system, each rebuilt
    from scratch in a canonical rule order."""
    current = Counter(_spec(rule) for rule in compiled.pds.rules)
    for _ in range(steps):
        removed, added = _random_rule_delta(rng, sorted(current, key=repr))
        current.subtract(Counter(removed))
        current.update(Counter(added))
        current = +current
        yield _build(sorted(current.elements(), key=repr))


def _compiled(network, seed=1009, index=0, count=2):
    query = parse_query(query_corpus(network, seed, count=count)[index].text)
    return QueryCompiler(network).compile(query, mode="over")


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("target", [None, "s3"])
def test_reference_reduction_matches_interned_reduction(seed, target):
    pds = _random_pds(seed, lambda r: r.randint(0, 5), rules=30)
    reduced, report = reduce_pushdown(pds, "s0", "g0", target_state=target)
    expected, expected_report = reference_reduce_pushdown(
        pds, "s0", "g0", target_state=target
    )

    def key(rule):
        return (rule.from_state, rule.pop, rule.to_state, rule.push, rule.weight)

    assert [key(rule) for rule in reduced.rules] == [
        key(rule) for rule in expected.rules
    ]
    assert report == expected_report


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    weight_kind=st.sampled_from(sorted(SEMIRINGS)),
    method=st.sampled_from(["poststar", "prestar"]),
)
def test_reductions_never_change_the_answer(seed, weight_kind, method):
    """§4.2 reductions prune work, never answers, on either core."""
    semiring, weight_of = SEMIRINGS[weight_kind]
    pds = _random_pds(seed, weight_of, rules=24)
    answers = {
        (core, reductions): solve_reachability(
            pds,
            semiring,
            ("s0", "g0"),
            ("s3", "g1"),
            method=method,
            core=core,
            use_reductions=reductions,
        )
        for core in CORE_MATRIX
        for reductions in (True, False)
    }
    assert len({(a.reachable, repr(a.weight)) for a in answers.values()}) == 1


# ----------------------------------------------------------------------
# fixpoints on random systems
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    order_seed=st.integers(min_value=0, max_value=10_000),
    weight_kind=st.sampled_from(sorted(SEMIRINGS)),
    method=st.sampled_from(["poststar", "prestar"]),
)
def test_fixpoint_is_independent_of_core_and_insertion_order(
    seed, order_seed, weight_kind, method
):
    """The tuple core on the original rule order and the interned core
    on a random permutation (other dense ids, other index layout) land
    on the same weight map."""
    semiring, weight_of = SEMIRINGS[weight_kind]
    rules = _random_rules(seed, weight_of, rules=24)
    shuffled = list(rules)
    random.Random(order_seed).shuffle(shuffled)
    head = ("s0", "g0") if method == "poststar" else ("s3", "g1")
    expected = _saturate("tuple", method, _build(rules), semiring, head)
    actual = _saturate("interned", method, _build(shuffled), semiring, head)
    assert _digest(actual.automaton) == _digest(expected.automaton)


def test_accept_weights_agree_on_every_head():
    pds = _random_pds(7, lambda r: r.randint(0, 5))
    interned = poststar_single(pds, MIN_PLUS, "s0", "g0").automaton
    reference = reference_poststar_single(pds, MIN_PLUS, "s0", "g0").automaton
    for state in [f"s{i}" for i in range(5)] + [("nowhere", 9)]:
        for symbol in [f"g{i}" for i in range(4)]:
            expected, _ = reference.accept_weight(state, (symbol,))
            actual, _ = interned.accept_weight(state, (symbol,))
            assert actual == expected, (state, symbol)


@pytest.mark.parametrize("core", CORE_MATRIX)
def test_zero_weight_rules_never_fire(core):
    """A rule weighted with the boolean zero relaxes nothing: the
    fixpoint equals the one of the system without it."""
    live = [("a", "x", "b", ("y",), True), ("b", "y", "c", ("y", "x"), True)]
    dead = [("b", "y", "d", ("z",), False), ("a", "x", "e", (), False)]
    with_dead = _saturate(core, "poststar", _build(live + dead), BOOLEAN, ("a", "x"))
    without = _saturate(core, "poststar", _build(live), BOOLEAN, ("a", "x"))
    assert _digest(with_dead.automaton) == _digest(without.automaton)
    assert not with_dead.automaton.accepts("d", ("z", "y", "x"))


def test_non_integer_weights_solve_alike_on_both_cores():
    pds = PushdownSystem()
    pds.add_rule("a", "x", "b", ("y",), 1.5)
    pds.add_rule("b", "y", "c", (), 0.5)
    for core in CORE_MATRIX:
        outcome = solve_reachability(pds, MIN_PLUS, ("a", "x"), ("b", "y"), core=core)
        assert outcome.reachable, core
        assert outcome.weight == 1.5, core


# ----------------------------------------------------------------------
# solver facade
# ----------------------------------------------------------------------


@pytest.mark.parametrize("method", ["poststar", "prestar"])
def test_solver_outcomes_are_identical_across_cores(method):
    # Seed 13 reaches ⟨s3, g1⟩ from ⟨s0, g0⟩ through a 12-rule run.
    pds = _random_pds(13, lambda r: r.randint(0, 5), rules=30)
    outcomes = {
        core: solve_reachability(
            pds, MIN_PLUS, ("s0", "g0"), ("s3", "g1"), method=method, core=core
        )
        for core in CORE_MATRIX
    }
    interned, reference = outcomes["interned"], outcomes["tuple"]
    assert interned.reachable and interned.rules
    assert interned.weight == reference.weight
    assert repr(interned.rules) == repr(reference.rules)
    assert interned.stats.rules_after == reference.stats.rules_after
    assert (
        interned.stats.automaton_transitions
        == reference.stats.automaton_transitions
    )


@pytest.mark.parametrize("core", ["vectorized", "incremental", "INTERNED"])
def test_unknown_cores_are_rejected(core):
    pds = _random_pds(1, lambda r: True)
    with pytest.raises(PdaError, match="unknown solver core"):
        solve_reachability(pds, BOOLEAN, ("s0", "g0"), ("s3", "g1"), core=core)
    with pytest.raises(ReproError, match="unknown solver core"):
        VerificationEngine(builtin_network("example"), core=core)


# ----------------------------------------------------------------------
# budgets, early termination, counters — on both cores
# ----------------------------------------------------------------------


@pytest.mark.parametrize("core", CORE_MATRIX)
def test_step_budget_is_enforced(core):
    # Seed 1 saturates through hundreds of facts in both directions.
    pds = _random_pds(1, lambda r: True, rules=40)
    for method in ("poststar", "prestar"):
        with pytest.raises(PdaError, match="step budget"):
            _saturate(core, method, pds, BOOLEAN, ("s0", "g0"), max_steps=3)


@pytest.mark.parametrize("core", CORE_MATRIX)
def test_expired_deadline_raises(core):
    pds = _random_pds(1, lambda r: True, rules=40)
    expired = time.perf_counter() - 1.0
    for method in ("poststar", "prestar"):
        with pytest.raises(VerificationTimeout):
            _saturate(core, method, pds, BOOLEAN, ("s0", "g0"), deadline=expired)


def _reached_heads(pds, semiring, automaton):
    """Every head ⟨state, symbol⟩ of ``pds`` the saturation reached."""
    return [
        (state, symbol)
        for state in sorted(pds.states)
        for symbol in sorted(pds.symbols)
        if not semiring.is_zero(automaton.accept_weight(state, (symbol,))[0])
    ]


@pytest.mark.parametrize("core", CORE_MATRIX)
def test_early_termination_keeps_the_full_answer(core):
    """Stopping at the target transition never does more work and never
    changes the target's weight, in set mode and in min-plus mode."""
    for semiring, weight_of in (SEMIRINGS["bool"], SEMIRINGS["minplus"]):
        # Seed 4 reaches 17-18 heads with either weight kind.
        pds = _random_pds(4, weight_of, rules=40)
        full = _saturate(core, "poststar", pds, semiring, ("s0", "g0"))
        heads = _reached_heads(pds, semiring, full.automaton)
        heads.remove(("s0", "g0"))
        assert heads, "the saturation must reach beyond its initial head"
        saved = 0
        for state, symbol in heads:
            expected, _ = full.automaton.accept_weight(state, (symbol,))
            early = _saturate(
                core, "poststar", pds, semiring, ("s0", "g0"), target=(state, symbol)
            )
            assert early.early_terminated
            assert (
                early.automaton.transition_count()
                <= full.automaton.transition_count()
            )
            actual, _ = early.automaton.accept_weight(state, (symbol,))
            assert actual == expected, (state, symbol)
            if early.iterations < full.iterations:
                saved += 1
        assert saved > 0, "early termination never stopped a run early"


@pytest.mark.parametrize("core", CORE_MATRIX)
def test_obs_counters_record_runs_and_iterations(core):
    pds = _random_pds(2, lambda r: True)
    with obs.recording():
        post = _saturate(core, "poststar", pds, BOOLEAN, ("s0", "g0"))
        pre = _saturate(core, "prestar", pds, BOOLEAN, ("s0", "g0"))
        counters = obs.counters()
    assert counters.get("pda.poststar.runs") == 1
    assert counters.get("pda.prestar.runs") == 1
    assert counters.get("pda.saturation_iterations") == (
        post.iterations + pre.iterations
    )
    assert counters.get("pda.transitions_added") == (
        post.automaton.transition_count() + pre.automaton.transition_count()
    )


# ----------------------------------------------------------------------
# compiled systems: pickling, shared tables, insertion order
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["example", "abilene", "nsfnet", "nordunet", "geant"])
def test_pickled_system_saturates_identically(name):
    """A compiled system survives the trip to a farm worker: the same
    rules with the same dense ids, and the same fixpoint."""
    compiled = _compiled(builtin_network(name))
    pds = compiled.pds
    loaded = pickle.loads(pickle.dumps(pds))

    def rows(system):
        return [
            (_spec(r), r.from_id, r.pop_id, r.to_id, r.push_ids) for r in system.rules
        ]

    assert rows(loaded) == rows(pds)
    assert loaded.states == pds.states and loaded.symbols == pds.symbols
    expected = poststar_single(pds, compiled.semiring, *compiled.initial)
    actual = poststar_single(loaded, compiled.semiring, *compiled.initial)
    assert _digest(actual.automaton) == _digest(expected.automaton)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.sampled_from(SEEDS),
    keep_seed=st.integers(min_value=0, max_value=10_000),
    method=st.sampled_from(["poststar", "prestar"]),
)
def test_shared_table_subsystem_matches_a_fresh_build(seed, keep_seed, method):
    """``replace_rules`` adopts rules interned by a larger system; the
    subsystem must saturate exactly like the same rules built afresh."""
    compiled = _compiled(synthesized_network(seed), seed=seed)
    rules = list(compiled.pds.rules)
    kept = random.Random(keep_seed).sample(rules, len(rules) * 2 // 3)
    shared = compiled.pds.replace_rules(kept)
    fresh = _build([_spec(rule) for rule in kept])
    head = compiled.initial if method == "poststar" else compiled.target
    expected = _saturate("tuple", method, fresh, compiled.semiring, head)
    actual = _saturate("interned", method, shared, compiled.semiring, head)
    assert _digest(actual.automaton) == _digest(expected.automaton)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.sampled_from(SEEDS),
    order_seed=st.integers(min_value=0, max_value=10_000),
    method=st.sampled_from(["poststar", "prestar"]),
)
def test_compiled_rule_order_never_changes_the_fixpoint(seed, order_seed, method):
    compiled = _compiled(synthesized_network(seed), seed=seed)
    specs = [_spec(rule) for rule in compiled.pds.rules]
    shuffled = list(specs)
    random.Random(order_seed).shuffle(shuffled)
    head = compiled.initial if method == "poststar" else compiled.target
    expected = _saturate("interned", method, compiled.pds, compiled.semiring, head)
    actual = _saturate("interned", method, _build(shuffled), compiled.semiring, head)
    assert _digest(actual.automaton) == _digest(expected.automaton)


# ----------------------------------------------------------------------
# mutation sequences over compiled systems
# ----------------------------------------------------------------------

#: (builtin, corpus index, mutation steps). The two big builtins
#: compile to thousands of rules and walk fewer steps; the example's
#: first corpus query compiles to two rules, so it mutates the second.
MUTATION_NETWORKS = (
    ("example", 1, 5),
    ("abilene", 0, 4),
    ("nsfnet", 0, 4),
    ("nordunet", 0, 2),
    ("geant", 0, 2),
)


@pytest.mark.parametrize("name,index,steps", MUTATION_NETWORKS, ids=lambda p: str(p))
@pytest.mark.parametrize("method", ["poststar", "prestar"])
def test_builtin_mutation_sequence_cores_agree(name, index, steps, method):
    compiled = _compiled(builtin_network(name), index=index)
    head = compiled.initial if method == "poststar" else compiled.target
    rng = random.Random(SEEDS[0] * 7919 + steps)
    for pds in _mutated_systems(compiled, rng, steps):
        expected = _saturate("tuple", method, pds, compiled.semiring, head)
        actual = _saturate("interned", method, pds, compiled.semiring, head)
        assert _digest(actual.automaton) == _digest(expected.automaton), (
            f"{name}/{method}: interned fixpoint diverged from the tuple core"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", ["poststar", "prestar"])
def test_synthesized_mutation_sequence_cores_agree(seed, method):
    compiled = _compiled(synthesized_network(seed), seed=seed)
    head = compiled.initial if method == "poststar" else compiled.target
    for pds in _mutated_systems(compiled, random.Random(seed), 6):
        expected = _saturate("tuple", method, pds, compiled.semiring, head)
        actual = _saturate("interned", method, pds, compiled.semiring, head)
        assert _digest(actual.automaton) == _digest(expected.automaton)
        answers = [
            solve_reachability(
                pds, compiled.semiring, compiled.initial, compiled.target,
                method=method, core=core,
            )
            for core in CORE_MATRIX
        ]
        assert len({(a.reachable, repr(a.weight)) for a in answers}) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_witnesses_replay_after_mutation(seed):
    """On every compiled system and its mutations, a reachable answer's
    rule run replays from the initial configuration to the target, and
    both cores reconstruct the same run."""
    network = synthesized_network(seed)
    replayed = 0
    for index in range(len(query_corpus(network, seed))):
        compiled = _compiled(network, seed=seed, index=index, count=4)
        mutated = _mutated_systems(compiled, random.Random(seed + index), 2)
        for pds in [compiled.pds, *mutated]:
            outcomes = {
                core: solve_reachability(
                    pds, compiled.semiring, compiled.initial, compiled.target,
                    core=core,
                )
                for core in CORE_MATRIX
            }
            run = outcomes["interned"].rules
            assert repr(run) == repr(outcomes["tuple"].rules)
            if run is None:
                continue
            state, symbol = compiled.initial
            configurations = run_rules(Configuration(state, (symbol,)), run)
            final_state, final_symbol = compiled.target
            assert configurations[-1].state == final_state
            assert configurations[-1].stack[0] == final_symbol
            replayed += 1
    assert replayed > 0, f"seed {seed}: no compiled system had a witness"
