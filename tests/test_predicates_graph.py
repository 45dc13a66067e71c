"""Unit tests for predicate graphs: satisfiability, closure, minimization."""

from fractions import Fraction

import pytest

from repro.predicates import (
    ZERO,
    Bound,
    PredicateGraph,
    UnsatisfiableError,
    graph_from_atoms,
    normalize_comparison,
)
from repro.xmlkit import Path

A = Path("s/i/a")
B = Path("s/i/b")
C = Path("s/i/c")


def F(value):
    return Fraction(str(value))


def atoms(*specs):
    out = []
    for left, op, right, const in specs:
        out.extend(normalize_comparison(left, op, right, F(const)))
    return out


class TestConstruction:
    def test_parallel_edges_keep_tightest(self):
        graph = PredicateGraph(atoms((A, "<=", None, 5), (A, "<=", None, 3)))
        assert graph.bound(A, ZERO) == Bound(F(3))
        assert len(graph) == 1

    def test_trivial_self_edge_dropped(self):
        graph = PredicateGraph(atoms((A, "<=", A, 0)))
        assert graph.is_empty()

    def test_contradictory_self_edge_rejected(self):
        with pytest.raises(UnsatisfiableError):
            PredicateGraph(atoms((A, "<", A, 0)))

    def test_describe(self):
        graph = PredicateGraph(atoms((A, ">=", None, 1)))
        assert "s/i/a >= 1" in graph.describe()
        assert PredicateGraph().describe() == "true"

    def test_edges_at(self):
        graph = PredicateGraph(atoms((A, "<=", None, 5), (B, "<=", None, 2)))
        assert len(graph.edges_at(A)) == 1
        assert len(graph.edges_at(ZERO)) == 2


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert PredicateGraph().is_satisfiable()

    def test_simple_range(self):
        graph = PredicateGraph(atoms((A, ">=", None, 1), (A, "<=", None, 5)))
        assert graph.is_satisfiable()

    def test_empty_range_rejected(self):
        graph = PredicateGraph(atoms((A, ">=", None, 5), (A, "<=", None, 1)))
        assert not graph.is_satisfiable()
        with pytest.raises(UnsatisfiableError):
            graph.check_satisfiable()

    def test_boundary_is_satisfiable(self):
        graph = PredicateGraph(atoms((A, ">=", None, 5), (A, "<=", None, 5)))
        assert graph.is_satisfiable()

    def test_strict_boundary_unsatisfiable(self):
        graph = PredicateGraph(atoms((A, ">", None, 5), (A, "<=", None, 5)))
        assert not graph.is_satisfiable()

    def test_transitive_contradiction(self):
        # a <= b, b <= c, c <= a - 1 is a negative cycle.
        graph = PredicateGraph(
            atoms((A, "<=", B, 0), (B, "<=", C, 0), (C, "<=", A, -1))
        )
        assert not graph.is_satisfiable()

    def test_equality_cycle_satisfiable(self):
        graph = PredicateGraph(atoms((A, "=", B, 0), (B, "=", C, 0), (C, "=", A, 0)))
        assert graph.is_satisfiable()


class TestClosure:
    def test_derives_transitive_bound(self):
        graph = PredicateGraph(atoms((A, "<=", B, 2), (B, "<=", None, 5)))
        closure = graph.closure()
        assert closure[(A, ZERO)] == Bound(F(7))

    def test_strictness_propagates(self):
        graph = PredicateGraph(atoms((A, "<", B, 0), (B, "<=", None, 5)))
        assert graph.closure()[(A, ZERO)] == Bound(F(5), True)

    def test_derived_interval(self):
        graph = PredicateGraph(
            atoms((A, "<=", B, 0), (B, "<=", None, 5), (A, ">=", None, 1))
        )
        assert graph.derived_interval(A) == (F(1), F(5))
        assert graph.derived_interval(B) == (F(1), F(5))  # b >= a >= 1

    def test_unbounded_side(self):
        graph = PredicateGraph(atoms((A, ">=", None, 1)))
        assert graph.derived_interval(A) == (F(1), None)


class TestMinimization:
    def test_redundant_bound_dropped(self):
        graph = PredicateGraph(atoms((A, "<=", None, 3), (A, "<=", None, 5)))
        assert len(graph.minimized()) == 1

    def test_transitively_redundant_edge_dropped(self):
        # a <= b, b <= 5 make a <= 9 redundant.
        graph = PredicateGraph(
            atoms((A, "<=", B, 0), (B, "<=", None, 5), (A, "<=", None, 9))
        )
        minimized = graph.minimized()
        assert minimized.bound(A, ZERO) is None
        assert len(minimized) == 2

    def test_tighter_direct_bound_kept(self):
        graph = PredicateGraph(
            atoms((A, "<=", B, 0), (B, "<=", None, 5), (A, "<=", None, 3))
        )
        assert graph.minimized().bound(A, ZERO) == Bound(F(3))

    def test_equality_cycle_preserves_information(self):
        graph = PredicateGraph(atoms((A, "=", B, 0), (B, "=", C, 0), (C, "=", A, 0)))
        minimized = graph.minimized()
        closure = minimized.closure()
        assert closure[(A, C)] == Bound(F(0))
        assert closure[(C, A)] == Bound(F(0))

    def test_minimization_preserves_closure(self):
        graph = PredicateGraph(
            atoms(
                (A, ">=", None, 1),
                (A, "<=", None, 5),
                (A, "<=", B, 0),
                (B, "<=", None, 5),
                (A, "<=", None, 9),
            )
        )
        original = graph.closure()
        minimized = graph.minimized().closure()
        for key, bound in minimized.items():
            assert original[key] == bound
        for key, bound in original.items():
            assert minimized[key] == bound

    def test_graph_from_atoms_pipeline(self):
        graph = graph_from_atoms(atoms((A, ">=", None, 1), (A, ">=", None, 0)))
        assert len(graph) == 1
        with pytest.raises(UnsatisfiableError):
            graph_from_atoms(atoms((A, ">", None, 1), (A, "<", None, 1)))

    def test_graph_from_atoms_checks_satisfiability_once(self, monkeypatch):
        """One Bellman–Ford run per graph, satisfiable or not, and the
        rejection names the predicate as the check always has."""
        checks = []
        is_satisfiable = PredicateGraph.is_satisfiable

        def counted(self):
            checks.append(self)
            return is_satisfiable(self)

        monkeypatch.setattr(PredicateGraph, "is_satisfiable", counted)
        graph_from_atoms(atoms((A, ">=", None, 1), (A, "<=", B, 0), (B, "<=", None, 3)))
        assert len(checks) == 1
        contradiction = atoms((A, ">", B, 1), (B, ">", None, 2), (A, "<", None, 3))
        with pytest.raises(UnsatisfiableError) as raised:
            graph_from_atoms(contradiction)
        assert len(checks) == 2
        assert str(raised.value) == (
            f"predicate is unsatisfiable: {PredicateGraph(contradiction).describe()}"
        )

    def test_isolated_nodes_preserved(self):
        graph = PredicateGraph(atoms((A, "<=", None, 5), (A, "<=", None, 9)))
        assert set(graph.minimized().nodes) == set(graph.nodes)
