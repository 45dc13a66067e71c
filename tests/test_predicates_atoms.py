"""Unit tests for bounds and normalization."""

from fractions import Fraction

import pytest

from repro.predicates import (
    ZERO,
    Bound,
    NormalizationError,
    normalize_comparison,
)
from repro.xmlkit import Path

X = Path("s/i/x")
Y = Path("s/i/y")


def F(value):
    return Fraction(str(value))


class TestBound:
    def test_addition(self):
        assert Bound(F(2)) + Bound(F(3)) == Bound(F(5))

    def test_addition_propagates_strictness(self):
        assert (Bound(F(2), True) + Bound(F(3))).strict is True
        assert (Bound(F(2)) + Bound(F(3))).strict is False

    def test_tightness_order_by_value(self):
        assert Bound(F(3)) < Bound(F(5))
        assert not Bound(F(5)) < Bound(F(3))

    def test_strict_is_tighter_at_equal_value(self):
        assert Bound(F(3), True) < Bound(F(3), False)
        assert Bound(F(3), True) <= Bound(F(3), True)

    def test_implication(self):
        # v <= 3 implies v <= 5
        assert Bound(F(3)).implies(Bound(F(5)))
        # v < 3 implies v <= 3
        assert Bound(F(3), True).implies(Bound(F(3)))
        # v <= 3 does NOT imply v < 3
        assert not Bound(F(3)).implies(Bound(F(3), True))

    def test_infeasible_cycles(self):
        assert Bound(F(-1)).is_infeasible_cycle()
        assert Bound(F(0), True).is_infeasible_cycle()
        assert not Bound(F(0)).is_infeasible_cycle()
        assert not Bound(F(1)).is_infeasible_cycle()


class TestNormalization:
    def test_upper_bound(self):
        (atom,) = normalize_comparison(X, "<=", None, F(5))
        assert (atom.source, atom.target) == (X, ZERO)
        assert atom.bound == Bound(F(5))

    def test_strict_upper_bound(self):
        (atom,) = normalize_comparison(X, "<", None, F(5))
        assert atom.bound == Bound(F(5), True)

    def test_lower_bound(self):
        (atom,) = normalize_comparison(X, ">=", None, F(5))
        assert (atom.source, atom.target) == (ZERO, X)
        assert atom.bound == Bound(F(-5))

    def test_strict_lower_bound(self):
        (atom,) = normalize_comparison(X, ">", None, F(5))
        assert atom.bound == Bound(F(-5), True)

    def test_equality_creates_two_atoms(self):
        atoms = normalize_comparison(X, "=", None, F(5))
        assert len(atoms) == 2
        directions = {(a.source, a.target) for a in atoms}
        assert directions == {(X, ZERO), (ZERO, X)}

    def test_variable_comparison(self):
        (atom,) = normalize_comparison(X, "<=", Y, F(3))
        assert (atom.source, atom.target) == (X, Y)
        assert atom.bound == Bound(F(3))

    def test_variable_ge_swaps_direction(self):
        (atom,) = normalize_comparison(X, ">=", Y, F(3))
        assert (atom.source, atom.target) == (Y, X)
        assert atom.bound == Bound(F(-3))

    def test_unknown_operator(self):
        with pytest.raises(NormalizationError):
            normalize_comparison(X, "!=", None, F(1))
