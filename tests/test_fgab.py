import random

import pytest
from hypothesis import given, settings, strategies as st

from ckext.exactmat import DimensionMismatchError, IntMatrix
from ckext.fgab import FgAbelianGroup, ParentMismatchError, certified_group, element_order
from lattice_oracles import cokernel, lattice_contains


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def presentations(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    c = draw(st.integers(0, max_dim))
    rows = [[draw(st.integers(-6, 6)) for _ in range(c)] for _ in range(n)]
    return IntMatrix(n, c, tuple(tuple(r) for r in rows))


def test_cokernel_free():
    g = cokernel(IntMatrix.zeros(2, 2))
    assert g.free_rank == 2 and g.torsion == ()
    assert g.order() is None


def test_cokernel_z3():
    g = cokernel(mat([[1, 0, -1], [-1, 1, -1], [-1, -1, 0]]))
    assert g.free_rank == 0 and g.torsion == (3,)
    assert g.order() == 3


def test_cokernel_fibonacci_strong_presentation():
    g = cokernel(mat([[0, -1], [0, 2]]))
    assert g.free_rank == 1 and g.torsion == ()


def test_presentation_columns_vanish():
    m = mat([[2, 4], [0, 6]])
    g = cokernel(m)
    for j in range(m.cols):
        assert g.class_of(m.column(j)).is_zero()


def test_class_of_modular_example():
    g = cokernel(mat([[3]]))
    two = g.class_of((2,))
    assert two.torsion_coords == (2,)
    assert two.add(two).torsion_coords == (1,)
    assert two.add(two.negate()).is_zero()
    assert two.scale(0).is_zero()
    assert g.zero().add(two) == two


def test_parent_mismatch():
    a = cokernel(mat([[3]])).class_of((1,))
    b = cokernel(mat([[4]])).class_of((1,))
    with pytest.raises(ParentMismatchError):
        a.add(b)


def test_element_order():
    z4 = cokernel(mat([[4]]))
    assert element_order(z4.zero()) == 1
    assert element_order(z4.class_of((1,))) == 4
    assert element_order(z4.class_of((2,))) == 2
    z = cokernel(IntMatrix.from_columns([], rows=1))
    assert element_order(z.class_of((3,))) is None


def test_mixed_element_order():
    g = cokernel(IntMatrix.from_columns([(2, 0), (0, 6)], rows=2))
    assert g.torsion == (2, 6)
    assert element_order(g.class_of((1, 2))) == 6


def test_coordinates_stable_across_recomputation():
    m = mat([[2, 1, 0], [0, 3, 0], [1, 1, 4]])
    g1, g2 = cokernel(m), cokernel(m)
    assert g1 == g2
    for v in [(1, 2, 3), (0, 0, 1), (5, -7, 2)]:
        assert g1.class_of(v) == g2.class_of(v)


def test_representative_roundtrip():
    g = cokernel(mat([[2, 0, 0], [0, 0, 3], [0, 0, 0]]))
    for v in [(1, 2, 3), (-4, 0, 7), (0, 1, 0)]:
        x = g.class_of(v)
        assert g.class_of(g.representative(x)) == x


@settings(max_examples=120, deadline=None)
@given(presentations(), st.data())
def test_class_of_is_a_homomorphism(m, data):
    g = cokernel(m)
    v = tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rows))
    w = tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rows))
    vw = tuple(a + b for a, b in zip(v, w))
    assert g.class_of(vw) == g.class_of(v).add(g.class_of(w))


@settings(max_examples=120, deadline=None)
@given(presentations(), st.data())
def test_class_vanishes_iff_in_lattice(m, data):
    g = cokernel(m)
    v = tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rows))
    assert g.class_of(v).is_zero() == lattice_contains(m, v)


@settings(max_examples=80, deadline=None)
@given(presentations(), st.data())
def test_scale_is_repeated_addition(m, data):
    g = cokernel(m)
    v = tuple(data.draw(st.integers(-9, 9)) for _ in range(m.rows))
    x = g.class_of(v)
    k = data.draw(st.integers(-5, 5))
    acc = g.zero()
    step = x if k >= 0 else x.negate()
    for _ in range(abs(k)):
        acc = acc.add(step)
    assert acc == x.scale(k)


def test_certified_group_refuses_a_wrong_shape():
    """A coordinate map whose width, or a lift whose height, is not the
    presentation's row count raises DimensionMismatchError, as the products
    it checks are undefined; no entry is left unchecked by a short zip."""
    g = cokernel(mat([[2, 0], [0, 0], [0, 0]]))
    certified_group(g.presentation, g.coords, g.lift, g.factors)
    wide = IntMatrix.from_rows([row + (0,) for row in g.coords.entries])
    tall = g.lift.vstack(IntMatrix.zeros(1, g.lift.cols))
    narrow = IntMatrix.from_rows([row[:-1] for row in g.coords.entries])
    short = IntMatrix(g.lift.rows - 1, g.lift.cols, g.lift.entries[:-1])
    for coords, lift in ((wide, g.lift), (narrow, g.lift), (g.coords, tall),
                         (g.coords, short), (wide, tall)):
        with pytest.raises(DimensionMismatchError):
            certified_group(g.presentation, coords, lift, g.factors)


@settings(max_examples=60, deadline=None)
@given(presentations(), st.data())
def test_columns_in_class_agrees_with_class_of(m, data):
    """columns_in_class(m', a) holds exactly when every column of m' has
    class a."""
    g = cokernel(m)
    cols = data.draw(st.integers(0, 3))
    vs = [tuple(data.draw(st.integers(-4, 4)) for _ in range(m.rows)) for _ in range(cols)]
    a = g.class_of(vs[0]) if vs and data.draw(st.booleans()) else \
        g.class_of([data.draw(st.integers(-4, 4)) for _ in range(m.rows)])
    probe = IntMatrix.from_columns(vs, rows=m.rows)
    assert g.columns_in_class(probe, a) == all(g.class_of(v) == a for v in vs)
    same = IntMatrix.from_columns([g.representative(a)] * 2, rows=m.rows)
    assert g.columns_in_class(same, a)
    with pytest.raises(ParentMismatchError):
        g.columns_in_class(probe, cokernel(mat([[97]])).zero())


@pytest.mark.parametrize("factors", [(2, 3), (6, 4), (1, 4), (0, 2), (4, 0, 8)])
def test_factors_out_of_layout_are_refused(factors):
    """factors must be a divisibility chain of torsion factors > 1, then one
    0 per free coordinate.  The diagonal presentation passes every entry
    check of certified_group, so only the layout is at fault."""
    n = len(factors)
    diagonal = mat([[d * (i == j) for j in range(n)] for i, d in enumerate(factors)])
    eye = IntMatrix.identity(n)
    with pytest.raises(ValueError, match="divisibility chain"):
        certified_group(diagonal, eye, eye, factors)
    with pytest.raises(ValueError, match="divisibility chain"):
        FgAbelianGroup(diagonal, eye, eye, factors)

