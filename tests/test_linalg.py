"""Exact linear algebra: solve, certificates, shape errors."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from voablocks.linalg import mat_vec, solve_linear


def test_random_square_solves():
    rng = random.Random(7)
    done = 0
    while done < 30:
        n = rng.randint(1, 5)
        a = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        x = [F(rng.randint(-9, 9)) for _ in range(n)]
        b = mat_vec(a, x)
        res = solve_linear(a, b)
        if not res.unique:
            continue  # singular draw
        assert res.solution == x
        done += 1


def test_inconsistency_certificate():
    a = [[F(1), F(2)], [F(2), F(4)]]
    b = [F(1), F(3)]
    res = solve_linear(a, b)
    assert not res.consistent and res.solution is None
    y = res.certificate
    # y A = 0 and y b != 0
    assert all(sum(y[i] * a[i][j] for i in range(2)) == 0 for j in range(2))
    assert sum(y[i] * b[i] for i in range(2)) != 0


def test_free_columns():
    res = solve_linear([[F(1), F(1)]], [F(3)])
    assert res.consistent and res.free == [1]
    assert res.solution == [F(3), F(0)]


@pytest.mark.parametrize("call, shapes", [
    (lambda: mat_vec([[F(1), F(2)], [F(3), F(4)]], [F(1)]), ("2 x 2", "length 1")),
    (lambda: mat_vec([[F(1), F(2)], [F(3), F(4)]], [F(1)] * 3), ("2 x 2", "length 3")),
    (lambda: mat_vec([[F(1), F(2)], [F(3)]], [F(1)] * 2), ("ragged 2-row", "length 2")),
], ids=["vec-short", "vec-long", "ragged-rows"])
def test_shape_mismatch_names_both_shapes(call, shapes):
    # a mismatch must not drop columns silently or fail on an index
    with pytest.raises(ValueError) as exc:
        call()
    assert all(s in str(exc.value) for s in shapes)


entries = st.one_of(st.just(F(0)), st.builds(F, st.integers(-5, 5), st.integers(1, 3)))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.tuples(matrices(m, n), st.lists(entries, min_size=m, max_size=m)))))
def test_solve_or_certificate(system):
    a, b = system
    res = solve_linear(a, b)
    if res.consistent:
        assert mat_vec(a, res.solution) == b
        assert all(res.solution[c] == 0 for c in res.free)
        assert res.rank + len(res.free) == len(a[0])
    else:
        y = res.certificate
        assert all(sum((y[i] * a[i][j] for i in range(len(a))), F(0)) == 0
                   for j in range(len(a[0])))
        assert sum((yi * bi for yi, bi in zip(y, b)), F(0)) != 0
