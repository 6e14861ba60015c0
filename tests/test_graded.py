"""The integer accumulator behind the weight blocks, the contragredient
transpose and U(rho), against a fold of ``vec_add_into``."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from voablocks.graded import _IntVectors, vec_add_into

LABELS = [(), (1,), (2,), (1, 1), (3,), (2, 1)]
TARGETS = ["a", "b", "c"]

# denominators up to 30 on the entries and up to 12 on the scale, so the
# common denominator grows by lcm many times; ints stand for the integer
# images that U(rho) adds
values = st.one_of(st.builds(F, st.integers(-9, 9), st.integers(1, 30)), st.integers(-9, 9))
ops = st.tuples(st.sampled_from(TARGETS), st.dictionaries(st.sampled_from(LABELS), values),
                st.integers(-6, 6), st.integers(1, 12))


@settings(max_examples=200, derandomize=True)
@given(st.lists(ops, min_size=1, max_size=10), st.data())
def test_int_vectors_match_a_vec_add_into_fold(drawn, data):
    # the drawn terms, all of them negated in a drawn order (so every entry
    # sums back to 0 and is popped, some on the way), then the first half
    # again, so popped entries reappear
    undo = data.draw(st.permutations([(t, items, -n, d) for t, items, n, d in drawn]))
    seq = drawn + undo + drawn[:len(drawn) // 2]
    acc = _IntVectors({t: {} for t in TARGETS})
    want = {t: {} for t in TARGETS}
    for step, (t, items, n, d) in enumerate(seq, start=1):
        acc.add(acc.vecs[t], items.items(), n, d)
        vec_add_into(want[t], items, F(n, d))
        if step == 2 * len(drawn):
            assert acc.vecs == {t: {} for t in TARGETS}
    got = acc.fractions()
    assert list(got) == TARGETS
    for t in TARGETS:
        assert list(got[t].items()) == list(want[t].items()), t
        assert all(type(c) is F for c in got[t].values())
