"""The seeded draws reproduce rng.randint's stream, value for value and
state for state, so every seeded campaign keeps its cases."""

import random

import pytest

from posetdet import randgen
from posetdet.randgen import _random_values, _uniform, random_poset, random_weights


@pytest.mark.parametrize("bound", [4, 5])
def test_uniform_draws_what_randint_draws(bound):
    for seed in range(500):
        count = seed % 201
        ref, rng = random.Random(seed), random.Random(seed)
        draws = _uniform(rng, bound)
        expected = [ref.randint(-bound, bound) for _ in range(count)]
        assert [next(draws) for _ in range(count)] == expected
        assert rng.getstate() == ref.getstate()
        # Another draw between two pulls of the same generator.
        assert rng.random() == ref.random()
        expected = [ref.randint(-bound, bound) for _ in range(count // 2)]
        assert [next(draws) for _ in range(count // 2)] == expected
        assert rng.getstate() == ref.getstate()


def test_random_weights_leave_the_state_of_n_randint_calls():
    for seed in range(200):
        n = seed % 70
        ref, rng = random.Random(seed), random.Random(seed)
        expected = [ref.randint(-5, 5) for _ in range(n)]
        assert random_weights(rng, n) == expected
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()


def test_random_values_draw_one_randint_per_pair_in_order():
    rng = random.Random("values")
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 12))
        for bound in (4, 5):
            seed = rng.random()
            ref, mine = random.Random(seed), random.Random(seed)
            expected = {
                (a, b): ref.randint(-bound, bound)
                for a in range(p.n)
                for b in sorted(p.above(a))
            }
            values = _random_values(mine, p, bound)
            assert list(values.items()) == list(expected.items())
            assert mine.getstate() == ref.getstate()


def test_the_draws_call_no_randint(monkeypatch):
    calls = []
    real = random.Random.randint
    monkeypatch.setattr(random.Random, "randint", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(3)
    p = randgen.random_poset(rng, 6)
    randgen.random_incidence(rng, p)
    randgen.random_symmetric_pair(rng, p)
    random_weights(rng, 6)
    assert calls == []
