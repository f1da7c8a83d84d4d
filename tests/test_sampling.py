"""The report's random draws: ``acceptance._pick`` against ``random.sample``,
``acceptance._below`` against ``randrange`` and ``choice``,
and the random streams of criteria 6, 10, 11 and 12 pinned at seed 1:
for 10 and 12 both the rows and every sequent judged and derivation
replayed.

Seed 0 is pinned through ``bench/report_lines_seed0.txt``; the digests
here pin what the draws give at a second seed, cheaply, so that a
change in how a pick is made cannot shift the stream unseen.
"""

import hashlib
import itertools
import random

import pytest

from bd4 import acceptance
from bd4.proofio import print_derivation
from bd4.semantics import PropSpace


def reference_pick(rng, pool):
    """How the report drew a context or a random side before ``_pick``."""
    return tuple(rng.sample(pool, rng.randint(0, 2)))


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def _soundness_rows(seed, instances=100):
    """(rule, row) of every ``_soundness_run`` of criteria 10 and 12 at
    the seed, each cut to ``instances``."""
    rows = []
    real = acceptance._soundness_run

    def run(rule, valid, rng, _instances, *rest):
        row = real(rule, valid, rng, instances, *rest)
        rows.append((rule, sorted(row.items())))
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "_soundness_run", run)
        config = acceptance.SuiteConfig(seed=seed)
        acceptance._criterion_10(config)
        acceptance._criterion_12(config)
    return rows


def _random_pairs(seed, tag, count=2000):
    """The first ``count`` random (gamma, delta) pairs of
    ``_prop_universe``, printed."""
    universe = acceptance._prop_universe(
        PropSpace(("p", "q")), acceptance.SuiteConfig(seed=seed), tag, {})
    drawn = ((g, d) for g, d, rng in universe if rng is not None)
    return [(tuple(map(str, g)), tuple(map(str, d)))
            for g, d in itertools.islice(drawn, count)]


@pytest.fixture(scope="module")
def reps2():
    """Criteria 6's and 11's pool of depth-2 representatives."""
    space = PropSpace(("p", "q"))
    return acceptance._distinct_reps(
        acceptance._formula_pool(("p", "q"), 2), space)


def test_pick_draws_what_sample_draws(reps2):
    """Equal picks and equal generator states, on pools on both sides of
    ``sample``'s switch from its pool list to its set (at 21 and 22)."""
    assert len(reps2) == 148
    pools = [tuple(range(n)) for n in range(2, 61)] + [tuple(reps2)]
    for pool in pools:
        for seed in range(40):
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(30):
                assert (acceptance._pick(mine, pool)
                        == reference_pick(theirs, pool)), (len(pool), seed)
                assert mine.getstate() == theirs.getstate()


def test_below_draws_what_randrange_and_choice_draw():
    """Equal draws and equal generator states after every draw, for n
    from 1 to 300, powers of two and one past them included."""
    for n in range(1, 301):
        pool = tuple(range(n))
        for seed in range(40):
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(2):
                assert acceptance._below(mine, n) == theirs.randrange(n)
                assert mine.getstate() == theirs.getstate()
                assert pool[acceptance._below(mine, n)] == theirs.choice(pool)
                assert mine.getstate() == theirs.getstate()
    with pytest.raises(ValueError):
        acceptance._below(random.Random(0), 0)


@pytest.fixture(scope="module")
def rows_seed1():
    return _soundness_rows(1)


def test_soundness_runs_equal_with_the_reference_pick(rows_seed1):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "_pick", reference_pick)
        theirs = _soundness_rows(1)
    assert len(rows_seed1) == 36
    assert rows_seed1 == theirs


# digests of the streams as drawn with ``random.sample`` before ``_pick``
SOUNDNESS_ROWS_SEED1 = (
    "f99a852f28aa85ca6c3a3cce182584f5f594ca644b9b670e8b2f207709e3a5b8")
PAIRS_SEED1 = {
    "simulation":
        "fd4de302da9bda8ca49aed98bb3e0bea7d55b5391a802f94fd1d266d146f67e1",
    "completeness":
        "45bd785ffb0677df813c229e1235288365e548291ce784716a139c3c60397e02",
}


def test_soundness_runs_at_seed_1_are_pinned(rows_seed1):
    assert _digest(rows_seed1) == SOUNDNESS_ROWS_SEED1


@pytest.mark.parametrize("tag", sorted(PAIRS_SEED1))
def test_random_pairs_at_seed_1_are_pinned(tag):
    assert _digest(_random_pairs(1, tag)) == PAIRS_SEED1[tag]


def _soundness_stream(seed, instances=100) -> str:
    """SHA-256 over what every ``_soundness_run`` of criteria 10 and 12
    at the seed, cut to ``instances``, hands on, in order: each sequent
    passed to its ``valid`` (retries included) or its repair check, and
    each derivation passed to ``_kernel_accepts``, printed."""
    digest = hashlib.sha256()
    real_run, real_accepts = acceptance._soundness_run, acceptance._kernel_accepts

    def recorded(tag, check):
        def judged(s):
            digest.update(repr((tag, str(s))).encode())
            return check(s)
        return None if check is None else judged

    def run(rule, valid, rng, _instances, pool, pack, repair):
        return real_run(rule, recorded("valid", valid), rng, instances, pool,
                        pack, recorded("repair", repair))

    def accepts(d):
        digest.update(repr(("kernel", print_derivation(d))).encode())
        return real_accepts(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "_soundness_run", run)
        mp.setattr(acceptance, "_kernel_accepts", accepts)
        config = acceptance.SuiteConfig(seed=seed)
        acceptance._criterion_10(config)
        acceptance._criterion_12(config)
    return digest.hexdigest()


# taken before the sampler ran in one loop frame per draw
SOUNDNESS_STREAM_SEED1 = (
    "59d26ab36a7b6f85da1c364dc65949d6f682e532230a526084e38af007dccc35")


def test_soundness_stream_at_seed_1_is_pinned():
    assert _soundness_stream(1) == SOUNDNESS_STREAM_SEED1
