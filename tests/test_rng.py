"""Batched stream derivation against numpy's own SeedSequence and Philox."""

import numpy as np
import pytest

from liemult import ParameterError
from liemult.rng import TrialStreams, stream_key, trial_keys

SEEDS = [0, 1, 118, 2**32 - 1, 2**32, 2**64 + 3]
LABELS = ["gauss", "jump-counts", "jump-times", "jump-vectors"]
DRAWS = {
    "standard_normal": lambda g: g.standard_normal(3),
    "poisson": lambda g: g.poisson(2.5, size=3),
    "uniform": lambda g: g.uniform(size=3),
    "choice": lambda g: g.choice(4, size=3, p=[0.1, 0.2, 0.3, 0.4]),
}


def oracle(seed, trial, label):
    """The stream (seed, trial, label) as numpy builds it from a SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, stream_key(label)))
    return np.random.Generator(np.random.Philox(ss))


def flat_state(generator):
    state = generator.bit_generator.state
    return (state["bit_generator"], list(state["state"]["counter"]),
            list(state["state"]["key"]), list(state["buffer"]),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("trials", [0, 1, 65])
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_keys_and_draws_equal_seed_sequence(seed, trials):
    streams = TrialStreams(seed, trials, LABELS)
    for label in LABELS:
        keys = trial_keys(seed, np.arange(trials), label)
        assert keys.shape == (trials, 2) and keys.dtype == np.uint64
        for t in range(trials):
            assert keys[t].tolist() == list(oracle(seed, t, label).bit_generator.state
                                            ["state"]["key"]), (label, t)
            # the reused generator is re-keyed for every draw, after the draws of
            # other trials and kinds
            for kind, draw in DRAWS.items():
                expected_generator = oracle(seed, t, label)
                generator = streams.rng(t, label)
                assert flat_state(generator) == flat_state(expected_generator)
                assert np.array_equal(draw(generator), draw(expected_generator)), (label, t, kind)
                assert flat_state(generator) == flat_state(expected_generator), (label, t, kind)


def test_trial_index_must_fit_one_word():
    # the largest one-word index is derived correctly; a two-word index is rejected,
    # shown on explicit index arrays instead of 2**32 trials
    last = trial_keys(5, np.array([2**32 - 1]), "gauss")
    assert last[0].tolist() == list(oracle(5, 2**32 - 1, "gauss").bit_generator.state
                                    ["state"]["key"])
    for bad in (np.array([0, 2**32]), np.array([-1]), np.array([0.0, 1.0]), np.zeros((2, 2), int)):
        with pytest.raises(ParameterError):
            trial_keys(5, bad, "gauss")
    with pytest.raises(ParameterError):
        trial_keys(-1, np.arange(3), "gauss")
    with pytest.raises(ParameterError):
        TrialStreams(5, 2**32 + 1, ["gauss"])
