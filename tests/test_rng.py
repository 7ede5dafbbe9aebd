import numpy as np

from mixlab.rng import derive, substream


def test_substream_is_pcg64_on_the_seed_sequence_path():
    rng = substream((5, 1, 2))
    assert isinstance(rng.bit_generator, np.random.PCG64)
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=(1, 2))))
    assert np.array_equal(rng.standard_normal(100), ref.standard_normal(100))


def test_distinct_paths_differ_and_a_path_repeats():
    one = substream((5, 1)).standard_normal(100)
    assert not np.array_equal(one, substream((5, 2)).standard_normal(100))
    assert np.array_equal(one, substream((5, 1)).standard_normal(100))
    assert np.array_equal(one, substream(derive(5, 1)).standard_normal(100))
