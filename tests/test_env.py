import numpy as np
import pytest

from terasec.baselines import UniformPolicy

from conftest import make_env


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_next_slot_sinrs_reuse_the_slot_rating(seed):
    """The SINR features recorded by an advancing step equal those from
    rating the slot a second time, as the step once did."""
    env = make_env(seed=seed, steps=3)
    policy = UniformPolicy(env)
    for _ in range(2):
        t = env.time_at(env.step_idx)
        _, _, (alloc_to, alloc_ot) = env.step(policy.act()[0])
        reused = env.snapshot()
        _, _, g_to, g_ot = env._rates(alloc_to, alloc_ot,
                                      env.c.positions_at(t), t)
        env._record_sinrs(g_to, g_ot)
        assert np.array_equal(reused.sinr_to_db, env._sinr_to_db)
        assert np.array_equal(reused.sinr_ot_db, env._sinr_ot_db)
        assert np.any(reused.sinr_to_db != 0.0)
        assert np.any(reused.sinr_ot_db != 0.0)
