import numpy as np
import pytest

from ossp import _kernels
from ossp._rng import rng_from

N, M, ALPHA, THETA = 5, 3, 0.5, 1.0


def reference_mc(U, accept):
    """One ordered CRP per row of U, run with ocrp_steps: N steps, then M more
    for the runs whose ordered size-N frequency vector f satisfies accept(f).
    Returns (K_M^(N), W_1, A_1, W_2, A_2) per accepted run, with W_2 = A_2 = 0
    when the enlarged sample holds one species."""
    rows = []
    for u in U:
        freqs, ids, assign = (np.zeros(N + M, dtype=np.int64) for _ in range(3))
        kn, next_id = _kernels.ocrp_steps(u[:N], ALPHA, THETA, freqs, ids, 0, 0, assign, 0)
        if not accept(list(freqs[:kn])):
            continue
        k, _ = _kernels.ocrp_steps(u[N:], ALPHA, THETA, freqs, ids, kn, next_id, assign, N)
        two = k >= 2
        rows.append((k - kn, freqs[0], int(ids[0] >= kn),
                     freqs[1] if two else 0, int(two and ids[1] >= kn)))
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


@pytest.mark.parametrize("cond_k, cond_m1, cond_freqs, accept", [
    pytest.param(-1, -1, [3, 1, 1], lambda f: f == [3, 1, 1], id="freqs"),
    pytest.param(2, 3, [], lambda f: len(f) == 2 and f[0] == 3, id="k_m1"),
    pytest.param(-1, -1, [], lambda f: True, id="none"),
])
def test_mc_chunk_matches_reference_loop(cond_k, cond_m1, cond_freqs, accept):
    U = rng_from(9).random((512, N + M))
    outs = [np.zeros(512, dtype=np.int64) for _ in range(5)]
    bufs = [np.zeros(N + M, dtype=np.int64) for _ in range(3)]
    cnt = _kernels.mc_chunk(U, ALPHA, THETA, N, M, cond_k, cond_m1,
                            np.asarray(cond_freqs, dtype=np.int64), *bufs, *outs)
    ref = reference_mc(U, accept)
    assert cnt == len(ref) > 0
    np.testing.assert_array_equal(np.stack([o[:cnt] for o in outs], axis=1), ref)
