"""The paired bootstrap's packed gather against the row-by-row gather.

``harness._bootstrap_ci`` fetches one row of a zero-padded table of block
sums per resample index and totals each column of the gathered rows.  Its
intervals must be ``==`` to those of the row-by-row formulation kept here
as the reference: the same index stream, the same block sums, and every
resample total one pairwise row sum.
"""

import numpy as np
import pytest

from orientlab.harness import _BOOT_CELLS, _BOOT_TAG, _block_sums, _bootstrap_ci, _percentiles


def _reference_bootstrap_ci(algs, opt, master_seed, resamples=1000):
    """The gather ``_bootstrap_ci`` replaced: one row of block sums per
    series, each fetched and summed in its own contiguous row."""
    rng = np.random.default_rng([master_seed, _BOOT_TAG])
    blocks = min(len(opt), 1000)
    sums = np.stack([_block_sums(x, blocks) for x in (opt, *algs)])
    step = max(1, _BOOT_CELLS // (blocks * len(sums)))
    draw = step * -(-64 // step)
    gathered = np.empty((len(sums), min(step, resamples), blocks))
    totals = np.empty((len(sums), resamples))
    for a in range(0, resamples, step):
        if a % draw == 0:
            idx = rng.integers(0, blocks, size=(min(draw, resamples - a), blocks), dtype=np.int32)
        rows = idx[a % draw : a % draw + step]
        part = gathered[:, : len(rows)]
        np.take(sums, rows, axis=1, out=part, mode="clip")
        part.sum(axis=2, out=totals[:, a : a + len(rows)])
    ratios = totals[1:] / totals[0]
    lo, hi = _percentiles(ratios, [2.5, 97.5])
    return list(zip(lo.tolist(), hi.tolist()))


@pytest.mark.parametrize("n", [1, 2, 399, 400, 401, 999, 1000, 1001, 4000])
@pytest.mark.parametrize("series", range(1, 9))  # 3, 5, 6 and 7 series are padded
def test_packed_gather_equals_row_by_row_gather(series, n):
    rng = np.random.default_rng([series, n])
    opt = rng.random(n) * 4.0 + 0.5
    algs = [opt * (1.0 + rng.random(n)) for _ in range(series - 1)]
    for resamples in (1, 31, 32, 33, 1000):
        for seed in (0, 2**63, 2**64 - 1):
            got = _bootstrap_ci(algs, opt, seed, resamples)
            assert got == _reference_bootstrap_ci(algs, opt, seed, resamples)


@pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
def test_int64_draws_in_chunks_of_32_equal_one_int32_draw(seed):
    # _bootstrap_ci draws int64 indices 32 resamples at a time; below 2^32
    # numpy takes them from the same buffered 32-bit stream as int32
    # draws, so they are today's indices for every block count
    for blocks in range(1, 1001):
        one_shot = np.random.default_rng([seed, _BOOT_TAG]).integers(
            0, blocks, size=(40, blocks), dtype=np.int32
        )
        rng = np.random.default_rng([seed, _BOOT_TAG])
        chunks = [rng.integers(0, blocks, size=(k, blocks)) for k in (32, 8)]
        assert chunks[0].dtype == np.int64
        assert np.array_equal(np.concatenate(chunks), one_shot), blocks
