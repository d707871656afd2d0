"""The paired block bootstrap the evaluator reported before its
delta-method interval, kept as a reference.

``test_ratio_interval.py`` compares the coverage of the delta-method
interval with this bootstrap's, so the copy here must be the evaluator's
old ``_bootstrap_ci`` bit for bit: the same index stream, block sums,
packed gather and percentiles.  Its packed gather must be ``==`` to the
row-by-row formulation, and the tests in ``test_harness.py`` pin its
block sums, percentiles and chunked index draws to numpy's.
"""

from typing import Sequence

import numpy as np
import pytest

_BOOT_TAG = 0xFFFF0002
_BOOT_CELLS = 1 << 16  # bootstrap gather buffer: 512 KiB of float64


def _block_sums(x: np.ndarray, blocks: int) -> np.ndarray:
    """Sums of the ``np.array_split(x, blocks)`` chunks, as two reshaped
    row sums: the first N mod blocks chunks are one longer."""
    q, r = divmod(len(x), blocks)
    head = x[: r * (q + 1)].reshape(r, q + 1).sum(axis=1)
    tail = x[r * (q + 1) :].reshape(blocks - r, q).sum(axis=1)
    return np.concatenate([head, tail])


def _percentiles(x: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(x, q, axis=1)`` of a 2-D array, bit for bit, from
    one partition: numpy's default "linear" rule takes the virtual index
    (n - 1) q / 100 between two order statistics a and b and, like
    numpy's ``_lerp``, gives a + (b - a) t, or b - (b - a)(1 - t) where
    the weight t is at least 1/2."""
    n = x.shape[1]
    virtual = (n - 1) * (np.asarray(q, dtype=float) / 100)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1  # numpy takes the largest value from index -1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    part = np.partition(x, np.concatenate([below, above]), axis=1)
    a, b = part[:, below].T, part[:, above].T
    t = (virtual - below)[:, None]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _bootstrap_ci(algs, opt, master_seed, resamples=1000):
    """Paired bootstrap CIs for the ratio of means, one per algorithm.

    Samples are aggregated into up to 1000 paired block sums and blocks
    are resampled; one index stream keyed ``[master_seed, _BOOT_TAG]``
    serves every algorithm.  The block sums sit side by side, zero-padded,
    in tables of width 2 or 4, one index fetches one table row, and a few
    resamples at a time are gathered into one reused buffer; each total
    is bit for bit the pairwise sum of the resample's block sums alone.
    """
    rng = np.random.default_rng([master_seed, _BOOT_TAG])
    blocks = min(len(opt), 1000)
    sums = [_block_sums(x, blocks) for x in (opt, *algs)]
    width = 2 if len(sums) <= 2 else 4
    tables = np.zeros((-(-len(sums) // width), blocks, width))
    for j, x in enumerate(sums):
        tables[j // width, :, j % width] = x
    step = max(1, _BOOT_CELLS // tables.size)
    draw = step * -(-32 // step)  # resamples per index draw, a multiple of step
    values = np.empty((len(tables), min(step, resamples), blocks, width))
    totals = np.empty((len(sums), resamples))
    for a in range(0, resamples, step):
        if a % draw == 0:
            idx = rng.integers(0, blocks, size=(min(draw, resamples - a), blocks))
        rows = idx[a % draw : a % draw + step]
        for table, part in zip(tables, values[:, : len(rows)]):
            np.take(table, rows, axis=0, out=part, mode="clip")
        for j, total in enumerate(totals[:, a : a + len(rows)]):
            values[j // width, : len(rows), :, j % width].sum(axis=1, out=total)
    ratios = totals[1:] / totals[0]
    lo, hi = _percentiles(ratios, [2.5, 97.5])
    return list(zip(lo.tolist(), hi.tolist()))


def _reference_bootstrap_ci(algs, opt, master_seed, resamples=1000):
    """The gather the packed one replaced: one row of block sums per
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
    # draws, so they are the one-shot indices for every block count
    for blocks in range(1, 1001):
        one_shot = np.random.default_rng([seed, _BOOT_TAG]).integers(
            0, blocks, size=(40, blocks), dtype=np.int32
        )
        rng = np.random.default_rng([seed, _BOOT_TAG])
        chunks = [rng.integers(0, blocks, size=(k, blocks)) for k in (32, 8)]
        assert chunks[0].dtype == np.int64
        assert np.array_equal(np.concatenate(chunks), one_shot), blocks
