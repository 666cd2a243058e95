"""A cell's whole summary matrix, which the tests and the acceptance
scorecard take and no CLI path does."""

import numpy as np

from sumnorm import simulate


def whole_matrix(dist, n, replicates, seed, reads=(0, 1, 2, 3, 4)):
    """The (replicates, 5) summaries of the cell at ``n``: the maps of its
    chunks' draws, stacked in chunk order, as a curve counts them.
    ``simulate``'s names are looked up at each call, so a test that
    patches one of them patches this too."""
    return np.concatenate([
        simulate._summary_matrix(dist, simulate._draw_chunk(
            dist, n, replicates, seed, chunk, reads), reads)
        for chunk in range(-(-replicates // simulate._CHUNK_ROWS))])
