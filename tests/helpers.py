"""Helpers shared by the test modules."""

import numpy as np


def null_data_directions(op):
    """Orthonormal columns spanning the complement of a dense operator's
    retained range: the left singular vectors past ``op.n`` of a full SVD
    of ``op.matrix``, built apart from the operator's own factor."""
    return np.linalg.svd(op.matrix)[0][:, op.n:]
