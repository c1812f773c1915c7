"""Reference jet linear algebra for the tests: a division-free determinant
to check ``jets.jet_lu`` against."""

import numpy as np

from equiaffine.jets import jet_mul


def jet_det(A: np.ndarray, num_vars: int) -> np.ndarray:
    """Determinant of an (n, n, M) jet matrix, as an (M,) jet.

    Division-free: the determinant of a jet matrix is well defined even
    when every value part vanishes, where ``jet_lu`` raises.  Uses the
    subset dynamic program over columns (Laplace expansion shared across
    row subsets), which is O(2^n n) jet operations and exact.
    """
    n, size = A.shape[0], A.shape[-1]
    one = np.zeros(size)
    one[0] = 1.0
    # partial[S] = det of the top-|S| rows restricted to column set S
    partial = {0: one}
    for row in range(n):
        nxt: dict[int, np.ndarray] = {}
        for subset, sub_det in partial.items():
            terms = jet_mul(sub_det, A[row], num_vars)  # one per column
            for col in range(n):
                bit = 1 << col
                if subset & bit:
                    continue
                # permutation sign: parity of used columns above this one
                term = -terms[col] if (subset >> (col + 1)).bit_count() & 1 else terms[col]
                key = subset | bit
                nxt[key] = term if key not in nxt else nxt[key] + term
        partial = nxt
    return partial[(1 << n) - 1]
