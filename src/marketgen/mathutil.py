"""Small numeric helpers shared across modules."""

import numpy as np


def sigmoid(x, out=None):
    """Numerically stable logistic function via tanh.

    Saturates to exactly 0.0 / 1.0 for |x| beyond ~38, which is fine for
    sampling probabilities and activations (no log is ever taken of these
    values downstream).  ``out`` (which may be ``x`` itself) receives the
    result without allocating.
    """
    out = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    out += 1.0
    out *= 0.5
    return out
