"""Helpers shared by the test modules."""

import numpy as np


def stacks_of(family):
    """Per-block (n, d_b, d_b) stacks of a list of Elements of one algebra.

    This is the family form dominant_element and interpolation_check take,
    with algebra= the members' algebra.
    """
    return [np.stack([x.blocks[b] for x in family])
            for b in range(family[0].algebra.num_blocks)]


def oracle_positive_part(b):
    """Positive part of the Hermitian part of one block, by one eigh."""
    lam, v = np.linalg.eigh((b + b.conj().T) / 2)
    return (v * np.maximum(lam, 0.0)) @ v.conj().T


def oracle_four_positives(x):
    """Four positive Elements (x0, x1, x2, x3) with x = x0 + i x1 - x2 - i x3.

    Blockwise, the positive and negative parts of the Hermitian real and
    imaginary parts of x.
    """
    parts = []
    for b in x.blocks:
        re, im = (b + b.conj().T) / 2, (b - b.conj().T) / 2j
        parts.append([oracle_positive_part(m) for m in (re, im, -re, -im)])
    return tuple(x.algebra.element([p[j] for p in parts], True) for j in range(4))
