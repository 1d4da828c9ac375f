"""Helpers shared by the test modules."""

import numpy as np


def stacks_of(family):
    """Per-block (n, d_b, d_b) stacks of a list of Elements of one algebra.

    This is the family form dominant_element, sup_plus_norm and
    interpolation_check take, with algebra= the members' algebra.
    """
    return [np.stack([x.blocks[b] for x in family])
            for b in range(family[0].algebra.num_blocks)]
