"""Values recorded from the source paper's tables.

`sepprob tables --table 4` checks the proportion identities against these
and prints them; nothing here is derived.
"""

from fractions import Fraction
from typing import Dict

# Reported diff-variable tail limits for small k; these are the inputs of
# the proportion identities (proportion = diff tail / total probability).
DIFF_TAILS: Dict[tuple, Fraction] = {
    (Fraction(1, 2), 0): Fraction(29, 128),
    (Fraction(1, 2), 1): Fraction(281, 1024),
    (Fraction(1), 0): Fraction(4, 33),
    (Fraction(1), 1): Fraction(45, 286),
    (Fraction(2), -1): Fraction(11, 442),
    (Fraction(2), 0): Fraction(13, 323),
    (Fraction(2), 1): Fraction(2056, 37145),
}

# Recorded proportion table; entries past k=1 have no independently
# reported diff tail, so they are printed as recorded rather than derived.
TABLE_IV: Dict[tuple, Fraction] = {
    (Fraction(1, 2), 0): Fraction(1, 2),
    (Fraction(1, 2), 1): Fraction(843, 2060),
    (Fraction(1, 2), 2): Fraction(9949, 26320),
    (Fraction(1), 0): Fraction(1, 2),
    (Fraction(1), 1): Fraction(45, 122),
    (Fraction(1), 2): Fraction(1553, 4921),
    (Fraction(1), 3): Fraction(3073, 10557),
    (Fraction(1), 4): Fraction(2087, 7450),
    (Fraction(2), 0): Fraction(1, 2),
    (Fraction(2), 1): Fraction(771, 2335),
    (Fraction(2), 2): Fraction(26503, 104806),
    (Fraction(2), 3): Fraction(51585, 242978),
    (Fraction(2), 4): Fraction(2195945, 11586069),
    (Fraction(2), 5): Fraction(4390079, 24859079),
    (Fraction(2), 6): Fraction(8310451, 48993770),
}
