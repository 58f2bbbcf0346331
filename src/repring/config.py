"""Tunable limits and the default PRNG seed.

All randomness in the package (module chopping, equal degree splitting)
flows from an explicit integer seed, so identical seeds give identical
runs.  ``REPRING_SEED`` in the environment overrides the built-in
default; explicit function/CLI arguments override both.

The p-group catalog's default truncation is not set here: it is
``catalog.largest_order(p)``, the largest order the bundled table lists
for p, or p^2 for a prime it does not list.
"""

import os

from .errors import InvalidSeed

DEFAULT_SEED = 1

# group enumeration refuses to run past this many elements
ORDER_BOUND = 10000

# finite fields are tabulated up to this many elements; GF(2^20) builds
# in about 1.4 s and 216 MiB
FIELD_ORDER_BOUND = 2 ** 20

# isomorphism / embedding backtracking bound
ISO_ORDER_BOUND = 256

# closed-set enumeration refuses catalogs with more entries than this
CLOSED_SET_ENTRY_BOUND = 20

# random algebra elements tried per split attempt before reseeding
CHOP_RETRY = 64
CHOP_RESEEDS = 4

SEED_ENV = "REPRING_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise InvalidSeed(f"{SEED_ENV}={raw!r} is not an integer") from None
