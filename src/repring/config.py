"""Tunable limits and the default PRNG seed.

All randomness in the package (module chopping, equal degree splitting)
flows from an explicit integer seed, so identical seeds give identical
runs.  ``REPRING_SEED`` in the environment overrides the built-in
default; explicit function/CLI arguments override both.

The p-group catalog's default truncation is ``default_max_order(p)``.
It is not the catalog's limit: an explicit truncation may go up to, but
not including, p times ``catalog.largest_order(p)``.
"""

import os

from .errors import InvalidSeed

DEFAULT_SEED = 1

# group enumeration refuses to run past this many elements
ORDER_BOUND = 10000

# finite fields are tabulated up to this many elements; GF(2^20) builds
# in about 1.4 s and 216 MiB
FIELD_ORDER_BOUND = 2 ** 20

# the p-group catalog's default truncation at p = 2 and 3; p^2 at the
# other primes
DEFAULT_MAX_ORDER = {2: 16, 3: 27}

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


def default_max_order(p: int) -> int:
    """The p-group catalog's default truncation at p."""
    return DEFAULT_MAX_ORDER.get(p, p * p)
