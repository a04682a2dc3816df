"""Size caps for exhaustive computations.

Routines whose work can grow as 2^n refuse to run above a cap so a typo
cannot pin a machine for hours.  The env var RSPLIT_MAX_N raises both
caps at the caller's own risk.
"""

from __future__ import annotations

import os

# Universe size accepted by VertexSet / Graph constructors.  Python ints
# carry arbitrary widths, so this is purely a sanity bound; raise it by
# assigning to the module attribute if you know what you are doing.
MAX_UNIVERSE = 128

# Members of an explicit family; ClosedHypergraph.materialize and
# ortho.build_family refuse to build more.
MAX_EXPLICIT_FAMILY = 1 << 22

# Digits of the longest int str() prints by default (sys.int_info.default_max_str_digits).
MAX_PRINTED_DIGITS = 4300

# Pruned cut searches (r-rank connectivity, split enumeration).
DEFAULT_EXHAUSTIVE_CAP = 24

# Brute-force reference computations over explicit 2^n families.
DEFAULT_ORACLE_CAP = 14

# Verification suite profiles: each property runs its quick or its full
# trial count.  Defined here so the CLI can offer them without importing
# the suite.
PROFILES = ("quick", "full")

_ENV_VAR = "RSPLIT_MAX_N"


class TooLargeError(ValueError):
    """Input exceeds the cap configured for an exhaustive computation."""


def exhaustive_cap() -> int:
    return _env_override(DEFAULT_EXHAUSTIVE_CAP)


def oracle_cap() -> int:
    return _env_override(DEFAULT_ORACLE_CAP)


def parse_int(token: str) -> int:
    """The integer a token spells: ASCII digits with an optional leading '-'.

    Unlike int(), refuses '+', '_', whitespace and non-ASCII digits.  The
    file formats, the command-line numbers and RSPLIT_MAX_N all use it.
    """
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def _env_override(default: int) -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return default
    try:
        value = parse_int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    return max(value, default)


def check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise TooLargeError(
            f"n={n} is too large for exhaustive check ({what} capped at {cap}; "
            f"set {_ENV_VAR} to override)"
        )
