"""Property test of the key registry: config.KEYS alone decides which value
of a key the parser accepts, and an accepted value is what the getter gives."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjhom.config import KEYS, ConfigError, parse_config_text

# value strings near and across the registry's edges: integers and floats of
# either sign (nan and inf included), comma lists, ';' vectors and terms, the
# u0 families, and short strings of the value alphabet
NUMBERS = st.one_of(st.integers(-5, 40).map(str), st.floats().map(repr),
                    st.sampled_from(["0", "0.125", "0.25", "0.3", "1", "1.0", "7.5", "1e999",
                                     "inf", "-inf", "nan"]))
VALUES = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    st.lists(st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
             min_size=1, max_size=3).map("; ".join),
    st.sampled_from(["", "cone", "affine", "zero", "bumps", "sine", "1.0,1",
                     "1.0,1,0; 1.0,0,1", "1.0,half", "0.5", "1.0,0.5,0.25"]),
    st.text(alphabet="0123456789.,;-+e ", max_size=12),
)


def _numbers(value):
    """Every number inside a parsed value."""
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


@settings(max_examples=500)
@given(key=st.sampled_from(sorted(KEYS)), value=VALUES, lineno=st.integers(1, 4))
def test_registry_accepts_exactly_the_values_that_parse_and_pass(key, value, lineno):
    text = "# comment\n" * (lineno - 1) + f"{key} = {value}\n"
    try:
        parsed = KEYS[key].parse(value.strip())
        accepted = bool(KEYS[key].test(parsed))
    except ValueError:
        accepted = False
    if accepted:
        assert parse_config_text(text, "h.cfg").get(key) == parsed
        # no key accepts nan or an infinity
        assert all(map(math.isfinite, _numbers(parsed)))
    else:
        with pytest.raises(ConfigError, match=rf"^h\.cfg:{lineno}: {re.escape(key)} = "):
            parse_config_text(text, "h.cfg")
