"""Plain-text key=value configuration files.

Grammar (one entry per line):
    key = value          # trailing comments allowed
Blank lines and lines starting with '#' are ignored.  Keys are dotted
lowercase words from ``KEYS``; any other key is an error, so a typo never
falls back to a default.  Values are scalars, comma-separated lists, or
semicolon-separated tuples (potential terms: "amp,k1,...,kd; amp,k1,...");
an empty value is the empty list, and an empty item is an error.
Each value is parsed and range-checked by its key's entry in ``KEYS`` when
the file is read.  Errors carry 1-based line numbers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .hamiltonian import CosinePotential, HamiltonianSpec, normalize
from .util import is_whole


class ConfigError(ConfigurationError):
    """Malformed configuration file; message carries the line number."""


# a key's parser (value string -> value; ValueError on a malformed one), the
# test the parsed value must pass, and the words that say what it must be
Key = namedtuple("Key", "parse test words")


def _items(raw: str, sep: str) -> list:
    """raw split at sep, empty items kept so that they fail; [] for an empty raw."""
    return raw.split(sep) if raw else []


def _floats(raw: str) -> list:
    return [float(t) for t in _items(raw, ",")]


def _vectors(raw: str) -> list:
    return [[float(t) for t in c.split(",")] for c in _items(raw, ";")]


def _term(chunk: str) -> tuple:
    amp, *k = chunk.split(",")
    return float(amp), tuple(int(c) for c in k)


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def _distinct(values) -> bool:
    return 0 < len(values) == len(set(values))


# every key the package reads, with what it accepts; the README key table
# lists each once, in the same words (tests/test_config_cli.py checks it)
KEYS = {
    **dict.fromkeys("dimension effective.n_max targets.count properties.sample_size".split(),
                    Key(int, lambda v: v >= 1, "an integer >= 1")),
    **dict.fromkeys(("properties.surgery_samples", "seed"),
                    Key(int, lambda v: v >= 0, "an integer >= 0")),
    **dict.fromkeys(("potential.a0", "u0.scale"),
                    Key(float, math.isfinite, "a finite number")),
    **dict.fromkeys("grid.vmax metric.horizon effective.v_box effective.v_step "
                    "effective.p_box effective.p_step effective.vmax sweep.t "
                    "oracle.t_long oracle.vmax".split(),
                    Key(float, lambda v: 0 < v < math.inf, "a finite number > 0")),
    "oracle.tol": Key(float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    **dict.fromkeys(("grid.dt", "grid.dx"),
                    Key(float, lambda v: 0 < v <= 1 and is_whole(1 / v),
                        "1/n for an integer n >= 1")),
    "probe.eps": Key(float, lambda e: 0 < e <= 1, "a number in (0, 1]"),
    "sweep.eps": Key(_floats, lambda es: _distinct(es) and all(0 < e <= 1 for e in es),
                     "a comma list of numbers in (0, 1], no two equal"),
    "properties.surgery_t": Key(
        _floats, lambda ts: _distinct(ts) and all(t >= 1 and is_whole(t) for t in ts),
        "a comma list of integers >= 1, no two equal"),
    "u0.p": Key(_floats, _finite, "a comma list of finite numbers"),
    **dict.fromkeys(("oracle.p_sample", "properties.directions"),
                    Key(_vectors, lambda vs: all(map(_finite, vs)),
                        "';'-separated comma vectors of finite numbers")),
    "u0.bumps": Key(_vectors, lambda bs: all(_finite(b) and b[-1] > 0 for b in bs),
                    "';'-separated amplitude,c1,...,cd,width vectors of finite "
                    "numbers, width > 0"),
    "potential.terms": Key(lambda raw: [_term(c) for c in _items(raw, ";")],
                           lambda ts: all(k and math.isfinite(a) for a, k in ts),
                           "';'-separated amp,k1,...,kd terms, amp finite, k integer"),
    "u0.family": Key(str, lambda f: f in ("cone", "affine", "zero", "bumps"),
                     "one of cone, affine, zero, bumps"),
}
KNOWN_KEYS = frozenset(KEYS)


@dataclass
class Config:
    entries: dict = field(default_factory=dict)   # key -> (parsed value, line)
    path: str = "<memory>"

    def get(self, key: str, default=None, required: bool = False):
        """key's parsed value; ``default`` when the key is not set."""
        if key in self.entries:
            return self.entries[key][0]
        if required:
            raise ConfigError(f"{self.path}: missing required key {key!r}")
        return default

    # the typed names of get, kept for callers outside the package
    get_float = get_int = get_floats = get

    def where(self, key: str) -> str:
        """The "path:line" of a key that is set, for error messages."""
        return f"{self.path}:{self.entries[key][1]}"


def parse_config_text(text: str, path: str = "<memory>") -> Config:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()   # a comment runs to the line end
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first at line {entries[key][1]})")
        try:
            parsed = KEYS[key].parse(value)
            ok = KEYS[key].test(parsed)
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{path}:{lineno}: {key} = {value!r} is not {KEYS[key].words}")
        entries[key] = (parsed, lineno)
    return Config(entries=entries, path=path)


def parse_config(path) -> Config:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text, str(path))


def spec_from_config(cfg: Config) -> tuple[HamiltonianSpec, float]:
    """Build and normalize the Hamiltonian spec; returns (spec, shift)."""
    d = cfg.get("dimension", required=True)
    a0 = cfg.get("potential.a0", 0.0)
    terms = cfg.get("potential.terms", [])
    for _, k in terms:
        if len(k) != d:
            raise ConfigError(
                f"{cfg.where('potential.terms')}: wave vector {k} "
                f"has {len(k)} components, expected {d}")
    return normalize(HamiltonianSpec(d, CosinePotential(d, a0, tuple(terms))))
