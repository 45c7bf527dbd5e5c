"""Plain-text key=value configuration files.

Grammar (one entry per line):
    key = value          # trailing comments allowed
Blank lines and lines starting with '#' are ignored.  Keys are dotted
lowercase words from ``KNOWN_KEYS``; any other key is an error, so a typo
never falls back to a default.  Values are scalars, comma-separated lists,
or semicolon-separated tuples (potential terms: "amp,k1,...,kd; amp,k1,...").
Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .hamiltonian import CosinePotential, HamiltonianSpec, normalize


class ConfigError(ConfigurationError):
    """Malformed configuration file; message carries the line number."""


# every key the package reads; the README key table lists the same set
KNOWN_KEYS = frozenset({
    "dimension", "potential.a0", "potential.terms",
    "grid.dt", "grid.dx", "grid.vmax", "metric.horizon",
    "effective.v_box", "effective.v_step", "effective.n_max", "effective.p_box",
    "effective.p_step", "effective.vmax",
    "sweep.eps", "sweep.t", "targets.count", "probe.eps",
    "u0.family", "u0.scale", "u0.p", "u0.bumps",
    "oracle.p_sample", "oracle.t_long", "oracle.vmax", "oracle.tol",
    "properties.sample_size", "properties.surgery_samples",
    "properties.surgery_t", "properties.directions", "seed",
})


@dataclass
class Config:
    entries: dict = field(default_factory=dict)   # key -> (value str, line)
    path: str = "<memory>"

    def get_str(self, key: str, default=None, required: bool = False) -> str | None:
        """The raw value string of key; every typed getter reads through it."""
        if key in self.entries:
            return self.entries[key][0]
        if required:
            raise ConfigError(f"{self.path}: missing required key {key!r}")
        return default

    def where(self, key: str) -> str:
        """The "path:line" of a key that is set, for error messages."""
        return f"{self.path}:{self.entries[key][1]}"

    def _typed(self, key: str, default, required: bool, parse, noun: str):
        """key's value through ``parse``; a value it rejects is reported with
        its line."""
        raw = self.get_str(key, None, required)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(
                f"{self.where(key)}: {key} = {raw!r} is not {noun}")

    def _chunks(self, key: str, default, parse, noun: str):
        """Each non-empty ';'-separated chunk of key's value through ``parse``;
        a chunk it rejects is reported with the key's line."""
        raw = self.get_str(key)
        if raw is None:
            return default
        out = []
        for chunk in filter(None, (c.strip() for c in raw.split(";"))):
            try:
                out.append(parse(chunk))
            except ValueError:
                raise ConfigError(f"{self.where(key)}: bad {noun} {chunk!r}")
        return out

    def get_float(self, key: str, default=None, required=False):
        return self._typed(key, default, required, float, "a number")

    def get_int(self, key: str, default=None, required=False):
        return self._typed(key, default, required, int, "an integer")

    def get_floats(self, key: str, default=None):
        return self._typed(key, default, False,
                           lambda raw: [float(t) for t in raw.split(",") if t.strip()],
                           "a comma list")

    def get_terms(self, key: str):
        """Semicolon-separated "amplitude,k1,...,kd" tuples."""
        return self._chunks(key, [], _term, "potential term")

    def get_vectors(self, key: str, default=None):
        """Semicolon-separated comma-vectors, e.g. "0,0; 0.5,0"."""
        return self._chunks(key, default, lambda c: [float(t) for t in c.split(",")],
                            "vector")


def _term(chunk: str) -> tuple:
    amp, *k = chunk.split(",")
    if not k:
        raise ValueError("no wave vector")
    return float(amp), tuple(int(c) for c in k)


def parse_config_text(text: str, path: str = "<memory>") -> Config:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()   # a comment runs to the line end
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or any(ch.isspace() for ch in key):
            raise ConfigError(f"{path}:{lineno}: malformed key {key!r}")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first at line {entries[key][1]})")
        entries[key] = (value, lineno)
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
    d = cfg.get_int("dimension", required=True)
    a0 = cfg.get_float("potential.a0", 0.0)
    terms = cfg.get_terms("potential.terms")
    for _, k in terms:
        if len(k) != d:
            raise ConfigError(
                f"{cfg.where('potential.terms')}: wave vector {k} "
                f"has {len(k)} components, expected {d}")
    return normalize(HamiltonianSpec(d, CosinePotential(d, a0, tuple(terms))))
