"""Layered INI run configuration with strict keys, env overrides, and hashing.

A RunConfig is a flat section/key/value table of strings. Sources merge in
increasing priority: built-in defaults, a per-command overlay, a bundled
preset (--preset NAME), a config file (--config PATH), environment variables,
then command-line flag overrides. Every section and key must already exist in
the defaults table; anything unknown is rejected by name, so typos fail loudly
instead of silently running the defaults.

Environment overrides use the prefix ``BIFURC_`` with a double underscore
between section and key, all case-insensitive: ``BIFURC_PROBE__LR_MEANS=0.01``
sets ``[probe] lr_means``.

The hash of the effective table (sha256 over the sorted ``section.key=value``
lines, first 12 hex digits) identifies a run configuration; it is embedded in
every output file so results can be traced back to their exact parameters.
The ``[run]`` section (seed list, output directory) is orchestration, not
parameters, and is excluded: the same experiment written to a different
directory or sliced into different seed batches keeps the same hash, so
identical (config, seed) pairs always produce byte-identical files.
"""

import configparser
import hashlib
import importlib.resources
import os

from .csvio import read_lines
from .errors import ConfigError

ENV_PREFIX = "BIFURC_"

# A command holds one job per seed, or for `escape sweep` one per (gamma level, seed)
# cell, before it runs any: at most about 300 B of job, and in the process pool about
# 1.9 kB more of future and work item. So 2**16 jobs let a command allocate about
# 140 MB up front. (The array bound sde.MAX_SAMPLE_ENTRIES = 2**22 would let it take
# about 9 GB.)
MAX_JOBS = 2**16

# One entry per known key; values are the built-in defaults (all strings).
DEFAULTS = {
    "run": {
        "seeds": "0",  # comma-separated distinct RNG seeds >= 0, one run per seed
        "out": "out",  # output directory
    },
    "probe": {
        "k": "10",
        "lr_means": "5e-3",
        "lr_logbeta": "1e-2",
        "log_beta_init": "-2.5",
    },
    "data": {
        "n": "2000",
        "center_offset": "2.0",
        "scale": "1.0",
        "dim": "2",
        "super_spacing": "8.0",
        "sub_spacing": "2.0",
    },
    "experiment": {
        "steps": "7000",
        "record_every": "20",
        "mode": "learned",  # forward-split drive: learned | anneal
        "encoder_lr": "0.05",
        "latent_dim": "2",
        "init_weight_scale": "0.1",
    },
    "sde": {
        "growth_rate": "0.1",
        "alpha": "0.1",
        "coupling": "0.0",
        "noise_intensity": "0.0",
        "dt": "0.01",
        "steps": "1000",
        "modes": "1",
        "dim": "1",
        "init_scale": "0.0",
        "eps0": "",  # exact initial amplitude; empty = random from init_scale
    },
    "escape": {
        "gammas": "0.0,1e-4,3e-4,1e-3,3e-3,1e-2",
        "seeds_per_gamma": "3",
        "threshold": "5e-3",
        "horizon": "1000000",
    },
    "hessian": {
        "source": "bimodal",  # covariance source: bimodal | identity
        "bracket_lo_ratio": "0.5",
        "bracket_hi_ratio": "1.5",
    },
    "taxonomy": {
        "decoupling_abs_corr": "0.5",
        "plateau_fraction": "0.1",
        "descent_decades": "0.5",
        "fold_return": "0.5",
        "smooth_window": "5",
        "min_readings": "20",
        "horizon": "",  # step horizon for plateau units; empty = index measure
    },
}


def _check_key(section, key):
    if section not in DEFAULTS:
        raise ConfigError(f"unknown config section: [{section}]")
    if key not in DEFAULTS[section]:
        raise ConfigError(f"unknown config key: {section}.{key}")


class RunConfig:
    """Effective configuration table with typed accessors and a stable hash."""

    def __init__(self, sections=None):
        self.sections = {s: dict(kv) for s, kv in DEFAULTS.items()}
        self.read = set()  # every (section, key) that get has returned
        if sections:
            for section, kv in sections.items():
                for key, value in kv.items():
                    self.set(section, key, value)

    def set(self, section, key, value):
        section, key = section.lower(), key.lower()
        _check_key(section, key)
        self.sections[section][key] = str(value)

    # -- typed accessors -------------------------------------------------

    def get(self, section, key):
        _check_key(section, key)
        self.read.add((section, key))
        return self.sections[section][key]

    def _coerce(self, section, key, caster, kind):
        raw = self.get(section, key)
        try:
            return caster(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"config key {section}.{key} needs {kind}, got {raw!r}"
            ) from None

    def get_int(self, section, key):
        return self._coerce(section, key, int, "an integer")

    def get_float(self, section, key):
        return self._coerce(section, key, float, "a number")

    def get_optional_float(self, section, key):
        if self.get(section, key).strip() == "":
            return None
        return self.get_float(section, key)

    def _list(self, section, key, caster, kind):
        """The non-empty comma list at section.key, each item read by caster."""
        def parse(raw):
            parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
            if not parts:
                raise ValueError(raw)
            return [caster(p) for p in parts]

        return self._coerce(section, key, parse, kind)

    def get_float_list(self, section, key):
        return self._list(section, key, float, "a comma-separated number list")

    def get_choice(self, section, key, choices):
        raw = self.get(section, key)
        if raw not in choices:
            raise ConfigError(
                f"config key {section}.{key} must be one of {sorted(choices)}, got {raw!r}"
            )
        return raw

    def seeds(self):
        seeds = self._list("run", "seeds", int, "a comma-separated seed list")
        if len(seeds) > MAX_JOBS:
            raise ConfigError(f"run.seeds must list at most {MAX_JOBS} seeds, got {len(seeds)}")
        if min(seeds) < 0 or len(set(seeds)) < len(seeds):
            raise ConfigError(
                f"run.seeds must be distinct non-negative integers, got {self.get('run', 'seeds')!r}"
            )
        return seeds

    # -- identity ---------------------------------------------------------

    @property
    def config_hash(self):
        lines = []
        for section in sorted(self.sections):
            if section == "run":
                continue
            for key in sorted(self.sections[section]):
                lines.append(f"{section}.{key}={self.sections[section][key]}")
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        return digest[:12]


def _parse_ini(text, origin):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {origin}: {exc}") from None
    out = {}
    for section in parser.sections():
        out[section.lower()] = {k: v for k, v in parser.items(section)}
    return out


def read_config_file(path):
    """Parse one INI file into a plain {section: {key: value}} dict."""
    return _parse_ini("".join(read_lines(path)), str(path))


def load_preset(name):
    """Parse a bundled fixture preset (``<name>.preset``) by bare name."""
    resource = importlib.resources.files("bifurc") / "fixtures" / f"{name}.preset"
    try:
        text = resource.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"unknown preset: {name}") from None
    return _parse_ini(text, f"preset {name}")


def env_overrides(environ=None):
    """Extract {section: {key: value}} from BIFURC_SECTION__KEY variables."""
    if environ is None:
        environ = os.environ
    out = {}
    for name in sorted(environ):
        if not name.upper().startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX):]
        if "__" not in body:
            raise ConfigError(
                f"bad override variable {name}: expected {ENV_PREFIX}SECTION__KEY"
            )
        section, key = body.split("__", 1)
        out.setdefault(section.lower(), {})[key.lower()] = environ[name]
    return out


def build_config(overlay=None, preset=None, path=None, environ=None, flags=None):
    """Assemble the effective RunConfig from all sources, lowest priority first."""
    cfg = RunConfig()
    layers = []
    if overlay:
        layers.append(overlay)
    if preset:
        layers.append(load_preset(preset))
    if path:
        layers.append(read_config_file(path))
    layers.append(env_overrides(environ))
    if flags:
        layers.append(flags)
    for layer in layers:
        for section, kv in layer.items():
            for key, value in kv.items():
                cfg.set(section, key, value)
    return cfg
