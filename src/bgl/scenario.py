"""Scenario configs: flat sectioned text files that override criterion parameters.

Every verb runs a fixed subset of the suite's criteria (`bgl.suite.VERBS`)
at the suite's sub-seeds, so a failing suite record reruns on its own
through its verb:

    chain       pisier, generalized_pisier, chained_bound
    norm        indicator, fatou
    entropy     covering_oracle, dimension
    martingale  doob, block_chain
    fourier     fourier
    suite       all eleven (the series bounds run only here)

A config only overrides parameters; an absent key keeps the suite's value,
and a section set for a kind that runs none of the criteria it goes to is
rejected.  `--p-max` and `--tol` replace the value, the config's included,
of every criterion of the verb that declares `p_max` or `tol`; a verb none
of whose criteria declares it rejects the flag.
Grammar (INI-style, parsed by configparser), with the criteria each key
goes to:

    [scenario]
    kind = chain            ; norm | entropy | chain | martingale | fourier | suite
    seed = 7

    [grid]                  ; generalized_pisier, chained_bound, indicator
    lo = 1.05
    p_max = 200
    n = 64

    [psi]                   ; generalized_pisier, chained_bound, indicator
    name = power            ; constant | power | doob_factor | ratio | table | natural
    beta = 1.0              ; power; kappa for ratio, points/values for table

    [nu]                    ; generalized_pisier, chained_bound
    name = doob_factor

    [family]                ; pisier, generalized_pisier, chained_bound
    generator = random_nonneg   ; random_nonneg | disjoint_indicators | file
    members = 12
    atoms = 48
    count = 20
    path = family.tsv           ; for generator = file, relative to this file

    [chain]                 ; theta, k_max: chained_bound; tol: all three
    theta = 0.3 0.5 0.7
    k_max = 32
    tol = 1e-8

    [norm]                  ; indicator
    deltas = 0.25 0.5 1 2 4
    atoms = 256
    atom_mass = 0.0625

    [martingale]            ; horizon: doob, block_chain; p: doob
    horizon = 12
    p = 1.25 2 4

    [fourier]               ; fourier
    m_list = 16 32 64 128
    degree_max = 12
    samples = 5
    grid_points = 1024

Set together, [psi] and [nu] name generalized_pisier's single (psi, nu)
pair; one left out is natural or power 1 respectively.  `natural` is the
self-normalizing psi of each family, so the indicator check rejects it.

Values are parsed and validated when the file loads: unknown sections and
keys, bad numbers and unknown names raise DomainError before any check
runs.  Errors inside a check become failed records.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DomainError
from .fixtures import disjoint_indicator_family
from .measure import load_family
from .psi import constant, doob_factor, from_table, power, ratio
from .report import Report
from .suite import NATURAL, VERBS, run_criteria, takes

__all__ = ["Scenario", "load_scenario", "run_scenario", "default_scenario"]

KINDS = tuple(VERBS)

_KNOWN_KEYS = {
    "scenario": {"kind", "seed"},
    "grid": {"lo", "p_max", "n"},
    "psi": {"name", "beta", "kappa", "points", "values"},
    "nu": {"name", "beta", "kappa", "points", "values"},
    "family": {"generator", "members", "atoms", "count", "path"},
    "chain": {"theta", "k_max", "tol"},
    "norm": {"deltas", "atoms", "atom_mass"},
    "martingale": {"horizon", "p"},
    "fourier": {"m_list", "degree_max", "samples", "grid_points"},
}

_CHAIN = ("pisier", "generalized_pisier", "chained_bound")
_GRID = ("generalized_pisier", "chained_bound", "indicator")


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)  # criterion name -> overrides


def default_scenario(kind: str, seed: int = 1) -> Scenario:
    if kind not in KINDS:
        raise DomainError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    return Scenario(kind=kind, seed=seed)


def load_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # configparser messages carry file/line diagnostics
        raise DomainError(f"unreadable scenario config: {exc}") from exc
    if not read:
        raise DomainError(f"cannot read scenario config {path}")
    if "scenario" not in parser:
        raise DomainError("config needs a [scenario] section with a kind")
    sections = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise DomainError(f"unknown section [{section}]")
        body = dict(parser[section])
        unknown = set(body) - _KNOWN_KEYS[section]
        if unknown:
            raise DomainError(f"unknown keys {sorted(unknown)} in [{section}]")
        sections[section] = body
    kind = sections["scenario"].get("kind")
    if kind not in KINDS:
        raise DomainError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    seed = _value(sections, "scenario", "seed", int, 1)
    return Scenario(kind=kind, seed=seed,
                    params=_params(sections, kind, Path(path).parent))


def _parse(section: str, key: str, raw: str, kind):
    try:
        value = kind(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise DomainError(f"[{section}] {key} = {raw!r} is not {what}")
    return value


def _value(sections: dict, section: str, key: str, kind, default=None, least=None):
    raw = sections.get(section, {}).get(key)
    value = default if raw is None else _parse(section, key, raw, kind)
    if least is not None and value is not None and value < least:
        raise DomainError(f"[{section}] {key} = {value} must be at least {least}")
    return value


def _values(sections: dict, section: str, key: str, kind):
    raw = sections.get(section, {}).get(key)
    if raw is None:
        return None
    if not raw.split():
        raise DomainError(f"[{section}] {key} needs at least one value")
    return tuple(_parse(section, key, tok, kind) for tok in raw.split())


def _check_tol(tol) -> None:
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tolerance must be finite and nonnegative, got {tol}")


def _psi(sections: dict, section: str):
    name = sections.get(section, {}).get("name")
    if name is None:
        return None
    if name == "natural":
        return NATURAL
    if name == "constant":
        return constant()
    if name == "power":
        return power(_value(sections, section, "beta", float, 1.0))
    if name == "doob_factor":
        return doob_factor()
    if name == "ratio":
        return ratio(_value(sections, section, "kappa", float, 1.0))
    if name == "table":
        return from_table(_values(sections, section, "points", float) or (),
                          _values(sections, section, "values", float) or ())
    raise DomainError(f"unknown psi constructor {name!r} in [{section}]")


def _family_file(sections: dict, base: Path):
    raw = sections["family"].get("path")
    if raw is None:
        raise DomainError("generator = file needs a path")
    path = base / raw
    try:
        return load_family(path)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot load family {path}: {exc}") from exc


def _params(sections: dict, kind: str, base: Path) -> dict:
    """Criterion name -> keyword overrides for every key the config sets."""
    params = {name: {} for name in VERBS["suite"]}
    given, reached = set(), set()

    def put(section, names, key, value):
        if value is not None:
            given.add(section)
            for name in names:
                params[name][key] = value
                if name in VERBS[kind]:
                    reached.add(section)

    generator = sections.get("family", {}).get("generator", "random_nonneg")
    if generator == "random_nonneg":
        members = _value(sections, "family", "members", int)
        put("family", _CHAIN, "members", None if members is None else (members, members + 1))
        put("family", _CHAIN, "count", _value(sections, "family", "count", int))
        put("family", _CHAIN, "atoms", _value(sections, "family", "atoms", int))
    elif generator == "disjoint_indicators":
        members = _value(sections, "family", "members", int, 12, least=1)
        put("family", _CHAIN, "family", disjoint_indicator_family(members))
    elif generator == "file":
        put("family", _CHAIN, "family", _family_file(sections, base))
    else:
        raise DomainError(f"unknown family generator {generator!r}")

    psi, nu = _psi(sections, "psi"), _psi(sections, "nu")
    if psi is not None or nu is not None:
        put("psi" if psi is not None else "nu", ("generalized_pisier",), "pairs",
            [(NATURAL if psi is None else psi, power(1.0) if nu is None else nu)])
    put("psi", ("chained_bound",), "psi", psi)
    put("nu", ("chained_bound",), "nus", None if nu is None else [nu])
    if psi is NATURAL and "indicator" in VERBS[kind]:
        raise DomainError("psi name 'natural' needs a family; the indicator check has none")
    put("psi", ("indicator",), "psis", None if psi is None else [psi])

    put("grid", _GRID, "grid_lo", _value(sections, "grid", "lo", float))
    put("grid", _GRID, "grid_n", _value(sections, "grid", "n", int))
    put("grid", _GRID, "p_max", _value(sections, "grid", "p_max", float))

    put("chain", ("chained_bound",), "thetas", _values(sections, "chain", "theta", float))
    put("chain", ("chained_bound",), "k_max", _value(sections, "chain", "k_max", int))
    tol = _value(sections, "chain", "tol", float)
    _check_tol(tol)
    put("chain", _CHAIN, "tol", tol)

    put("norm", ("indicator",), "deltas", _values(sections, "norm", "deltas", float))
    put("norm", ("indicator",), "atoms", _value(sections, "norm", "atoms", int))
    put("norm", ("indicator",), "atom_mass", _value(sections, "norm", "atom_mass", float))

    horizon = _value(sections, "martingale", "horizon", int)
    put("martingale", ("doob",), "horizons", None if horizon is None else (horizon,))
    put("martingale", ("block_chain",), "horizon", horizon)
    put("martingale", ("doob",), "ps", _values(sections, "martingale", "p", float))

    put("fourier", ("fourier",), "m_list", _values(sections, "fourier", "m_list", int))
    put("fourier", ("fourier",), "samples", _value(sections, "fourier", "samples", int, least=0))
    # the random polynomials draw their degree from 3..degree_max
    put("fourier", ("fourier",), "degree_max",
        _value(sections, "fourier", "degree_max", int, least=3))
    put("fourier", ("fourier",), "grid_points", _value(sections, "fourier", "grid_points", int))
    if given - reached:
        raise DomainError(f"[{min(given - reached)}] reaches no {kind} criterion")
    return params


def run_scenario(scn: Scenario, p_max: float | None = None,
                 tol: float | None = None) -> Report:
    """Run the scenario's criteria.  ``p_max`` and ``tol`` each replace the
    value, the config's included, of every criterion that declares them;
    DomainError if none of the verb's criteria does."""
    if p_max is not None and not math.isfinite(p_max):
        raise DomainError(f"p_max must be finite, got {p_max}")
    _check_tol(tol)
    names = VERBS[scn.kind]
    params = {name: dict(scn.params.get(name, {})) for name in names}
    for key, value in (("p_max", p_max), ("tol", tol)):
        if value is None:
            continue
        takers = [name for name in names if takes(name, key)]
        if not takers:
            raise DomainError(f"no {scn.kind} criterion takes {key}")
        for name in takers:
            params[name][key] = value
    return run_criteria(scn.kind, scn.seed, 200.0 if p_max is None else p_max, params)
