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

A config only overrides parameters; an absent key keeps the suite's value.
Each key it sets is one override, named `[section] key`, and
`bgl.suite.run_criteria` routes it by the rule it applies to `--p-max` and
`--tol`: each parameter goes to every criterion of the verb that declares
it, and a key none of whose parameters reaches one is rejected.  The flags
come last, so they override `[grid] p_max` and `[chain] tol`.  Grammar
(INI-style, parsed by configparser); a key sets the parameter of its own
name unless noted:

    [scenario]
    kind = chain            ; norm | entropy | chain | martingale | fourier | suite
    seed = 7

    [grid]                  ; lo, n: grid_lo, grid_n; p_max as --p-max
    lo = 1.05
    p_max = 200
    n = 64

    [psi]                   ; name: pairs, psi, psis
    name = power            ; constant | power | doob_factor | ratio | table | natural
    beta = 1.0              ; power only; kappa for ratio, points/values for table

    [nu]                    ; name: nus, and pairs unless [psi] name is set
    name = doob_factor      ; names and their keys as in [psi]

    [family]                ; generator: family, unless random_nonneg
    generator = random_nonneg   ; random_nonneg | disjoint_indicators | file
    members = 12                ; read by random_nonneg and disjoint_indicators
    atoms = 48                  ; read by random_nonneg only
    count = 20                  ; read by random_nonneg only
                                ; generator = file reads only path, relative to this file

    [chain]                 ; theta: thetas; tol as --tol
    theta = 0.3 0.5 0.7
    k_max = 32
    tol = 1e-8

    [norm]                  ; atoms: space_atoms
    deltas = 0.25 0.5 1 2 4
    atoms = 256
    atom_mass = 0.0625

    [martingale]            ; horizon: horizons and horizon; p: ps
    horizon = 12
    p = 1.25 2 4

    [fourier]
    m_list = 16 32 64 128
    degree_max = 12
    samples = 5
    grid_points = 1024

Set together, [psi] and [nu] name generalized_pisier's single (psi, nu)
pair; one left out is natural or power 1 respectively.  `natural` is the
self-normalizing psi of each family, so the indicator check rejects it.

Values are parsed when the file loads: unknown sections, a key the config
does not read (say `beta` under `name = ratio`), bad numbers and unknown
names raise DomainError.  `run_criteria` then checks each value against its
parameter's rule in `bgl.suite._RULES`, `p_max` against each grid's lower
end, and each psi at its grids' ends, before any check runs: a
value no check can run on (`[martingale] p = 1`, `[grid] lo = 0.5`, `[fourier]
m_list = 512` at 1024 grid points, `[psi] name = ratio` with `kappa = 2`)
raises DomainError too.  Errors inside a check become failed records, among
them a delta that no subset of the atoms adds up to, and a psi*nu product
that is not finite and positive on its grid, such as p^130 * p^130.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError
from .fixtures import disjoint_indicator_family
from .measure import load_family
from .psi import constant, doob_factor, from_table, power, ratio
from .suite import NATURAL, VERBS, check_value

__all__ = ["Scenario", "load_scenario"]

_SECTIONS = ("scenario", "grid", "psi", "nu", "family", "chain", "norm", "martingale", "fourier")


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    overrides: tuple = ()  # (source, {parameter: value}) for bgl.suite.run_criteria


def load_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser messages carry file/line diagnostics
        raise DomainError(f"unreadable scenario config: {exc}") from exc
    if not read:
        raise DomainError(f"cannot read scenario config {path}")
    if "scenario" not in parser:
        raise DomainError("config needs a [scenario] section with a kind")
    sections = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise DomainError(f"unknown section [{section}]")
        sections[section] = dict(parser[section])
    kind = _take(sections, "scenario", "kind")
    if kind not in VERBS:
        raise DomainError(f"unknown scenario kind {kind!r}; expected one of {tuple(VERBS)}")
    scn = Scenario(kind, _value(sections, "scenario", "seed", int, 1),
                   _overrides(sections, kind, Path(path).parent))
    # every read takes its key out, so a key left over is one this config never reads
    for section, body in sections.items():
        if body:
            raise DomainError(f"[{section}] {min(body)} is not read by this config")
    return scn


def _take(sections: dict, section: str, key: str, default=None):
    return sections.get(section, {}).pop(key, default)


def _parse(section: str, key: str, raw: str, kind):
    try:
        value = kind(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise DomainError(f"[{section}] {key} = {raw!r} is not {what}")
    return value


def _value(sections: dict, section: str, key: str, kind, default=None):
    raw = _take(sections, section, key)
    return default if raw is None else _parse(section, key, raw, kind)


def _values(sections: dict, section: str, key: str, kind):
    raw = _take(sections, section, key)
    if raw is None:
        return None
    if not raw.split():
        raise DomainError(f"[{section}] {key} needs at least one value")
    return tuple(_parse(section, key, tok, kind) for tok in raw.split())


def _psi(sections: dict, section: str):
    name = _take(sections, section, "name")
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
    raw = _take(sections, "family", "path")
    if raw is None:
        raise DomainError("generator = file needs a path")
    path = base / raw
    try:
        return load_family(path)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot load family {path}: {exc}") from exc


def _overrides(sections: dict, kind: str, base: Path) -> tuple:
    """One ``(source, {parameter: value})`` per key the config sets, in
    reading order; the keys a constructor or generator reads (``beta``,
    ``path``, ...) belong to the ``name`` or ``generator`` key's source."""
    found = []

    def put(section, key, **params):
        params = {param: value for param, value in params.items() if value is not None}
        if params:
            found.append((f"[{section}] {key}", params))

    generator = _take(sections, "family", "generator", "random_nonneg")
    if generator == "random_nonneg":
        members = _value(sections, "family", "members", int)
        put("family", "members", members=None if members is None else (members, members + 1))
        put("family", "count", count=_value(sections, "family", "count", int))
        put("family", "atoms", atoms=_value(sections, "family", "atoms", int))
    elif generator == "disjoint_indicators":
        # the family is built here, so its size meets the members rule first
        members = _value(sections, "family", "members", int, 12)
        check_value("[family] members", "members", members)
        try:
            family = disjoint_indicator_family(members)
        except MemoryError:
            raise DomainError(f"[family] members = {members}: "
                              f"a {members} x {members} family does not fit in memory") from None
        put("family", "generator", family=family)
    elif generator == "file":
        put("family", "generator", family=_family_file(sections, base))
    else:
        raise DomainError(f"unknown family generator {generator!r}")

    psi, nu = _psi(sections, "psi"), _psi(sections, "nu")
    if psi is NATURAL and "indicator" in VERBS[kind]:
        raise DomainError("psi name 'natural' needs a family; the indicator check has none")
    # generalized_pisier's one (psi, nu) pair goes with [psi] name if it is set
    pairs = [(NATURAL if psi is None else psi, power(1.0) if nu is None else nu)]
    if psi is not None:
        put("psi", "name", pairs=pairs, psi=psi, psis=[psi])
    if nu is not None:
        put("nu", "name", pairs=None if psi is not None else pairs, nus=[nu])

    put("grid", "lo", grid_lo=_value(sections, "grid", "lo", float))
    put("grid", "p_max", p_max=_value(sections, "grid", "p_max", float))
    put("grid", "n", grid_n=_value(sections, "grid", "n", int))

    put("chain", "theta", thetas=_values(sections, "chain", "theta", float))
    put("chain", "k_max", k_max=_value(sections, "chain", "k_max", int))
    put("chain", "tol", tol=_value(sections, "chain", "tol", float))

    put("norm", "deltas", deltas=_values(sections, "norm", "deltas", float))
    put("norm", "atoms", space_atoms=_value(sections, "norm", "atoms", int))
    put("norm", "atom_mass", atom_mass=_value(sections, "norm", "atom_mass", float))

    horizon = _value(sections, "martingale", "horizon", int)
    put("martingale", "horizon", horizons=None if horizon is None else (horizon,),
        horizon=horizon)
    put("martingale", "p", ps=_values(sections, "martingale", "p", float))

    put("fourier", "m_list", m_list=_values(sections, "fourier", "m_list", int))
    put("fourier", "samples", samples=_value(sections, "fourier", "samples", int))
    put("fourier", "degree_max", degree_max=_value(sections, "fourier", "degree_max", int))
    put("fourier", "grid_points", grid_points=_value(sections, "fourier", "grid_points", int))
    return tuple(found)
