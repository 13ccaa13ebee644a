"""Ratchets on the public API: its settable defaulted values, and its
functions and members that only tests call.

An option with a default that no caller sets is a constant in disguise;
counting them over every module's ``__all__`` keeps new ones from
accumulating unnoticed.  Lower the limit when options go; raising it needs
a caller that sets the new option.  Each default that no program code sets
is named in ``UNSET`` with the reason it stays, so a new constant in
disguise cannot hide under the count.  Likewise a public function, method or
property that no program code reads is kept alive by its tests alone; each
one left is named in ``TEST_ONLY`` with the reason it stays.
"""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import bgl

LIMIT = 38

ROOT = Path(__file__).resolve().parents[1]

# public functions and class members that no code under src/, scripts/ or
# perfbench/ reads
TEST_ONLY = {
    # bounds and weights that wait for a suite verdict or deletion
    "chaining.polynomial_entropy_check": "bound without a suite verdict yet",
    "chaining.exp_orlicz_bound": "bound without a suite verdict yet",
    "chaining.mri_chaining_bound": "bound without a suite verdict yet",
    "psi.check_log_convex": "check without a suite verdict yet",
    "psi.psi_kappa12": "weight without a suite verdict yet",
    "measure.save_family": "writer of the file format load_family reads",
}

# settable defaults that no call under src/, scripts/ or perfbench/ sets
UNSET = {
    # options of bounds and norms that wait for a suite verdict
    "chaining.entropy_sum_bound(k_max)": "tests truncate the chain to pin its tail",
    "chaining.exp_orlicz_bound(k_max)": "bound without a suite verdict yet",
    "chaining.polynomial_entropy_check(theta)": "check without a suite verdict yet",
    "psi.PGrid.inside(p_max_cap)": "read by exp_orlicz_bound, which has no suite verdict yet",
    **{f"norms.MriNormSpec({field})": "m.r.i. norms have no suite verdict yet"
       for field in ("psi", "grid", "q", "alpha", "nodes", "weights")},
    # the walk laws the level path is tested on besides the +-1 step
    "martingale.build_walk_ensemble(increments)": "tests' three-point and biased walk laws",
    "martingale.build_walk_ensemble(probs)": "tests' biased walk law",
    "report.Report(records)": "a report starts empty; run_criteria appends its records",
}


def _defaulted(fn) -> list:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def public_modules():
    for info in pkgutil.iter_modules(bgl.__path__):
        yield info.name, importlib.import_module(f"bgl.{info.name}")


def public_callables():
    """(module.label, callable) for each public function, public class (its
    constructor) and public method of a public class."""
    for short, mod in public_modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if not callable(obj):
                continue
            yield f"{short}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(
                            member, (staticmethod, classmethod))):
                        yield f"{short}.{name}.{attr}", getattr(obj, attr)


def settable_defaults() -> list:
    """module.label(param) for each defaulted parameter of a public function,
    of a public class's constructor, and of the class's public methods."""
    return [f"{label}({p})" for label, fn in public_callables() for p in _defaulted(fn)]


def calls_in_code() -> dict:
    """name -> (most positional arguments, keywords) over every call under
    src/, scripts/ and perfbench/ of a bare name or an attribute of that
    name.  A splat counts as every position, a ``**`` as every keyword, so a
    call of an unrelated function that shares the name can only add to
    what counts as set."""
    calls = {}
    for path in code_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            entry = calls.setdefault(name, [0, set()])
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            entry[0] = max(entry[0], math.inf if starred else len(node.args))
            entry[1] |= {kw.arg or "**" for kw in node.keywords}
    return calls


def unset_defaults() -> set:
    """module.label(param) for each settable default that no call in the
    program code sets, by keyword or by position.  Calls are matched by the
    last part of the label; a method's ``self`` takes no position."""
    calls = calls_in_code()
    unset = set()
    for label, fn in public_callables():
        positional, keywords = calls.get(label.rsplit(".", 1)[-1], (0, set()))
        try:
            params = list(inspect.signature(fn).parameters.values())
        except (TypeError, ValueError):
            continue
        if params and params[0].name == "self":
            params = params[1:]
        for i, p in enumerate(params):
            by_position = p.kind is not p.KEYWORD_ONLY and i < positional
            if p.default is not p.empty and not (by_position or p.name in keywords
                                                  or "**" in keywords):
                unset.add(f"{label}({p.name})")
    return unset


def test_settable_defaults_do_not_grow():
    found = settable_defaults()
    assert len(found) <= LIMIT, "\n".join(found)


def test_every_unset_default_is_named():
    # an entry whose option gained a setter, or went, leaves the list too
    assert unset_defaults() == set(UNSET)


def test_counter_sees_class_methods_and_constructors():
    found = settable_defaults()
    assert "psi.PGrid.log_spaced(p_max_cap)" in found
    assert "entropy.SemiMetric(trusted)" in found
    assert "chaining.entropy_sum_bound(k_max)" in found


def code_files() -> list:
    return [path for folder in ("src", "scripts", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))]


def names_used_in_code() -> tuple:
    """(names, attributes): every identifier the program code reads as a bare
    name, and every one it reads as an attribute.  Strings, such as
    ``__all__`` entries, and stores, such as a field annotation or an
    assignment target, do not count."""
    names, attrs = set(), set()
    for path in code_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def unused_public_callables() -> set:
    """module.name of each public function that the program code never reads,
    and module.Class.member of each public method and property of a public
    class that it never reads as an attribute.  Dataclass fields and dunders
    are not members here."""
    names, attrs = names_used_in_code()
    unused = set()
    for short, mod in public_modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and name not in names | attrs:
                unused.add(f"{short}.{name}")
            elif inspect.isclass(obj):
                unused |= {f"{short}.{name}.{attr}" for attr, member in vars(obj).items()
                           if not attr.startswith("_") and attr not in attrs
                           and (inspect.isfunction(member) or isinstance(
                               member, (staticmethod, classmethod, property)))}
    return unused


def test_public_functions_have_a_caller_outside_tests():
    # an entry whose function or member gained a caller, or went, leaves the list too
    assert unused_public_callables() == set(TEST_ONLY)
