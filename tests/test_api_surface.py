"""Ratchets on the public API: its settable defaulted values, and its
functions and members that only tests call.

An option with a default that no caller sets is a constant in disguise;
counting them over every module's ``__all__`` keeps new ones from
accumulating unnoticed.  Lower the limit when options go; raising it needs
a caller that sets the new option.  Likewise a public function, method or
property that no program code reads is kept alive by its tests alone; each
one left is named in ``TEST_ONLY`` with the reason it stays.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import bgl

LIMIT = 45

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


def _defaulted(fn) -> list:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def public_modules():
    for info in pkgutil.iter_modules(bgl.__path__):
        yield info.name, importlib.import_module(f"bgl.{info.name}")


def settable_defaults() -> list:
    """module.name(param) for each defaulted parameter of a public function,
    of a public class's constructor, and of the class's public methods."""
    found = []
    for short, mod in public_modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if not callable(obj):
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                targets += [(f"{name}.{attr}", getattr(obj, attr))
                            for attr, member in vars(obj).items()
                            if not attr.startswith("_")
                            and (inspect.isfunction(member)
                                 or isinstance(member, (staticmethod, classmethod)))]
            for label, fn in targets:
                found += [f"{short}.{label}({p})" for p in _defaulted(fn)]
    return found


def test_settable_defaults_do_not_grow():
    found = settable_defaults()
    assert len(found) <= LIMIT, "\n".join(found)


def test_counter_sees_class_methods_and_constructors():
    found = settable_defaults()
    assert "psi.PGrid.log_spaced(p_max_cap)" in found
    assert "entropy.SemiMetric(trusted)" in found
    assert "chaining.entropy_sum_bound(k_max)" in found


def names_used_in_code() -> tuple:
    """(names, attributes): every identifier the program code reads as a bare
    name, and every one it reads as an attribute.  Strings, such as
    ``__all__`` entries, and stores, such as a field annotation or an
    assignment target, do not count."""
    names, attrs = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
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
