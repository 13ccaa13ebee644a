"""Ratchets on the public API: its settable defaulted values, and its
functions that only tests call.

An option with a default that no caller sets is a constant in disguise;
counting them over every module's ``__all__`` keeps new ones from
accumulating unnoticed.  Lower the limit when options go; raising it needs
a caller that sets the new option.  Likewise a public function that no
program code calls is kept alive by its tests alone; each one left is named
in ``TEST_ONLY`` with the reason it stays.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import bgl

LIMIT = 53

ROOT = Path(__file__).resolve().parents[1]

# public functions that no code under src/, scripts/ or perfbench/ calls
TEST_ONLY = {
    # bounds and weights that wait for a suite verdict or deletion
    "chaining.polynomial_entropy_check": "bound without a suite verdict yet",
    "chaining.exp_orlicz_bound": "bound without a suite verdict yet",
    "chaining.mri_chaining_bound": "bound without a suite verdict yet",
    "psi.check_log_convex": "check without a suite verdict yet",
    "psi.psi_kappa12": "weight without a suite verdict yet",
    "measure.save_family": "writer of the file format load_family reads",
    "fixtures.unit_interval_metric": "test fixture",
    "fixtures.unit_square_metric": "test fixture",
    "fixtures.sqrt_singularity_function": "test fixture",
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


def names_used_in_code() -> set:
    """Every identifier read as a name or an attribute by the program code;
    strings, such as ``__all__`` entries, do not count."""
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_public_functions_have_a_caller_outside_tests():
    used = names_used_in_code()
    unused = {f"{short}.{name}" for short, mod in public_modules()
              for name in getattr(mod, "__all__", ())
              if inspect.isfunction(getattr(mod, name)) and name not in used}
    # an entry whose function gained a caller, or went, leaves the list too
    assert unused == set(TEST_ONLY)
