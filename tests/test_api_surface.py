"""A ratchet on the public API's settable defaulted values.

An option with a default that no caller sets is a constant in disguise;
counting them over every module's ``__all__`` keeps new ones from
accumulating unnoticed.  Lower the limit when options go; raising it needs
a caller that sets the new option.
"""

import importlib
import inspect
import pkgutil

import bgl

LIMIT = 62


def _defaulted(fn) -> list:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def settable_defaults() -> list:
    """module.name(param) for each defaulted parameter of a public function,
    of a public class's constructor, and of the class's public methods."""
    found = []
    for info in pkgutil.iter_modules(bgl.__path__):
        mod = importlib.import_module(f"bgl.{info.name}")
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
                found += [f"{info.name}.{label}({p})" for p in _defaulted(fn)]
    return found


def test_settable_defaults_do_not_grow():
    found = settable_defaults()
    assert len(found) <= LIMIT, "\n".join(found)


def test_counter_sees_class_methods_and_constructors():
    found = settable_defaults()
    assert "psi.PGrid.log_spaced(p_max_cap)" in found
    assert "entropy.SemiMetric(trusted)" in found
    assert "chaining.entropy_sum_bound(k_max)" in found
