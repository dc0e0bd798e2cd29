"""The package exports what its modules' ``__all__`` lists, and nothing else."""

import liemetric
from liemetric import classify, constructions, geometry, lie, linalg

MODULES = (linalg, lie, geometry, classify, constructions)


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from liemetric import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(liemetric.__all__)
    assert len(set(liemetric.__all__)) == len(liemetric.__all__)


def test_every_module_export_is_the_same_package_attribute():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(liemetric, name) is getattr(module, name), (module.__name__, name)
    assert liemetric.__all__ == ["errors", "__version__", *(name for m in MODULES for name in m.__all__)]


def test_helpers_outside_all_stay_importable_from_their_module():
    from liemetric.linalg import DEGREES, MAX_ABS, as_matrix, as_real_array, exponent, size_exponent

    assert DEGREES["jacobi"] == (2, 0) and MAX_ABS == 1e50 and exponent(3.0) == 1 and size_exponent(3.0) == 1
    assert as_matrix([[1, 0], [0, 1]]).shape == (2, 2) and as_real_array([1]).shape == (1,)
    helpers = {"DEGREES", "MAX_ABS", "as_matrix", "as_real_array", "exponent", "size_exponent"}
    assert not helpers & set(liemetric.__all__)
