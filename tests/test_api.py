"""The package's public names."""

import fullgraph


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fullgraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(fullgraph.__all__))
    assert len(fullgraph.__all__) == len(namespace) <= 30
    for name, value in namespace.items():
        assert value is getattr(fullgraph, name)
        assert getattr(value, "__module__", "").startswith("fullgraph."), name
