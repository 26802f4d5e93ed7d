import knotlab
from knotlab import diagram, family, laurent, morse, seifert, sequiv


def test_root_exports_each_module_all_once():
    modules = (laurent, seifert, sequiv, diagram, morse, family)
    expected = ["KnotError", *(n for mod in modules for n in mod.__all__), "__version__"]
    assert sorted(knotlab.__all__) == sorted(expected)
    assert len(set(knotlab.__all__)) == len(knotlab.__all__)
    for name in knotlab.__all__:
        assert hasattr(knotlab, name), name
