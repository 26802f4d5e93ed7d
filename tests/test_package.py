import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import knotlab
from knotlab import diagram, errors, family, laurent, morse, seifert, sequiv

SRC = Path(knotlab.__file__).resolve().parent.parent
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
# modules no one-shot call needs (together about 10 ms to import), and the
# knotlab modules that a Jones polynomial, an S-equivalence decision and
# an Alexander polynomial have no use for; the CI step "Import footprint"
# checks the same sets
HEAVY_STDLIB = {"dataclasses", "inspect", "fractions", "decimal", "typing"}
NOT_FOR_JONES = HEAVY_STDLIB | {"knotlab.seifert", "knotlab.sequiv", "knotlab.morse",
                                "knotlab.family"}
NOT_FOR_SEQUIV = HEAVY_STDLIB | {"knotlab.diagram", "knotlab.morse", "knotlab.family"}
NOT_FOR_ALEXANDER = NOT_FOR_SEQUIV | {"knotlab.sequiv"}


def modules_added(code: str, path: str = str(SRC)) -> set[str]:
    """The modules that running ``code`` in a fresh interpreter imports,
    with ``path`` as its PYTHONPATH.  ``-S`` skips ``site``, which on some
    installs imports ``typing``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stdout.flush()\n"
        "print('MODULES', *sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1].split()
    assert last[0] == "MODULES"
    return set(last[1:])


# every public name; a change here is a change to the package's interface
PUBLIC = [
    "CongruenceCertificate", "KnotError", "LambdaSpec", "LaurentPoly", "MorseBuilder",
    "PlanarDiagram", "SeifertMatrix", "__version__", "add_kink", "alexander",
    "brute_force_congruence", "connect_sum", "connected_sum", "connected_sum_certificate",
    "decide_first_sequiv", "enlarge_first", "enlarge_second", "int_det", "jones",
    "jones_twist", "kauffman_bracket", "knot_determinant", "lambda_diagram",
    "lambda_seifert", "lambda_twist", "mirror", "paper_report", "parse_matrix", "parse_pd",
    "render_report", "seifert_by_linking", "signature",
    "twist_form", "validate", "verify_certificate",
]


def test_root_table_is_the_one_list_of_public_names():
    # the table names the module that defines each name, not one that
    # imports it from there
    for module, names in knotlab._EXPORTS.items():
        for name in names:
            assert getattr(knotlab, name).__module__ == f"knotlab.{module}", name
    assert len(set(knotlab.__all__)) == len(knotlab.__all__)
    assert set(knotlab.__all__) <= set(dir(knotlab))
    assert sorted(knotlab.__all__) == PUBLIC
    # no module keeps a second list; cli's names only main, which the root
    # does not export
    modules = {info.name: importlib.import_module(f"knotlab.{info.name}")
               for info in pkgutil.iter_modules(knotlab.__path__)}
    assert [name for name, mod in modules.items() if hasattr(mod, "__all__")] == ["cli"]
    assert modules["cli"].__all__ == ["main"]


def test_root_reads_through_to_the_defining_module(monkeypatch):
    assert knotlab.jones is diagram.jones
    assert knotlab.KnotError is errors.KnotError

    def replaced(d):
        return "replaced"

    # the root keeps no copy, so a replaced attribute is never stale there
    monkeypatch.setattr(diagram, "jones", replaced)
    assert knotlab.jones is replaced
    assert "jones" not in vars(knotlab)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        knotlab.no_such_name
    from knotlab import cli
    assert cli.main


def test_jones_from_the_root_loads_only_the_bracket():
    added = modules_added(
        f"import knotlab\nknotlab.jones(knotlab.parse_pd({TREFOIL!r}))")
    assert "knotlab.diagram" in added
    assert not added & NOT_FOR_JONES


def test_cli_jones_loads_only_the_bracket():
    added = modules_added(
        f"from knotlab.cli import main\nassert main(['jones', '--pd', {TREFOIL!r}]) == 0")
    assert "knotlab.diagram" in added
    assert not added & NOT_FOR_JONES


def test_cli_sequiv_loads_no_diagram_code():
    added = modules_added(
        "from knotlab.cli import main\n"
        "assert main(['sequiv', '--seifert', '[[0,1],[2,0]]', '--ell', '3',"
        " '--oracle-bound', '3']) == 0")
    assert "knotlab.sequiv" in added
    assert not added & NOT_FOR_SEQUIV


def test_cli_alexander_loads_only_the_seifert_code():
    added = modules_added(
        "from knotlab.cli import main\n"
        "assert main(['alexander', '--seifert', '[[0,2],[1,0]]']) == 0")
    assert "knotlab.seifert" in added
    assert not added & NOT_FOR_ALEXANDER


def test_oracles_import_nothing_from_the_package():
    # src is on the path too, so an import of knotlab would succeed and
    # show here rather than fail
    tests = Path(__file__).resolve().parent
    added = modules_added("import oracles", os.pathsep.join([str(tests), str(SRC)]))
    assert "oracles" in added
    assert not {name for name in added if name.split(".")[0] == "knotlab"}


# ---- the immutable value classes ----

M = seifert.SeifertMatrix(((0, 1), (2, 0)))
# (value, an equal value built separately, a different value, repr)
VALUES = [
    (M, seifert.SeifertMatrix([[0, 1], [2, 0]]), seifert.SeifertMatrix(((0, 2), (1, 0))),
     "SeifertMatrix(rows=((0, 1), (2, 0)))"),
    (seifert.CongruenceCertificate(((1, -1), (0, 1))),
     seifert.CongruenceCertificate([[1, -1], [0, 1]]),
     seifert.CongruenceCertificate.identity(2),
     "CongruenceCertificate(rows=((1, -1), (0, 1)))"),
    (diagram.parse_pd(TREFOIL), diagram.validate([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]),
     diagram.mirror(diagram.parse_pd(TREFOIL)),
     "PlanarDiagram(crossings=((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)),"
     " signs=(-1, -1, -1))"),
    (family.LambdaSpec(0, 0, 3), family.LambdaSpec(0, 0, 3), family.LambdaSpec(0, 0, -3),
     "LambdaSpec(n=0, m=0, p=3)"),
    (sequiv.decide_first_sequiv(M, 3), sequiv.decide_first_sequiv(M, 3, "first"),
     sequiv.decide_first_sequiv(M, 6),
     "SEquivReport(matrix=SeifertMatrix(rows=((0, 1), (2, 0))),"
     " twisted=SeifertMatrix(rows=((-3, 1), (2, 0))), ell=3, band='first',"
     " equivalent=True, certificate=CongruenceCertificate(rows=((1, -1), (0, 1))),"
     " reason='a22 = 0 and s = 3 divides ell = 3',"
     " note='first S-equivalence implies S-equivalence of the two forms')"),
]
VALUE_IDS = [type(case[0]).__name__ for case in VALUES]
# LaurentPoly's field is a dict, so its hash is its own (see below)
POLY = laurent.LaurentPoly({-1: 1, 0: -2, 1: 1})
ALL_VALUES = [case[0] for case in VALUES] + [POLY]
ALL_IDS = VALUE_IDS + ["LaurentPoly"]


@pytest.mark.parametrize("value, same, other, text", VALUES, ids=VALUE_IDS)
def test_value_class_equality_hash_and_repr(value, same, other, text):
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    assert value != text and value != object()
    assert repr(value) == text
    # the hash of the tuple of compared fields, as a frozen dataclass's
    fields = {"PlanarDiagram": ("crossings", "signs")}.get(type(value).__name__,
                                                          type(value).__slots__)
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))


def test_laurent_poly_equality_hash_and_repr():
    same = laurent.LaurentPoly({1: 1, -1: 1, 0: -2})
    assert POLY is not same and POLY == same and not POLY != same
    assert hash(POLY) == hash(same) == hash(frozenset({-1: 1, 0: -2, 1: 1}.items()))
    assert POLY != laurent.LaurentPoly.one() and POLY != "t^-1 - 2 + t"
    assert repr(POLY) == "LaurentPoly('t^-1 - 2 + t')"


@pytest.mark.parametrize("value", ALL_VALUES, ids=ALL_IDS)
def test_value_class_is_immutable_and_pickles(value):
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and repr(copy) == repr(value)


@pytest.mark.parametrize("value", ALL_VALUES, ids=ALL_IDS)
def test_value_class_copies(value):
    for duplicate in (copy.copy(value), copy.deepcopy(value)):
        assert type(duplicate) is type(value)
        assert duplicate == value and hash(duplicate) == hash(value)
        # every slot, the diagram's arc table too, which it rebuilds
        for name in type(value).__slots__:
            assert getattr(duplicate, name) == getattr(value, name)


def test_diagram_equality_ignores_the_arc_table():
    d = diagram.parse_pd(TREFOIL)
    e = diagram.parse_pd(TREFOIL)
    object.__setattr__(e, "_mate", ())
    assert d == e and hash(d) == hash(e)
    assert "_mate" not in repr(d)


class _NoRepr:
    def __repr__(self):
        raise RuntimeError("no repr")


@pytest.mark.parametrize("value, text", [
    (-(2**63), str(-(2**63))), (2**64 - 1, str(2**64 - 1)), (2**64, "<65 bits>"),
    (-(2**64), "-<65 bits>"),
    (True, "True"), ("lr?", "'lr?'"), ((1, 2), "(1, 2)"),
    ("x" * 300, "'" + "x" * 196 + "..."), ((10**5000,), "<unprintable tuple>"),
    (_NoRepr(), "<unprintable _NoRepr>"),
], ids=["int64_min", "uint64_max", "65_bits", "minus_65_bits", "bool", "text", "tuple",
        "long_text", "tuple_of_huge_int", "raising_repr"])
def test_value_text(value, text):
    assert errors.value_text(value) == text


HUGE = 10**5000


def _trefoil():
    return diagram.parse_pd(TREFOIL)


# each refusal echoes a huge int, or a value whose repr holds one; every
# one fails while it is formatted unless value_text formats it
@pytest.mark.parametrize("call, message", [
    (lambda: diagram.add_kink(_trefoil(), HUGE, 1), "pd: unknown arc <16610 bits>"),
    (lambda: diagram.connect_sum(_trefoil(), 1, _trefoil(), HUGE), "pd: unknown arc <16610 bits>"),
    (lambda: morse.MorseBuilder().crossing(HUGE), "morse: position <16610 bits> out of range"),
    (lambda: morse.MorseBuilder().cap(HUGE), "morse: cap position <16610 bits> out of range"),
    (lambda: morse.MorseBuilder().crossing(0, HUGE),
     "morse: over must be 'L' or 'R', got <16610 bits>"),
    (lambda: morse.MorseBuilder().cap(0, flow=HUGE),
     "morse: flow must be 'lr' or 'rl', got <16610 bits>"),
    (lambda: sequiv.decide_first_sequiv(seifert.SeifertMatrix(((0, 1), (2, 0))), 3, HUGE),
     "band must be 'first' or 'second', got <16610 bits>"),
    (lambda: diagram.PlanarDiagram(HUGE), "pd: crossings must be a sequence, got <16610 bits>"),
    (lambda: diagram.PlanarDiagram([[HUGE]]), "pd: crossing needs 4 arcs, got <unprintable list>"),
    (lambda: family.LambdaSpec((HUGE,), 0, 3), "lambda: n must be an int, got <unprintable tuple>"),
    (lambda: seifert.int_det([[(HUGE,), 1], [1, 1]]),
     "int_det: entries must be ints, got <unprintable tuple>"),
], ids=["add_kink", "connect_sum", "crossing_position", "cap_position", "crossing_over",
        "cap_flow", "band", "crossings", "crossing", "lambda_spec", "int_det"])
def test_refusals_echoing_huge_values_are_knot_errors(call, message):
    with pytest.raises(errors.KnotError) as refusal:
        call()
    assert str(refusal.value) == message


# each twist function names ell when it is refused; a bool is not taken
# as 0 or 1
@pytest.mark.parametrize("call, message", [
    (lambda: sequiv.decide_first_sequiv(M, 1.5), "twist: ell must be an int, got 1.5"),
    (lambda: sequiv.decide_first_sequiv(M, True), "twist: ell must be an int, got True"),
    (lambda: sequiv.twist_form(M, "3", "second"), "twist: ell must be an int, got '3'"),
    (lambda: family.lambda_twist(family.LambdaSpec(0, 0, 3), 1.5),
     "lambda: ell must be an int, got 1.5"),
    (lambda: family.lambda_twist(family.LambdaSpec(0, 0, 3), True, "second"),
     "lambda: ell must be an int, got True"),
    (lambda: diagram.jones_twist(POLY, True), "jones: ell must be an int, got True"),
    (lambda: diagram.jones_twist(POLY, 1.5), "jones: ell must be an int, got 1.5"),
], ids=["decide_float", "decide_bool", "twist_form_text", "lambda_twist_float",
        "lambda_twist_bool", "jones_twist_bool", "jones_twist_float"])
def test_twist_functions_name_ell(call, message):
    with pytest.raises(errors.KnotError) as refusal:
        call()
    assert str(refusal.value) == message
