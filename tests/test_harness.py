import ast
import copy
import importlib
import importlib.util
import itertools
import json
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bundled, bundled_text
from torslab import cli, cones, presentations, reports, silting, stability, torsion
from torslab.catalogue import Catalogue
from torslab.reports import exit_code, refield, render_json
from torslab.algebra import Arrow, load_algebra, memo

# linear A3: hereditary and representation-finite, so every torsion class is
# functorially finite (Adachi-Iyama-Reiten), but at bound (1,1,1) some of the
# Fac and Sub witnesses are direct sums that leave the window
A3_LINEAR = """
field p=2
vertices 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
"""


def test_smalo_class_counts(a2, kxk, loop):
    for A, bound, want in ((a2, (2, 2), 5), (kxk, (1, 1), 4), (loop, (2,), 2)):
        rep = reports.suite_smalo(A, bound, "x")
        assert rep["counts"]["fail"] == 0
        assert rep["counts"]["window-limited"] == 0
        assert rep["checks"][0]["witness"]["classes"] == want
        assert exit_code(rep) == 0


def test_smalo_rejects_unstable_window(kronecker):
    # the torsion census grows between (2,2) and (3,3), so no certificate
    with pytest.raises(reports.ReportError):
        reports.suite_smalo(kronecker, (2, 2), "kronecker")


def test_semistable_a2_all_rigid_all_pass(a2):
    rep = reports.suite_semistable(a2, (2, 2), grid=(-4, 4), depth=6, algebra_id="a2")
    assert exit_code(rep) == 0
    summary = rep["checks"][-1]["witness"]
    assert summary["points"] == 81
    assert summary["full-pass"] == 81
    assert summary["graph-complete"] is True
    assert summary["ample"] is True
    for c in rep["checks"][:-1]:
        w = c["witness"]
        assert w["verdict"] == "rigid"
        assert all(w["predicates"].values())
        if w["rays"]:
            assert w["coherent"] is True
            tm = w["tbar-map"]
            # a skipped sweep is allowed, a completed one must realize level 1
            assert tm["level"] == 1 or not tm["searched"]


def test_semistable_kronecker_window_limited_points(kronecker):
    rep = reports.suite_semistable(
        kronecker, (3, 3), grid=(-2, 2), depth=10, algebra_id="kronecker"
    )
    assert exit_code(rep) == 2
    limited = {
        tuple(c["witness"]["theta"])
        for c in rep["checks"][:-1]
        if c["status"] == "window-limited"
    }
    assert limited == {(1, -1), (2, -2)}
    ray = [c for c in rep["checks"] if c["claim"] == "semistable[1,-1]"][0]
    w = ray["witness"]
    assert w["verdict"] == "unknown"
    assert w["strict-inclusion"] is True
    assert w["Tbar-witnesses"]["fac"] is None
    assert rep["counts"]["fail"] == 0


def test_numdis_small_algebras_pass(a2, kxk, loop):
    for A, bound in ((a2, (2, 2)), (kxk, (1, 1)), (loop, (2,))):
        rep = reports.suite_numdis(A, bound, "x")
        assert exit_code(rep) == 0


def test_numdis_hereditary_checks_present(a2, loop):
    rep = reports.suite_numdis(a2, (2, 2), "a2")
    assert any(c["claim"].startswith("hereditary") for c in rep["checks"])
    rep = reports.suite_numdis(loop, (2,), "loop")
    # the loop algebra has a relation, so no hereditary claims
    assert not any(c["claim"].startswith("hereditary") for c in rep["checks"])


def test_brickfinite_statuses(loop, kronecker):
    rep = reports.suite_brickfinite(loop, (2,), "loop")
    assert exit_code(rep) == 0
    eq = [c for c in rep["checks"] if c["claim"] == "brickfinite-equivalences"][0]
    assert eq["status"] == "pass"

    rep = reports.suite_brickfinite(kronecker, (2, 2), "kronecker")
    assert exit_code(rep) == 2
    assert rep["counts"]["fail"] == 0
    census = [c for c in rep["checks"] if c["claim"] == "brick-census"][0]
    assert census["status"] == "window-limited"
    assert census["witness"]["bricks-at-next-bound"] > census["witness"]["bricks"]
    eq = [c for c in rep["checks"] if c["claim"] == "brickfinite-equivalences"][0]
    assert eq["status"] == "window-limited"
    t = eq["witness"]
    assert t["ff"] <= t["bicompact"] <= t["compact"] <= t["widely-generated"]


def test_missing_witness_is_window_limited(a2):
    a3 = load_algebra(A3_LINEAR)
    for suite, limited in (
        (reports.suite_smalo, 12),
        (reports.suite_numdis, 15),
        (reports.suite_brickfinite, 1),
    ):
        rep = suite(a3, (1, 1, 1), "a3")
        assert rep["counts"]["fail"] == 0, suite.__name__
        assert rep["counts"]["window-limited"] == limited, suite.__name__
        assert exit_code(rep) == 2
    # the census is stable at (1,1), but the Sub witness S1+P1 has dims (2,1)
    rep = reports.suite_semistable(a2, (1, 1), grid=(-1, 1), depth=4, algebra_id="a2")
    assert rep["checks"][-1]["witness"]["ample"] is True
    assert rep["counts"]["fail"] == 0
    assert rep["counts"]["window-limited"] == 7
    assert exit_code(rep) == 2


def _catalogue_bounds(monkeypatch):
    """Bounds of every Catalogue built from now on, in order."""
    bounds = []
    init = Catalogue.__init__

    def counting(self, algebra, bound, *args, **kwargs):
        bounds.append(tuple(bound))
        init(self, algebra, bound, *args, **kwargs)

    monkeypatch.setattr(Catalogue, "__init__", counting)
    return bounds


def test_window_builds_each_catalogue_once(monkeypatch, a2, loop, kxk):
    bounds = _catalogue_bounds(monkeypatch)
    # numdis reads no ample-bound certificate, so it never builds bound+1
    reports.suite_numdis(a2, (2, 2), "a2")
    assert bounds == [(2, 2)]
    for A, bound in ((loop, (2,)), (kxk, (1, 1))):
        bounds.clear()
        reports.suite_brickfinite(A, bound, "x")
        assert bounds == [bound, tuple(b + 1 for b in bound)]


def _count_calls(monkeypatch, name, original):
    """Record the arguments of every call of a function, through every
    torslab module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("torslab.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_numdis_computes_perp_once_per_class_and_separator_once_per_cone_pair(
    monkeypatch, a2, kronecker_p3
):
    perps = _count_calls(monkeypatch, "right_perp", torsion.right_perp)
    separators = _count_calls(monkeypatch, "separating_functional", cones.separating_functional)
    rep = reports.suite_numdis(a2, (2, 2), "a2")
    classes = sum(c["claim"].startswith("numdis-pair") for c in rep["checks"])
    # on a2 (2,2) each of the 5 classes has its own pair of class cones
    assert classes == 5
    assert len(separators) == classes
    # right_perp also closes semibricks and single items; of its masks, only
    # the census classes hold the zero item, and each must come exactly once
    cat = perps[0][0]
    zero = 1 << cat.zero_index()
    with_zero = [g for _, g in perps if isinstance(g, int) and g & zero]
    assert sorted(with_zero) == torsion.enumerate_torsion_classes(cat)
    # the separation workload's window: 133 classes over 8 pairs of class cones
    separators.clear()
    rep = reports.suite_numdis(kronecker_p3, (2, 2), "kronecker")
    cat = Catalogue(kronecker_p3, (2, 2))
    pairs = {
        (cones.cone_of_subcat(cat, t), cones.cone_of_subcat(cat, torsion.right_perp(cat, t)))
        for t in torsion.enumerate_torsion_classes(cat)
    }
    assert sum(c["claim"].startswith("numdis-pair") for c in rep["checks"]) == 133
    assert len(pairs) == len(separators) == 8


def test_separator_is_one_feasibility_and_one_lexicographic_program(monkeypatch):
    programs = _count_calls(monkeypatch, "solve_program", cones.solve_program)

    def C(*gens):
        return cones.RationalCone.from_vectors(2, gens)

    assert cones.separating_functional(C((1, 1), (0, 1)), C((1, 0))) == (-1, 3)
    assert len(programs) == 2
    programs.clear()
    assert cones.separating_functional(C((1, 0), (0, 1)), C((1, 1))) is None
    assert len(programs) == 1
    # the census workload's window: 9 pairs of class cones, 8 of them separable
    programs.clear()
    reports.suite_numdis(bundled("kronecker"), (2, 3), "kronecker")
    assert len(programs) == 51


def test_semistable_runs_the_per_item_pass_once_per_sign_vector(monkeypatch, a2):
    # the chambers workload's window and grid: 625 weights, whose signs on the
    # 8 nonzero vectors of the box (2,2) fall on 5 lines, so 21 sign vectors
    quads = _count_calls(monkeypatch, "quadruple", stability.quadruple)
    passes = []
    per_item_pass = stability._quadruple_of_signs.__wrapped__

    def counted(cat, signs):
        passes.append(signs)
        return per_item_pass(cat, signs)

    monkeypatch.setattr(stability, "_quadruple_of_signs", memo(counted))
    reports.suite_semistable(a2, (2, 2), grid=(-12, 12), depth=6, algebra_id="a2")
    assert len(quads) == 625
    assert len(passes) == len(set(passes)) == 21
    # positive multiples, scaled by ints or Fractions, share their weight's key
    cat = quads[0][0]
    for theta in ((3, -2), (0, 5), (Fraction(1, 2), Fraction(-7, 3))):
        got = {stability.quadruple(cat, tuple(k * t for t in theta)) for k in (1, 4, Fraction(2, 9))}
        assert len(got) == 1
    assert len(passes) == 21


def test_semistable_builds_maps_only_where_the_zero_map_misses(monkeypatch, a2):
    # the chambers workload again: the zero map's class is read from its
    # table before any map is built, and hits 491 of the 504 weights under
    # the cost cap; the other 13 build one space each and sweep 111 maps
    maps = _count_calls(monkeypatch, "map_from_coeffs", presentations.map_from_coeffs)
    spaces = _count_calls(monkeypatch, "presentation_space", presentations.presentation_space)
    faces = _count_calls(monkeypatch, "induced_torsion_pairs", silting.induced_torsion_pairs)
    computed = []
    witnesses = torsion.witnesses.__wrapped__

    def counted(cat, tmask):
        computed.append(tmask)
        return witnesses(cat, tmask)

    # the suite reads the witnesses through its own module's binding
    monkeypatch.setattr(reports, "witnesses", memo(counted))
    rep = reports.suite_semistable(a2, (2, 2), grid=(-12, 12), depth=6, algebra_id="a2")
    assert len(maps) == 111
    assert len(spaces) == 13
    # every nonzero weight is rigid on a face of the fan, and the torsion
    # pairs a face induces are taken once per face: 10 faces
    assert sum("coherent" in c["witness"] for c in rep["checks"][:-1]) == 624
    assert len(faces) == 10
    outcomes = Counter(
        (c["witness"]["tbar-map"]["searched"], c["witness"]["tbar-map"]["level"])
        for c in rep["checks"][:-1]
    )
    assert outcomes == {(True, 1): 504, (False, None): 121}
    # the witnesses of each class the grid cuts out are computed once
    cat = Catalogue(a2, (2, 2))
    classes = set()
    for theta in itertools.product(range(-12, 13), repeat=2):
        quad = stability.quadruple(cat, theta)
        classes |= {quad.T, quad.Tbar}
    assert len(computed) == len(set(computed))
    assert set(computed) == classes


@pytest.mark.parametrize(
    "name, p, bound",
    (
        ("kronecker", 3, (2, 2)),
        ("kronecker", None, (2, 3)),
        ("a2", None, (3, 3)),
        ("pi_a3", None, (1, 1, 1)),
    ),
)
def test_numdis_matches_per_class_legs_oracle(name, p, bound):
    # one solve per distinct pair of class cones gives the checks that
    # solving all four legs for every class gives
    A = bundled(name, p)
    assert reports.suite_numdis(A, bound, name)["checks"] == oracles.numdis_checks(A, bound)


def test_census_reads_lattices_of_indecomposables_only(monkeypatch, capsys):
    # the census workload, numdis on Kronecker p=2 at (2,3): the filtration
    # post-check and the separator re-check decide each direct sum by its
    # summands, so only indecomposable items build submodule lattices
    seen = {}
    for name in ("submodule_families", "subquot_pairs"):

        def counted(cat, idx, _name=name, _original=getattr(Catalogue, name)):
            seen.setdefault(_name, set()).add((cat, idx))
            return _original(cat, idx)

        monkeypatch.setattr(Catalogue, name, counted)
    argv = ["verify", "--suite", "numdis", "--algebra", "kronecker", "--bound", "2,3"]
    assert cli.main(argv) == 2
    capsys.readouterr()
    (cat,) = {cat for calls in seen.values() for cat, _ in calls}
    indec = {i for i in range(len(cat)) if cat.is_indec(i)}
    assert len(cat) == 61 and len(indec) == 12
    for name in ("submodule_families", "subquot_pairs"):
        assert {i for _, i in seen[name]} == indec, name


def test_traced_entry_points_exist():
    # every name the benchmark's tracer wraps must still resolve in torslab
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    for _, entry, _, _ in tracer.ENTRY_POINTS:
        module, *attrs = entry.split(".")
        obj = importlib.import_module("torslab." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
            assert obj is not None, entry
        assert callable(obj), entry


def _runtime_nodes():
    """(file stem, AST node) for every node of every module in src/torslab."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "torslab"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.stem, node


def _runtime_imports():
    """(file stem, module name) for every absolute import in src/torslab."""
    out = []
    for stem, node in _runtime_nodes():
        if isinstance(node, ast.Import):
            out.extend((stem, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((stem, node.module))
    return out


def test_runtime_has_no_assert():
    # python -O strips assert statements, so a runtime check must raise
    found = [(stem, node.lineno) for stem, node in _runtime_nodes() if isinstance(node, ast.Assert)]
    assert not found, found


def test_runtime_imports_only_stdlib():
    for stem, name in _runtime_imports():
        assert name.split(".")[0] in sys.stdlib_module_names, (stem, name)


def test_runtime_caches_only_through_memo():
    # algebra.memo is the one caching primitive: no functools cache beside it
    caches = {"cached_property", "lru_cache", "cache"}
    found = [
        (stem, node.lineno)
        for stem, node in _runtime_nodes()
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and any(alias.name in caches for alias in node.names)
        )
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in caches
        )
    ]
    assert not found, found


def test_only_catalogue_and_torsion_call_signature():
    # the summand decision lives in one module: every other caller decodes
    # a mask through torsion.summands
    callers = {
        stem
        for stem, node in _runtime_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "signature"
    }
    assert callers <= {"catalogue", "torsion"}, callers


def test_runtime_imports_no_random():
    # every sweep is exhaustive or refused; nothing is sampled at random
    for stem, name in _runtime_imports():
        assert name.split(".")[0] != "random", stem


def test_only_cone_presentation_and_report_code_imports_fractions():
    # signs and eliminations run on integers; Fraction is left for the
    # simplex's solutions, integrality checks of weights and report output
    importers = {stem for stem, name in _runtime_imports() if name == "fractions"}
    assert importers <= {"cones", "presentations", "reports"}, importers


# prints the modules a fresh interpreter adds by importing torslab.cli from
# the directory argv[1]
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import torslab.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_dataclasses_inspect_ast_or_typing():
    # every CLI process pays for its imports before any mathematics runs:
    # dataclasses alone pulls in inspect and ast.  The modules counted are
    # those the import adds, so a site that preloads typing does not fail.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(src)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "torslab.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "typing"}, sorted(added)


@pytest.mark.parametrize(
    "cls, fields, text",
    [
        (Arrow, {"name": "a", "source": 0, "target": 1}, "Arrow(name='a', source=0, target=1)"),
        (
            stability.Quadruple,
            {"T": 1, "Tbar": 3, "F": 4, "Fbar": 12},
            "Quadruple(T=1, Tbar=3, F=4, Fbar=12)",
        ),
        (
            cones.RationalCone,
            {"dim": 2, "generators": ((0, 1), (1, 0))},
            "RationalCone(dim=2, generators=((0, 1), (1, 0)))",
        ),
    ],
)
def test_value_classes_are_immutable_and_hash_by_their_fields(cls, fields, text):
    # memo tables key on cones: equal fields must give one key, and no
    # caller may change a key once it is stored
    a, b = cls(**fields), cls(**fields)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)


def test_scan_semibrick_sizes():
    text = bundled_text("kronecker")
    # the semibricks of p + 1 bricks are found for every prime
    cases = (
        ((2, 3), (-2, 2), {(1, -1): [3, 4], (2, -2): [3, 4]}),
        ((7, 11), (-1, 1), {(1, -1): [8, 12]}),
    )
    for fields, grid, expected in cases:
        rep = reports.suite_scan(text, grid=grid, fields=fields, bound=(1, 1))
        assert exit_code(rep) == 0
        growth = {
            tuple(c["witness"]["theta"]): c["witness"]["sizes"]
            for c in rep["checks"]
            if c["claim"].startswith("scan-growth")
        }
        assert growth == expected
        for c in rep["checks"]:
            if c["claim"].startswith("scan-evidence"):
                w = c["witness"]
                assert w["orthogonal"] and w["bricks"] and w["generates"]


def test_refield_swaps_only_the_field_line():
    text = bundled_text("kronecker")
    swapped = refield(text, 7)
    assert "field p=7" in swapped
    assert swapped.count("arrow") == text.count("arrow")
    assert load_algebra(swapped).p == 7


def test_render_json_byte_identical(kxk):
    a = render_json(reports.suite_smalo(kxk, (1, 1), "kxk"))
    b = render_json(reports.suite_smalo(kxk, (1, 1), "kxk"))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


@pytest.fixture
def rendered(monkeypatch):
    """Every report text rendered in the test, each checked on the way out
    against the json.dumps oracle."""
    texts = []

    def checked(obj):
        got = render_json(obj)
        assert got == oracles.render_json(obj)
        texts.append(got)
        return got

    monkeypatch.setattr(reports, "render_json", checked)
    return texts


def test_render_json_matches_oracle_on_the_bundle(rendered):
    from test_acceptance import BUNDLE_SHA256, _bundle

    _bundle()
    # every bundled report but the SVG picture
    assert len(rendered) == len(BUNDLE_SHA256) - 1


def test_render_json_matches_oracle_with_timings(kxk):
    rep = reports.suite_numdis(kxk, (1, 1), "kxk")
    timings = {"seconds": 0.123, "parts": [1.5e-07, 2.0, -0.0, 1e300]}
    got = render_json(dict(rep, timings=timings))
    assert got == oracles.render_json(rep, timings)
    assert "timings" not in rep


# the four benchmark commands at seed 0; KRONECKER_P3 is Kronecker over F_3
@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "--suite", "numdis", "--algebra", "kronecker", "--bound", "2,3"), 2),
        (("verify", "--suite", "numdis", "--algebra", "KRONECKER_P3", "--bound", "2,2"), 2),
        (("scan", "--algebra", "kronecker", "--bound", "1,1", "--fields", "2,3,5",
          "--grid", "-3:3", "--depth", "12"), 0),
        (("verify", "--suite", "semistable", "--algebra", "a2", "--bound", "2,2",
          "--grid", "-12:12", "--depth", "6"), 0),
    ],
    ids=["census", "separation", "walk", "chambers"],
)
def test_render_json_matches_oracle_on_benchmark_commands(
    rendered, capsys, tmp_path, argv, code
):
    p3 = tmp_path / "kronecker_p3.alg"
    p3.write_text(refield(bundled_text("kronecker"), 3))
    assert cli.main([str(p3) if a == "KRONECKER_P3" else a for a in argv]) == code
    assert capsys.readouterr().out == "".join(rendered) and len(rendered) == 1


# quotes, backslashes, control and non-ASCII characters, and JSON punctuation
_TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n\t[],:{} e\u00e9\u20ac\U0001f600'),
        st.characters(),
    )
)
_LEAVES = st.one_of(
    _TRICKY_TEXT,
    st.integers(),
    st.sampled_from([-1, 2**64, -(10**40), 10**100]),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.lists(st.integers()),
    st.lists(st.sampled_from([True, False, 0, 1, None])),
    st.just([]),
    st.just(()),
    st.just({}),
)
_REPORTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TRICKY_TEXT, inner, max_size=5),
    ),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_REPORTS)
def test_render_json_matches_oracle_on_random_trees(obj):
    assert render_json(obj) == oracles.render_json(obj)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_REPORTS)
def test_render_json_matches_oracle_on_a_shared_subtree(t):
    # one object at several positions and depths: each indentation gets its
    # own text, and a repeat at the same indentation the text rendered first
    obj = {"a": t, "b": [t, {"c": t}, t], "d": (t,), "e": [[t], [t]]}
    assert render_json(obj) == oracles.render_json(obj)


def _marked(t):
    """t with every dict and tuple in it a marked container."""
    if isinstance(t, dict):
        return reports._SharedDict({k: _marked(v) for k, v in t.items()})
    if isinstance(t, tuple):
        return reports._SharedTuple(map(_marked, t))
    if isinstance(t, list):
        return [_marked(v) for v in t]
    return t


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_REPORTS, st.sampled_from([1, 2, 7, reports.CHUNK_FRAGMENTS]))
def test_render_json_matches_oracle_on_marked_subtrees_and_small_chunks(t, chunk):
    # a marked subtree, nested ones included, at several positions and
    # depths, rendered in chunks of a few fragments
    m = _marked(t)
    obj = {"a": m, "b": [m, {"c": m}, m], "d": (m,), "e": [[m], [m]], "f": t}
    with mock.patch.object(reports, "CHUNK_FRAGMENTS", chunk):
        assert render_json(obj) == oracles.render_json(obj)


_MARKED = (reports._SharedDict, reports._SharedTuple)


def _unmarked_containers(obj):
    """Each dict, list and tuple of a report tree, once per place it stands,
    without descending into a marked container, whose text is kept whole."""
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, (dict, list, tuple)):
            yield x
            if type(x) not in _MARKED:
                stack.extend(x.values() if isinstance(x, dict) else x)


@pytest.fixture(scope="module")
def chambers(a2):
    """The report of the chambers benchmark command."""
    return reports.suite_semistable(a2, (2, 2), grid=(-12, 12), depth=6, algebra_id="a2")


def test_shared_payloads_are_marked(chambers, kronecker):
    # a container that stands at two places of the chambers report is one
    # the semistable suite's memo tables hand out, and so marked
    places = Counter(map(id, _unmarked_containers(chambers)))
    shared = [x for x in _unmarked_containers(chambers) if places[id(x)] > 1]
    assert shared and all(type(x) in _MARKED for x in shared)
    # numdis builds every payload afresh: nothing is marked or shared
    rep = reports.suite_numdis(kronecker, (2, 2), "kronecker")
    seen = list(_unmarked_containers(rep))
    assert len(seen) > 100 and len(set(map(id, seen))) == len(seen)
    assert not any(type(x) in _MARKED for x in seen)


def test_render_json_peak_stays_near_the_text(chambers):
    # rendering holds the chunks and the finished text, little besides
    tracemalloc.start()
    try:
        text = render_json(chambers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 700_000
    assert peak <= 2.25 * len(text)


def test_render_json_of_a_shared_report_matches_unshared_copies(a2):
    rep = reports.suite_semistable(a2, (2, 2), grid=(-4, 4), depth=6, algebra_id="a2")
    text = render_json(rep)
    assert text == render_json(copy.deepcopy(rep))
    # a tree that shares nothing, with lists where the report holds tuples
    assert text == render_json(json.loads(text)) == oracles.render_json(rep)


def test_render_json_table_lives_for_one_call(a2):
    rep = reports.suite_semistable(a2, (2, 2), grid=(-2, 2), depth=6, algebra_id="a2")
    first = render_json(rep)
    shared = rep["checks"][0]["witness"]["predicates"]
    holders = sum(c["witness"].get("predicates") is shared for c in rep["checks"])
    assert holders > 1
    shared["T-ff"] = "mutated"
    second = render_json(rep)
    assert second.count('"T-ff": "mutated"') == holders
    assert second == oracles.render_json(rep) != first


def test_semistable_report_shares_rays_and_tbar_maps(chambers):
    # the chambers workload: 625 weights, whose rays lie on the 11 faces of
    # the fan (origin included) and whose single-map searches end in 2
    # outcomes; each is one object, so render_json renders it once
    payloads = [c["witness"] for c in chambers["checks"][:-1]]
    assert len(payloads) == 625
    rays = [w["rays"] for w in payloads]
    tbar_maps = [w["tbar-map"] for w in payloads]
    assert len(set(map(id, rays))) == len(set(rays)) <= 12
    assert len(set(map(id, tbar_maps))) <= 3
    assert len(set(map(id, tbar_maps))) == len({tuple(sorted(m.items())) for m in tbar_maps})


@pytest.mark.parametrize(
    "obj",
    [{1: "a"}, {None: 0}, {"a": [{(1, 2): 0}]}, {"a": {1, 2}}, [frozenset()], set()],
    ids=["int-key", "none-key", "nested-tuple-key", "set-value", "frozenset", "set"],
)
def test_render_json_refuses_what_json_cannot_hold(obj):
    with pytest.raises(TypeError):
        render_json(obj)


def test_exit_code_ranking():
    def rep(p, f, w):
        return {"counts": {"pass": p, "fail": f, "window-limited": w}}

    assert exit_code(rep(3, 0, 0)) == 0
    assert exit_code(rep(3, 0, 2)) == 2
    assert exit_code(rep(3, 1, 2)) == 1


def test_fan_json_shape(kronecker):
    fan = reports.fan_json(kronecker, 6, "kronecker")
    assert fan["complete"] is False
    assert len(fan["cones"]) == 13
    for cone in fan["cones"]:
        assert len(cone["rays"]) <= 2


def test_wallchamber_deterministic(a2, loop):
    x = reports.wallchamber_svg(a2, (2, 2), window=(-3, 3), depth=6)
    y = reports.wallchamber_svg(a2, (2, 2), window=(-3, 3), depth=6)
    assert x == y
    assert x.startswith("<svg ")
    with pytest.raises(reports.ReportError):
        reports.wallchamber_svg(loop, (2,))


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "torslab.cli"] + list(argv),
        capture_output=True,
        text=True,
    )
    return proc


def test_cli_verify_smoke():
    proc = _cli("verify", "--suite", "smalo", "--algebra", "kxk", "--bound", "1,1")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["suite"] == "smalo"
    assert rep["algebra"] == "kxk"


def test_cli_negative_grid_and_out(tmp_path):
    out = tmp_path / "scan.json"
    proc = _cli(
        "scan", "--algebra", "kronecker", "--fields", "2,3",
        "--grid", "-1:1", "--bound", "1,1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert rep["suite"] == "scan"
    assert rep["fields"] == [2, 3]


def test_cli_optimized_run_keeps_report_bytes():
    # python -O strips assert statements; the invariants this run reaches
    # (quadruple, mutate, submodule_rep) are explicit raises instead
    argv = (
        "verify", "--suite", "semistable", "--algebra", "a2",
        "--bound", "2,2", "--grid", "-1:1", "--depth", "4",
    )
    plain = _cli(*argv)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "torslab.cli"] + list(argv),
        capture_output=True,
        text=True,
    )
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_cli_unknown_algebra_errors():
    proc = _cli("fan", "--algebra", "no-such-algebra")
    assert proc.returncode != 0
    assert "no such algebra" in proc.stderr


@pytest.mark.parametrize(
    "argv,message",
    [
        (("scan", "--algebra", "kronecker", "--fields", "2,4"), "field size 4"),
        (("verify", "--suite", "numdis", "--algebra", "kronecker", "--bound", "2"), "bound '2'"),
        (("fan", "--algebra", "BAD_FILE"), "bad algebra: line 3"),
        (("fan", "--algebra", "kronecker", "--depth", "-1"), "depth must be nonnegative"),
        (("verify", "--suite", "numdis", "--algebra", "a2", "--bound", "-1,2"), "negative entry"),
        (("scan", "--algebra", "kronecker", "--fields", "2,2"), "repeats a prime"),
        (("fan", "--algebra", "DIR"), "Is a directory"),
        (("fan", "--algebra", "LATIN1_FILE"), "can't decode byte 0xe9"),
        (("fan", "--algebra", "a2", "--depth", "1", "--out", "MISSING_DIR_OUT"), "cannot write report"),
        (("verify", "--suite", "bogus", "--algebra", "a2"), "invalid choice: 'bogus'"),
        (("wallchamber", "--algebra", "a2", "--timings"), "unrecognized arguments: --timings"),
        (("fan", "--algebra", "FREE_LOOP_FILE"), "path window exceeds 10000 paths"),
        (("fan", "--algebra", "TWO_FIELDS_FILE"), "bad algebra: line 2: second 'field' line"),
    ],
)
def test_cli_input_errors_exit_with_one_line(tmp_path, argv, message):
    paths = {
        "BAD_FILE": tmp_path / "bad.alg",
        "LATIN1_FILE": tmp_path / "latin1.alg",
        "DIR": tmp_path,
        "MISSING_DIR_OUT": tmp_path / "no-such-dir" / "fan.json",
        "FREE_LOOP_FILE": tmp_path / "free-loop.alg",
        "TWO_FIELDS_FILE": tmp_path / "two-fields.alg",
    }
    paths["TWO_FIELDS_FILE"].write_text("field p=2\nfield p=3\nvertices 1\n")
    paths["BAD_FILE"].write_text("field p=2\nvertices 1 2\narrow a: 1 -> 3\n")
    # a loop at v0 in no relation, beside a relation at v1: infinite
    paths["FREE_LOOP_FILE"].write_text(
        "field p=2\nvertices v0 v1 v2\narrow a0: v1 -> v1\narrow a1: v0 -> v0\nrelation a0.a0\n"
    )
    paths["LATIN1_FILE"].write_bytes("field p=2\n# caf\xe9\nvertices 1\n".encode("latin-1"))
    proc = _cli(*(str(paths.get(a, a)) for a in argv))
    # 1 as for a failed check: argparse's own usage code 2 means window-limited
    assert proc.returncode == 1 and not proc.stdout
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr.splitlines()[-1]


def test_cli_help_exits_zero():
    proc = _cli("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: torslab")


def test_cli_refuses_out_in_missing_directory_before_any_work(monkeypatch, tmp_path):
    def never(*args):
        raise AssertionError("suite ran before --out was checked")

    monkeypatch.setattr(reports, "suite_numdis", never)
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit, match="cannot write report"):
        cli.main(["verify", "--suite", "numdis", "--algebra", "kxk", "--out", str(out)])


def test_cli_timings_attached():
    proc = _cli(
        "verify", "--suite", "brickfinite", "--algebra", "loop",
        "--bound", "2", "--timings",
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert "timings" in rep and rep["timings"]["seconds"] >= 0
    bare = _cli(
        "verify", "--suite", "brickfinite", "--algebra", "loop", "--bound", "2"
    )
    assert "timings" not in json.loads(bare.stdout)
    fan = _cli("fan", "--algebra", "a2", "--depth", "2", "--timings")
    assert fan.returncode == 0, fan.stderr
    assert json.loads(fan.stdout)["timings"]["seconds"] >= 0
