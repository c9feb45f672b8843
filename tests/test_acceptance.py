"""Acceptance gate: one timed criterion per test, one PASS/FAIL line each."""

import hashlib
import itertools
import random
import time

from conftest import bundled, bundled_text
from oracles import simple_module
from torslab import reports
from torslab.algebra import hom_space, projective_module
from torslab.catalogue import Catalogue
from torslab.presentations import fei_union_check
from torslab.reports import exit_code
from torslab.silting import enumerate_silting, induced_torsion_pairs, mutate
from torslab.silting import direct_sum_complex, vertex_key
from torslab.stability import _integer_weight, _pairings, quadruple
from torslab.torsion import (
    enumerate_torsion_classes,
    fac_closure,
    filt_closure,
    left_perp,
    right_perp,
    sub_closure,
)

BOUNDS = {"a2": (2, 2), "kronecker": (2, 2), "loop": (2,), "kxk": (1, 1)}


def _criterion(num, slug, budget, body):
    t0 = time.monotonic()
    ok = False
    try:
        body()
        spent = time.monotonic() - t0
        assert spent < budget, "budget %ds exceeded: %.1fs" % (budget, spent)
        ok = True
    finally:
        print(
            "criterion %2d (%s): %s (%.1fs)"
            % (num, slug, "PASS" if ok else "FAIL", time.monotonic() - t0)
        )


def test_criterion_01_euler_duality():
    def body():
        for name in ("a2", "kronecker", "loop", "kxk"):
            for p in (2, 3):
                A = bundled(name, p)
                basis = [
                    tuple(1 if k == i else 0 for k in range(A.n)) for i in range(A.n)
                ]
                for i in range(A.n):
                    for j in range(A.n):
                        want = 0
                        if i == j:
                            sj = simple_module(A, j)
                            want = len(hom_space(sj, sj))
                        assert _pairings(_integer_weight(A, basis[i]), [basis[j]]) == [want]
                cat = Catalogue(A, BOUNDS[name])
                projs = [projective_module(A, i) for i in range(A.n)]
                hom = [
                    [len(hom_space(projs[i], cat.rep(m))) for i in range(A.n)]
                    for m in range(len(cat))
                ]
                nonzero = [m for m in range(len(cat)) if any(cat.dims_of(m))]
                for theta in itertools.product(range(-3, 4), repeat=A.n):
                    w = _integer_weight(A, theta)
                    for m in nonzero:
                        plus = sum(t * h for t, h in zip(theta, hom[m]) if t > 0)
                        minus = sum(-t * h for t, h in zip(theta, hom[m]) if t < 0)
                        assert _pairings(w, [cat.dims_of(m)]) == [plus - minus]

    _criterion(1, "euler-duality", 10, body)


def test_criterion_02_torsion_lattices():
    def body():
        for name, want in (("a2", 5), ("kxk", 4), ("loop", 2)):
            rep = reports.suite_smalo(bundled(name), BOUNDS[name], name)
            assert rep["checks"][0]["witness"]["classes"] == want
            assert exit_code(rep) == 0

    _criterion(2, "torsion-lattices", 30, body)


def test_criterion_03_silting_bijection():
    def body():
        for name, want in (("a2", 5), ("loop", 2)):
            A = bundled(name)
            graph = enumerate_silting(A, 6)
            assert graph["complete"]
            assert len(graph["vertices"]) == want
            cat = Catalogue(A, BOUNDS[name])
            classes = set(enumerate_torsion_classes(cat))
            induced = set()
            for vert in graph["vertices"]:
                whole = direct_sum_complex(vert["summands"], A)
                big, small = induced_torsion_pairs(cat, whole)
                assert big == small
                induced.add(small)
            assert induced == classes

    _criterion(3, "silting-bijection", 30, body)


def test_criterion_04_semistable_rigidity():
    def body():
        rep = reports.suite_semistable(
            bundled("a2"), (2, 2), grid=(-4, 4), depth=6, algebra_id="a2"
        )
        assert exit_code(rep) == 0
        summary = rep["checks"][-1]["witness"]
        assert summary["full-pass"] == summary["points"] == 81

        rep = reports.suite_semistable(
            bundled("kronecker"), (3, 3), grid=(-2, 2), depth=10,
            algebra_id="kronecker",
        )
        assert rep["counts"]["fail"] == 0
        for c in rep["checks"][:-1]:
            w = c["witness"]
            if w["verdict"] == "rigid":
                assert c["status"] == "pass"
                assert all(w["predicates"].values())
        ray = [c for c in rep["checks"] if c["claim"] == "semistable[1,-1]"][0]
        w = ray["witness"]
        assert w["verdict"] == "unknown"
        assert w["depth"] == 10
        assert w["strict-inclusion"] is True
        assert w["Tbar-witnesses"]["fac"] is None

    _criterion(4, "semistable-rigidity", 180, body)


def test_criterion_05_four_way_separation():
    def body():
        for name in ("a2", "kxk", "loop", "kronecker"):
            rep = reports.suite_numdis(bundled(name), BOUNDS[name], name)
            pairs = [c for c in rep["checks"] if c["claim"].startswith("numdis-pair")]
            assert pairs and all(c["status"] == "pass" for c in pairs)
            for c in pairs:
                w = c["witness"]
                legs = w["legs"]
                assert all(legs) or not any(legs)
                if w["separator"] is not None:
                    assert w["separator-verified"] is True
            if name == "kronecker":
                assert len(pairs) == 21

    _criterion(5, "four-way-separation", 60, body)


def test_criterion_06_hereditary_consequence():
    def body():
        for name, bound in (("a2", (2, 2)), ("kronecker", (3, 3))):
            rep = reports.suite_numdis(bundled(name), bound, name)
            hered = [c for c in rep["checks"] if c["claim"].startswith("hereditary")]
            assert hered
            assert all(c["status"] == "pass" for c in hered)

    _criterion(6, "hereditary-consequence", 60, body)


def test_criterion_07_single_map_union():
    def body():
        cat = Catalogue(bundled("a2"), (2, 2))
        for theta in ((1, -1), (2, -1), (-1, 2)):
            r = fei_union_check(cat, theta, 2)
            assert r["equality"], theta
        cat = Catalogue(bundled("kronecker"), (2, 2))
        r = fei_union_check(cat, (1, -1), 3)
        # containment is asserted inside the sweep; equality is recorded data
        assert isinstance(r["equality"], bool)
        if r["equality"]:
            assert r["uncovered"] == ()
        else:
            assert r["uncovered"]

    _criterion(7, "single-map-union", 120, body)


def test_criterion_08_semibrick_growth():
    def body():
        rep = reports.suite_scan(
            bundled_text("kronecker"), grid=(-1, 1), fields=(2, 3, 5), bound=(1, 1)
        )
        assert exit_code(rep) == 0
        growth = [c for c in rep["checks"] if c["claim"].startswith("scan-growth")]
        assert len(growth) == 1
        w = growth[0]["witness"]
        assert w["theta"] == [1, -1]
        assert w["sizes"] == [3, 4, 6]
        for c in rep["checks"]:
            if c["claim"].startswith("scan-evidence"):
                ww = c["witness"]
                assert ww["orthogonal"] and ww["bricks"] and ww["generates"]
                assert ww["size"] in (3, 4, 6)

    _criterion(8, "semibrick-growth", 120, body)


def _random_theta(rng, n, lo=-4, hi=4):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_criterion_09_property_suites():
    def body():
        rng = random.Random(20260819)
        for name in ("a2", "kronecker", "loop", "kxk"):
            A = bundled(name)
            cat = Catalogue(A, BOUNDS[name])
            full = (1 << len(cat)) - 1
            closures = (fac_closure, sub_closure)
            for _ in range(25):
                m = rng.randrange(full + 1)
                sub = m & rng.randrange(full + 1)
                for clo in closures:
                    cm = clo(cat, m)
                    assert clo(cat, cm) == cm
                    assert clo(cat, sub) & ~cm == 0
                (fm,) = filt_closure(cat, [m])
                got, below = filt_closure(cat, [fm, sub])
                assert got == fm
                assert below & ~fm == 0
                # Galois reflexivity: three perps collapse to one
                assert right_perp(cat, left_perp(cat, right_perp(cat, m))) == right_perp(cat, m)
            for tmask in enumerate_torsion_classes(cat):
                assert left_perp(cat, right_perp(cat, tmask)) == tmask
            for _ in range(200):
                theta = _random_theta(rng, A.n)
                eta = tuple(t - rng.randint(0, 3) for t in theta)
                q_eta, q_theta = quadruple(cat, eta), quadruple(cat, theta)
                assert q_eta.T & ~q_eta.Tbar == 0
                assert q_theta.T & ~q_theta.Tbar == 0
                if all(e < t for e, t in zip(eta, theta)) or eta == theta:
                    assert q_eta.T & ~q_theta.T == 0
                    assert q_eta.Tbar & ~q_theta.Tbar == 0
                    assert q_theta.F & ~q_eta.F == 0
                    assert q_theta.Fbar & ~q_eta.Fbar == 0
            for _ in range(40):
                theta = _random_theta(rng, A.n)
                base = quadruple(cat, theta)
                for k in (2, 3):
                    assert quadruple(cat, tuple(k * t for t in theta)) == base
            depth = 4 if name == "kronecker" else 6
            graph = enumerate_silting(A, depth)
            for vert in graph["vertices"]:
                if vert["depth"] >= depth:
                    continue
                summands = vert["summands"]
                for k in range(len(summands)):
                    new = mutate(summands, k)
                    old_gvs = {c.g_vector() for c in summands}
                    js = [j for j, c in enumerate(new) if c.g_vector() not in old_gvs]
                    assert len(js) == 1
                    assert vertex_key(mutate(new, js[0])) == vert["key"]

    _criterion(9, "property-suites", 120, body)


def _bundle():
    out = {}
    for name in ("a2", "kxk", "loop"):
        A = bundled(name)
        out["smalo-" + name] = reports.render_json(
            reports.suite_smalo(A, BOUNDS[name], name)
        )
        out["numdis-" + name] = reports.render_json(
            reports.suite_numdis(A, BOUNDS[name], name)
        )
    out["semistable-a2"] = reports.render_json(
        reports.suite_semistable(bundled("a2"), (2, 2), (-4, 4), 6, "a2")
    )
    out["brickfinite-loop"] = reports.render_json(
        reports.suite_brickfinite(bundled("loop"), (2,), "loop")
    )
    out["brickfinite-kxk"] = reports.render_json(
        reports.suite_brickfinite(bundled("kxk"), (1, 1), "kxk")
    )
    out["scan"] = reports.render_json(
        reports.suite_scan(
            bundled_text("kronecker"), grid=(-2, 2), fields=(2, 3), bound=(1, 1)
        )
    )
    out["fan"] = reports.render_json(reports.fan_json(bundled("kronecker"), 6))
    out["wallchamber"] = reports.wallchamber_svg(bundled("a2"), (2, 2), (-3, 3), 6)
    return out


# SHA-256 of every _bundle() output: reports are part of the interface, so a
# change that alters any byte of them fails here, not only nondeterminism.
BUNDLE_SHA256 = {
    "brickfinite-kxk": "320a498a4e2782f967c05014864d8a2418310c12a5b04f300f8a74756570379d",
    "brickfinite-loop": "f14fa442ae42d2703594a1589d6b50e91c595ea041aaddfd8fdc0b06b7dfab8c",
    "fan": "f5801291b6cdb7a55cc91d169e526bb7ced32540d3f5fa9895fd4ea4b09e4675",
    "numdis-a2": "2a13efb16db184238d0aadd8d6639cc4819ec4fb25704381947d642233ad0177",
    "numdis-kxk": "85423c3d157b0b62e50a52c6fa9b223aea4b3a64c5e989bc5a56bee450a75bc8",
    "numdis-loop": "f84419545fcbe7b98263a9a2618d872f4a30b0f46e01afff06c7f25c332da000",
    "scan": "fa500e56170f43da1b51570cf9ba2bbc6e844ae400287fabe9e65a2abebf7af3",
    "semistable-a2": "5a4e13155ebd538bd4fc6f4603950e5eb4dad5c11c359a07ac2cf88d4f8f23d7",
    "smalo-a2": "4cb0f6519ec20ce2a1bcc22f9b77c8f0dce78890c62ff91fc72be16613d386bf",
    "smalo-kxk": "2af875a314f4ebc00eb9e1d15dfae9cdbe020c2f48358f38c3afddb28c5935b7",
    "smalo-loop": "88b3fc5b2cca117c72972fb6c70a87eed6068b1ae31a270a34a6a4baa2b0b774",
    "wallchamber": "f87065515ef1d484ea33509b961c5a421b4676b5cec7a01a25264a8a2664e1a2",
}


def test_criterion_10_determinism():
    def body():
        first = _bundle()
        second = _bundle()
        assert sorted(first) == sorted(second) == sorted(BUNDLE_SHA256)
        for key in first:
            assert first[key] == second[key], key
            digest = hashlib.sha256(first[key].encode("utf-8")).hexdigest()
            assert digest == BUNDLE_SHA256[key], key

    _criterion(10, "determinism", 600, body)
