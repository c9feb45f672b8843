"""Verification suites over finite module windows, with deterministic reports.

Each suite inspects one algebra through a bounded catalogue and emits a
report dict: algebra id, field, bound, suite name, and a list of checks.
A check is (claim, status, witness).  Statuses are "pass", "fail", and
"window-limited"; the last marks claims whose witnesses escape the window,
and it is never upgraded to a pass.  Exit codes follow the statuses:
0 all pass, 1 any fail, 2 window-limited results but no failure.

Witness payloads use dimension vectors rather than catalogue indices, so
reports stay meaningful without the window at hand.  All iteration runs
in sorted order and every emitted container is rebuilt deterministically;
two runs on equal inputs produce byte-identical JSON.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .algebra import load_algebra, memo
from .catalogue import Catalogue
from .cones import (
    cone_of_subcat,
    difference_cone,
    intersect_trivially,
    is_strongly_convex,
    numerically_disjoint,
    separating_functional,
)
from .presentations import (
    _zero_map_class,
    map_from_coeffs,
    presentation_dim,
    presentation_space,
)
from .presentations import tbar_of_map as _tbar_of_map
from .silting import (
    direct_sum_complex,
    enumerate_silting,
    induced_torsion_pairs,
    rigidity,
    silting_cone,
)
from .stability import classes_in, quadruple
from .torsion import (
    ample,
    bricks_above,
    certificate,
    enumerate_torsion_classes,
    mask_of,
    right_perp,
    semibrick_perp,
    t_of,
    witnesses,
)

# cost cap for the single-map realization sweep inside the semistable suite
TBAR_SWEEP_COST = 8192
TBAR_LEVEL_MAX = 2


class ReportError(Exception):
    pass


def _check(claim, status, witness=None):
    return {"claim": claim, "status": status, "witness": witness}


def _report(algebra_id, algebra, bound, suite, checks):
    counts = {"pass": 0, "fail": 0, "window-limited": 0}
    for c in checks:
        counts[c["status"]] += 1
    return {
        "algebra": algebra_id,
        "field": algebra.p,
        "bound": list(bound),
        "suite": suite,
        "checks": checks,
        "counts": counts,
    }


def exit_code(report):
    counts = report["counts"]
    if counts["fail"]:
        return 1
    if counts["window-limited"]:
        return 2
    return 0


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError("not JSON serializable: %r" % (obj,))


# the fragment count at which _render joins its fragments into one chunk
CHUNK_FRAGMENTS = 4096


class _SharedDict(dict):
    """A payload dict that a suite's memo table hands to many checks.  It
    renders as a dict; render_json renders it once (see _shared_text)."""

    __slots__ = ()


class _SharedTuple(tuple):
    """A payload tuple that a suite's memo table hands to many checks.  It
    renders as a list; render_json renders it once (see _shared_text)."""

    __slots__ = ()


def _render(obj, out, nl, texts, chunks):
    """Append the indent=2, sorted-key JSON of obj to out.

    nl is a newline plus the indentation of obj's own line.  Strings, ints,
    bools and None are written here and any other scalar goes through
    json.dumps alone, so the fragments joined are the bytes of
    json.dumps(sort_keys=True, indent=2).

    Once out holds more than CHUNK_FRAGMENTS fragments at the end of a
    container, they are joined into one string, appended to chunks, and out
    is cleared: the text is chunks and then out, joined.  A marked
    container's text comes from _shared_text; every other container is
    rendered where it stands.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        if type(obj) is _SharedDict:
            out.append(_shared_text(obj, nl, texts))
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            # the encoder raises TypeError on a key that is not a str
            out.append(sep + _encode_str(key) + ": ")
            sep = "," + inner
            _render(value, out, inner, texts, chunks)
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        # exact ints only: a bool is an int but renders as true or false
        if set(map(type, obj)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        if type(obj) is _SharedTuple:
            out.append(_shared_text(obj, nl, texts))
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            sep = "," + inner
            _render(value, out, inner, texts, chunks)
        out.append(nl + "]")
    else:
        if isinstance(obj, str):
            out.append(_encode_str(obj))
        elif obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, int):
            out.append(int.__repr__(obj))
        else:
            out.append(json.dumps(obj, default=_json_default))
        return
    if len(out) > CHUNK_FRAGMENTS:
        chunks.append("".join(out))
        out.clear()


def _shared_text(obj, nl, texts):
    """The text of a marked container at the indentation nl.

    texts is the table of one render_json call, keyed by the container's id
    and nl: the text is rendered, as the plain dict or tuple, and joined the
    first time, and read from the table at every repeat.  Keying by id is
    safe within one call: the caller holds every object of the tree until
    the call returns, so no id is reused, and nothing mutates the tree
    meanwhile."""
    at = (id(obj), nl)
    text = texts.get(at)
    if text is None:
        chunks, out = [], []
        _render((dict if isinstance(obj, dict) else tuple)(obj), out, nl, texts, chunks)
        chunks += out
        text = texts[at] = "".join(chunks)
    return text


def render_json(obj):
    """Report text: the bytes of json.dumps(sort_keys=True, indent=2) plus a
    newline, with Fractions as strings.  Keys must be str; a value JSON
    cannot hold raises TypeError.

    The text is built in chunks of about CHUNK_FRAGMENTS fragments and
    joined once at the end, so rendering holds the chunks and the finished
    text and little besides.  A marked container (_SharedDict or
    _SharedTuple), such as the payloads one class pair gives many weights of
    the semistable suite, is rendered once per call and per indentation and
    its text appended at every further place it stands (see _shared_text).
    That table lives for this call only, so a tree mutated between two
    calls renders afresh."""
    chunks, out = [], []
    _render(obj, out, "\n", {}, chunks)
    chunks += out
    chunks.append("\n")
    return "".join(chunks)


def refield(text, p):
    """Algebra file text with its field line replaced."""
    lines = []
    for line in text.splitlines():
        if line.strip().startswith("field"):
            line = "field p=%d" % p
        lines.append(line)
    return "\n".join(lines) + "\n"


def _dims(cat, idx):
    if idx is None:
        return None
    return list(cat.dims_of(idx))


def _grid_points(grid, n):
    lo, hi = grid
    if lo > hi:
        raise ReportError("empty grid %r" % (grid,))
    return list(itertools.product(range(lo, hi + 1), repeat=n))


def _witness_dims(cat, wit):
    return {
        "fac": _dims(cat, wit["fac"]),
        "sub": _dims(cat, wit["sub"]),
        "compact": _dims(cat, wit["compact"]),
        "cocompact": _dims(cat, wit["cocompact"]),
    }


# -- the Smalo equivalence suite ----------------------------------------------------


def suite_smalo(algebra, bound, algebra_id="algebra"):
    """Single-witness equivalence on every enumerated torsion class.

    For each class the suite hunts four witnesses: a module whose factor
    closure is the class, a module whose submodule closure is the paired
    torsion-free class, and the compact and cocompact generators.  When
    the first two stand the class must also be bicompact; when either is
    missing the check is window-limited, because a stable census does not
    bound the size of a witness.  Requires an ample bound: the class census
    has to be stable under raising every coordinate of the bound by one.
    """
    cat = Catalogue(algebra, bound)
    if not ample(cat):
        raise ReportError(
            "no ample-bound certificate for %s at %r" % (algebra_id, bound)
        )
    classes = enumerate_torsion_classes(cat)
    checks = [
        _check(
            "torsion-window-stable",
            "pass",
            {"classes": len(classes), "classes-at-next-bound": certificate(cat)["count_big"]},
        )
    ]
    for k, tmask in enumerate(classes):
        wit = witnesses(cat, tmask)
        payload = _witness_dims(cat, wit)
        payload["size"] = tmask.bit_count()
        if wit["ff"]:
            # the conclusion: a functorially finite class is bicompact
            status = "pass" if wit["bicompact"] else "fail"
        else:
            status = "window-limited"
        checks.append(_check("smalo-class[%d]" % k, status, payload))
    return _report(algebra_id, algebra, bound, "smalo", checks)


# -- the semistable suite -----------------------------------------------------------


def _tbar_map_search(cat, theta, target):
    """Level of a single presentation map whose perp class hits the target.

    Sweeps every map at levels 1..TBAR_LEVEL_MAX while the sweep stays
    under the cost cap.  Returns a dict with the searched flag and the
    first realizing level, if any.

    The zero map comes first at every level, and its class depends only on
    the vertex set of P1, which is the same at every level: it is read once,
    from the table tbar_of_map reads for a zero map, and no map is built
    when it hits.  Each level's cap is taken from path counts
    (presentation_dim times level^2), so a space is built only for a level
    the zero map misses, and its sweep starts after the all-zero vector.
    """
    A = cat.algebra
    p = A.p
    zero_class = _zero_map_class(cat, tuple(i for i, t in enumerate(theta) if t < 0))
    dim = presentation_dim(A, theta)
    for level in range(1, TBAR_LEVEL_MAX + 1):
        if p ** (dim * level**2) * len(cat) > TBAR_SWEEP_COST:
            return _tbar_map(cat, False, None)
        if zero_class == target:
            return _tbar_map(cat, True, level)
        space = presentation_space(A, tuple(level * t for t in theta))
        maps = itertools.product(range(p), repeat=space["dim"])
        for coeffs in itertools.islice(maps, 1, None):
            U = map_from_coeffs(A, space, coeffs)
            if _tbar_of_map(cat, U) == target:
                return _tbar_map(cat, True, level)
    return _tbar_map(cat, True, None)


@memo
def _tbar_map(cat, searched, level):
    """The tbar-map payload of a single-map search, one marked dict per
    outcome in a window, so that the semistable report shares it between
    weights."""
    return _SharedDict(searched=searched, level=level)


@memo
def _rays(cat, face):
    """The face itself as a marked tuple, one per face of the fan in a
    window, so that the semistable report shares each weight's rays (a
    tuple renders as a list)."""
    return _SharedTuple(face)


@memo
def _class_pair_payload(cat, tmask, tbar):
    """The six predicates of a weight cutting out T and Tbar, the witness
    dimension vectors of both classes and whether all six predicates hold,
    once per class pair of the window: many grid weights of the semistable
    suite cut out the same pair.  The three dicts are marked."""
    wt = witnesses(cat, tmask)
    wb = witnesses(cat, tbar)
    predicates = _SharedDict({
        "T-bicompact": wt["bicompact"],
        "T-compact": wt["compact"] is not None,
        "T-ff": wt["ff"],
        "Tbar-bicompact": wb["bicompact"],
        "Tbar-cocompact": wb["cocompact"] is not None,
        "Tbar-ff": wb["ff"],
    })
    witnessed = all(predicates.values())
    t_dims = _SharedDict(_witness_dims(cat, wt))
    tbar_dims = _SharedDict(_witness_dims(cat, wb))
    return predicates, t_dims, tbar_dims, witnessed


@memo
def _exchange_graph(cat, depth):
    """The exchange graph of the window's algebra, walked to depth."""
    return enumerate_silting(cat.algebra, depth)


@memo
def _face_pairs(cat, depth, vertex, face):
    """The torsion pairs induced by the direct sum of the summands of the
    vertex whose g-vectors lie on the face, once per vertex and face: many
    grid weights of the semistable suite share a face.  The table is keyed
    by the vertex key and the face, tuples of int g-vectors, which hash
    without calling back into Python."""
    graph = _exchange_graph(cat, depth)
    summands = next(v["summands"] for v in graph["vertices"] if v["key"] == vertex)
    on_face = [c for c in summands if c.g_vector() in face]
    return induced_torsion_pairs(cat, direct_sum_complex(on_face, cat.algebra))


def suite_semistable(algebra, bound, grid=(-4, 4), depth=6, algebra_id="algebra"):
    """Rigidity against the six torsion-class predicates, on a lattice grid.

    For every grid weight the suite locates the weight in the enumerated
    g-vector fan and evaluates, with window witnesses, the predicates:
    strict class bicompact, compact, functorially finite, and weak class
    bicompact, cocompact, functorially finite.  A rigid weight must carry
    all six witnesses; a missing witness demotes the check to
    window-limited, even at an ample bound, because a stable census does
    not bound the size of a witness.  Rigid weights are also cross-checked:
    the cohomology of the witnessing face induces exactly the two classes
    the weight cuts out, and where the sweep is affordable the weak class
    is realized as the perp class of one presentation map.

    Payload values that repeat across weights (the predicates and witness
    payloads of a class pair, the rays of a face, the outcome of a
    single-map search) are one marked object each, so render_json renders
    each once; editing one edits every check that holds it.
    """
    cat = Catalogue(algebra, bound)
    graph = _exchange_graph(cat, depth)
    checks = []
    for theta in _grid_points(grid, algebra.n):
        verdict = rigidity(theta, graph)
        quad = quadruple(cat, theta)
        predicates, t_dims, tbar_dims, all_witnessed = _class_pair_payload(cat, quad.T, quad.Tbar)
        face = verdict["rays"]
        payload = {
            "theta": list(theta),
            "verdict": verdict["verdict"],
            "depth": verdict["depth"],
            "rays": None if face is None else _rays(cat, face),
            "predicates": predicates,
            "T-witnesses": t_dims,
            "Tbar-witnesses": tbar_dims,
            "strict-inclusion": quad.T != quad.Tbar,
        }
        status = "pass"
        if verdict["verdict"] == "rigid":
            if face:
                got = _face_pairs(cat, depth, verdict["vertex"], face)
                payload["coherent"] = got == (quad.Tbar, quad.T)
                if not payload["coherent"]:
                    status = "fail"
            payload["tbar-map"] = _tbar_map_search(cat, theta, quad.Tbar)
            if not all_witnessed and status == "pass":
                status = "window-limited"
        elif verdict["verdict"] == "not_rigid":
            # everything equivalent to rigidity must break somewhere
            if all_witnessed:
                status = "fail" if ample(cat) else "window-limited"
        else:
            status = "window-limited"
        checks.append(
            _check("semistable[%s]" % ",".join(map(str, theta)), status, payload)
        )
    statuses = Counter(c["status"] for c in checks)
    checks.append(
        _check(
            "semistable-grid-summary",
            "pass",
            {
                "grid": list(grid),
                "points": len(checks),
                "full-pass": statuses["pass"],
                "window-limited": statuses["window-limited"],
                "graph-complete": graph["complete"],
                "ample": ample(cat),
            },
        )
    )
    return _report(algebra_id, algebra, bound, "semistable", checks)


# -- the numerical disjointness suite -----------------------------------------------


@memo
def _separation(cat, ct, cf):
    """The four separation legs of a pair of class cones: numerical
    disjointness with its certificate, the legs, and the separating weight
    or None, once per pair of a window: many classes share their cones."""
    disjoint, cert = numerically_disjoint(ct, cf)
    trivial, _ = intersect_trivially(ct, cf)
    convex = is_strongly_convex(difference_cone(ct, cf))
    # a disjoint pair's certificate is the simplex separator of these cones
    separator = cert[1] if disjoint else separating_functional(ct, cf)
    legs = (disjoint, trivial, convex, separator is not None)
    return disjoint, cert, legs, separator


def suite_numdis(algebra, bound, algebra_id="algebra"):
    """Four-way separation equivalence on every enumerated torsion pair.

    Numerical disjointness decided by facet enumeration, trivial cone
    intersection decided by the simplex path, strong convexity of the
    difference cone, and existence of a separating weight must all agree;
    each separator is re-verified against the classes it claims to split.
    A pair that is bicompact and disjoint in the window must then carry a
    functorial-finiteness witness, and on a relation-free algebra every
    bicompact class must already have a factor-closure witness; a missing
    witness is window-limited, since it may be bigger than the window.
    """
    cat = Catalogue(algebra, bound)
    hereditary = algebra.relations == ()
    checks = []
    for k, tmask in enumerate(enumerate_torsion_classes(cat)):
        wit = witnesses(cat, tmask)
        fmask = wit["perp"]
        ct = cone_of_subcat(cat, tmask)
        cf = cone_of_subcat(cat, fmask)
        disjoint, cert, legs, separator = _separation(cat, ct, cf)
        agree = all(legs) or not any(legs)
        verified = None
        if separator is not None:
            verified = classes_in(cat, separator, tmask, fmask)
        payload = {
            "size": tmask.bit_count(),
            "disjoint": disjoint,
            "legs": list(legs),
            "separator": list(separator) if separator is not None else None,
            "separator-verified": verified,
        }
        if not disjoint:
            payload["common-class"] = list(cert[1])
        bad = not agree or verified is False
        checks.append(_check("numdis-pair[%d]" % k, "fail" if bad else "pass", payload))
        if disjoint and wit["bicompact"]:
            checks.append(
                _check(
                    "numdis-bicompact-ff[%d]" % k,
                    "pass" if wit["ff"] else "window-limited",
                    _witness_dims(cat, wit),
                )
            )
        if hereditary and wit["bicompact"]:
            checks.append(
                _check(
                    "hereditary-bicompact-fac[%d]" % k,
                    "pass" if wit["fac"] is not None else "window-limited",
                    {"fac": _dims(cat, wit["fac"])},
                )
            )
    return _report(algebra_id, algebra, bound, "numdis", checks)


# -- the brick finiteness suite -----------------------------------------------------


def _semibrick_spans(cat, target):
    """The first semibrick, smallest sets first, that generates the torsion
    class target, or None.

    t_of(S) is the double perp of S, so it equals target exactly when S and
    target have the same right perp, semibrick_perp(S); no closure is taken
    per semibrick."""
    want = right_perp(cat, target)
    return next((sb for sb in cat.semibricks() if semibrick_perp(cat, sb) == want), None)


def suite_brickfinite(algebra, bound, algebra_id="algebra"):
    """Census evidence for brick finiteness and the per-class predicate chain.

    Counts bricks at the bound and one step above it, counts torsion
    classes, and evaluates four predicates per class: functorially finite,
    bicompact, compact, widely generated.  The chain ff implies bicompact
    implies compact is asserted per class; compact implies widely generated
    holds by construction, since every census class is generated by a
    semibrick.  The all-classes equivalences are asserted only when the
    census is stable; a growing census flags brick-infinite evidence instead
    and leaves the universally quantified claims unasserted.  A class
    missing a witness leaves them window-limited even then, since a stable
    census does not bound the size of a witness.
    """
    cat = Catalogue(algebra, bound)
    classes = enumerate_torsion_classes(cat)
    nbricks = len(cat.bricks())
    cert = certificate(cat)
    nbricks_big = bricks_above(cat)
    stable = nbricks_big == nbricks and ample(cat)
    checks = [
        _check(
            "brick-census",
            "pass" if nbricks_big == nbricks else "window-limited",
            {"bricks": nbricks, "bricks-at-next-bound": nbricks_big},
        ),
        _check(
            "tors-census",
            "pass" if ample(cat) else "window-limited",
            {
                "classes": len(classes),
                "classes-at-next-bound": cert["count_big"] if cert else None,
            },
        ),
    ]
    per_class = []
    chain_bad = []
    for k, tmask in enumerate(classes):
        wit = witnesses(cat, tmask)
        flags = {
            "ff": wit["ff"],
            "bicompact": wit["bicompact"],
            "compact": wit["compact"] is not None,
            # every census class is the t_of of a semibrick, by construction
            "widely-generated": True,
        }
        per_class.append(flags)
        if (flags["ff"] and not flags["bicompact"]) or (
            flags["bicompact"] and not flags["compact"]
        ):
            chain_bad.append(k)
    checks.append(
        _check(
            "predicate-chain",
            "fail" if chain_bad else "pass",
            {"violations": chain_bad},
        )
    )
    totals = {
        key: sum(1 for f in per_class if f[key])
        for key in ("ff", "bicompact", "compact", "widely-generated")
    }
    totals["classes"] = len(classes)
    if not stable:
        totals["asserted"] = False
    universal = stable and all(all(f.values()) for f in per_class)
    checks.append(
        _check(
            "brickfinite-equivalences",
            "pass" if universal else "window-limited",
            totals,
        )
    )
    return _report(algebra_id, algebra, bound, "brickfinite", checks)


# -- the conjecture evidence scan ---------------------------------------------------


def suite_scan(algebra_text, grid=(-4, 4), fields=(2, 3, 5), depth=6, bound=None,
               algebra_id="algebra"):
    """Semibrick growth at non-rigid lattice weights, across base fields.

    Reparses the algebra over each requested prime, walks the grid, and
    keeps the weights whose rigidity verdict is not rigid.  For each such
    weight and field (each prime once) the suite extracts the smallest
    semibrick generating the weak semistable class in the window,
    re-verifies hom orthogonality, brickness from submodule lattices and
    generation, and tabulates the semibrick sizes.  Growing sizes across
    fields are the desk-scale shadow of an infinite semibrick.
    """
    if len(set(fields)) != len(fields):
        raise ReportError("field list %r repeats a prime" % (tuple(fields),))
    algebras = {}
    for p in sorted(fields):
        algebras[p] = load_algebra(refield(algebra_text, p))
    n = algebras[sorted(fields)[0]].n
    if bound is None:
        bound = (1,) * n
    checks = []
    sizes = {}
    for p in sorted(fields):
        A = algebras[p]
        graph = enumerate_silting(A, depth)
        cat = Catalogue(A, bound)
        for theta in _grid_points(grid, n):
            verdict = rigidity(theta, graph)
            if verdict["verdict"] == "rigid":
                continue
            quad = quadruple(cat, theta)
            sb = _semibrick_spans(cat, quad.Tbar)
            claim = "scan-evidence[p=%d][%s]" % (p, ",".join(map(str, theta)))
            if sb is None:
                checks.append(
                    _check(
                        claim,
                        "window-limited",
                        {"theta": list(theta), "verdict": verdict["verdict"]},
                    )
                )
                continue
            orthogonal = all(
                cat.hom_dim(i, j) == 0 for i in sb for j in sb if i != j
            )
            bricks = all(cat.is_brick(i) for i in sb)
            spans = t_of(cat, mask_of(sb)) == quad.Tbar
            good = orthogonal and bricks and spans
            payload = {
                "theta": list(theta),
                "verdict": verdict["verdict"],
                "size": len(sb),
                "semibrick": [list(cat.dims_of(i)) for i in sb],
                "orthogonal": orthogonal,
                "bricks": bricks,
                "generates": spans,
            }
            checks.append(_check(claim, "pass" if good else "fail", payload))
            sizes.setdefault(theta, {})[p] = len(sb)
    for theta in sorted(sizes):
        by_p = sizes[theta]
        seq = [by_p[p] for p in sorted(by_p)]
        checks.append(
            _check(
                "scan-growth[%s]" % ",".join(map(str, theta)),
                "pass",
                {
                    "theta": list(theta),
                    "fields": sorted(by_p),
                    "sizes": seq,
                    "growing": all(a < b for a, b in zip(seq, seq[1:])),
                },
            )
        )
    if not checks:
        checks.append(_check("scan-no-evidence", "pass", {"points": 0}))
    A0 = algebras[sorted(fields)[0]]
    rep = _report(algebra_id, A0, bound, "scan", checks)
    rep["fields"] = sorted(fields)
    return rep


# -- fan export and the rank 2 picture ----------------------------------------------


def fan_json(algebra, depth, algebra_id="algebra"):
    """Enumerated g-vector fan: one integer ray matrix per cone."""
    graph = enumerate_silting(algebra, depth)
    cones = []
    for v in graph["vertices"]:
        cone = silting_cone(v["summands"])
        cones.append(
            {
                "key": [list(g) for g in v["key"]],
                "rays": [list(r) for r in cone.generators],
                "depth": v["depth"],
            }
        )
    return {
        "algebra": algebra_id,
        "field": algebra.p,
        "depth": depth,
        "complete": graph["complete"],
        "cones": cones,
    }


_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1f77b4", "#aec7e8",
    "#ffbb78", "#98df8a", "#d62728", "#ff9896", "#c5b0d5", "#8c564b",
    "#c49c94", "#e377c2", "#f7b6d2", "#7f7f7f", "#c7c7c7", "#dbdb8d",
)


def wallchamber_svg(algebra, bound=None, window=(-5, 5), depth=6):
    """Rank 2 wall-and-chamber picture as an SVG string.

    Samples weights on a half-integer grid over the window, colors each
    sample by the pair of window classes it cuts out, and overlays the
    rays of the enumerated fan.  Styling is fixed; equal inputs give
    byte-identical output.
    """
    if algebra.n != 2:
        raise ReportError("wall-chamber pictures need exactly 2 vertices")
    if bound is None:
        bound = (2, 2)
    cat = Catalogue(algebra, bound)
    lo, hi = window
    if lo >= hi:
        raise ReportError("empty window %r" % (window,))
    steps = 2 * (hi - lo) + 1
    size = 560.0
    margin = 40.0
    plot = size - 2 * margin
    cell = plot / steps
    scale = plot / float(hi - lo)

    def px(x):
        return margin + (float(x) - lo) * scale

    def py(y):
        return margin + (hi - float(y)) * scale

    colors = {}
    rects = []
    for j in range(steps):
        y = Fraction(hi) - Fraction(j, 2)
        for i in range(steps):
            x = Fraction(lo) + Fraction(i, 2)
            quad = quadruple(cat, (x, y))
            key = (quad.T, quad.Tbar)
            if key not in colors:
                colors[key] = _PALETTE[len(colors) % len(_PALETTE)]
            rects.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>'
                % (px(x) - cell / 2, py(y) - cell / 2, cell, cell, colors[key])
            )
    rays = set()
    for v in enumerate_silting(algebra, depth)["vertices"]:
        rays.update(silting_cone(v["summands"]).generators)
    lines = [
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" stroke-width="1"/>'
        % (px(lo), py(0), px(hi), py(0)),
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" stroke-width="1"/>'
        % (px(0), py(lo), px(0), py(hi)),
    ]
    for ray in sorted(rays):
        gx, gy = ray
        stretch = Fraction(hi) / max(abs(gx), abs(gy))
        lines.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#222222" stroke-width="2"/>'
            % (px(0), py(0), px(gx * stretch), py(gy * stretch))
        )
    body = "\n".join(
        [
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (int(size), int(size), int(size), int(size)),
            '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>'
            % (int(size), int(size)),
        ]
        + rects
        + lines
        + ["</svg>"]
    )
    return body + "\n"
