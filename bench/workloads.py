"""The benchmark's workloads, their seeded inputs and their expected summaries.

A workload is one torslab command on one algebra.  The seed relabels the
algebra: it permutes the vertex order (the bound moves with it), and the
arrow order and arrow names of the generated algebra text.  Every seed
therefore gives an isomorphic algebra, and the summary of the report, which
names no vertex or arrow, is the same for every seed.  Seed 0 is the
command as written, on the algebra as torslab bundles it.
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter
from dataclasses import dataclass

KRONECKER = (("1", "2"), (("a", "1", "2"), ("b", "1", "2")))
A2 = (("1", "2"), (("a", "1", "2"),))


@dataclass(frozen=True)
class Workload:
    name: str
    algebra: str
    """File stem of the algebra; the report uses it as the algebra id."""
    p: int
    quiver: tuple
    """(vertex names, arrows as (name, source, target)), in file order."""
    bound: tuple
    """Dimension bound per vertex, in the order of the quiver's vertices."""
    args: tuple
    """Command line without --algebra and --bound."""
    expected: dict
    """Summary of the report, identical for every seed."""

    def inputs(self, seed, algebra_path):
        """(algebra text, argv) for this seed; argv names algebra_path."""
        vertices, arrows = self.quiver
        order = list(range(len(vertices)))
        arrow_order = list(range(len(arrows)))
        names = [a[0] for a in arrows]
        if seed:
            rng = random.Random(seed)
            rng.shuffle(order)
            rng.shuffle(arrow_order)
            names = rng.sample(string.ascii_lowercase, len(arrows))
        lines = ["field p=%d" % self.p, "vertices " + " ".join(vertices[v] for v in order)]
        for k in arrow_order:
            _, src, dst = arrows[k]
            lines.append("arrow %s: %s -> %s" % (names[k], src, dst))
        bound = ",".join(str(self.bound[v]) for v in order)
        argv = list(self.args[:1]) + ["--algebra", algebra_path, "--bound", bound]
        return "\n".join(lines) + "\n", argv + list(self.args[1:])


def summarize(report_text, exit_code):
    """Exit code, then status counts per kind of claim, from a JSON report.

    A claim's kind is its name up to the first '['.  Scan reports also give
    the semibrick sizes per field of every growth row, in sorted order.
    """
    report = json.loads(report_text)
    kinds = {}
    for check in report["checks"]:
        kind = check["claim"].split("[", 1)[0]
        kinds.setdefault(kind, Counter())[check["status"]] += 1
    summary = {
        "exit": exit_code,
        "checks": len(report["checks"]),
        "kinds": {k: dict(sorted(c.items())) for k, c in sorted(kinds.items())},
    }
    growth = [c["witness"]["sizes"] for c in report["checks"] if c["claim"].startswith("scan-growth[")]
    if growth:
        summary["growth"] = sorted(growth)
    return summary


WORKLOADS = (
    Workload(
        name="census",
        algebra="kronecker",
        p=2,
        quiver=KRONECKER,
        bound=(2, 3),
        args=("verify", "--suite", "numdis"),
        expected={
            "exit": 2,
            "checks": 34,
            "kinds": {
                "hereditary-bicompact-fac": {"pass": 6},
                "numdis-bicompact-ff": {"pass": 5, "window-limited": 1},
                "numdis-pair": {"pass": 22},
            },
        },
    ),
    Workload(
        name="separation",
        algebra="kronecker",
        p=3,
        quiver=KRONECKER,
        bound=(2, 2),
        args=("verify", "--suite", "numdis"),
        expected={
            "exit": 2,
            "checks": 143,
            "kinds": {
                "hereditary-bicompact-fac": {"pass": 4, "window-limited": 1},
                "numdis-bicompact-ff": {"pass": 3, "window-limited": 2},
                "numdis-pair": {"pass": 133},
            },
        },
    ),
    Workload(
        name="walk",
        algebra="kronecker",
        p=2,
        quiver=KRONECKER,
        bound=(1, 1),
        args=("scan", "--fields", "2,3,5", "--grid", "-3:3", "--depth", "12"),
        expected={
            "exit": 0,
            "checks": 12,
            "kinds": {"scan-evidence": {"pass": 9}, "scan-growth": {"pass": 3}},
            "growth": [[3, 4, 6], [3, 4, 6], [3, 4, 6]],
        },
    ),
    Workload(
        name="chambers",
        algebra="a2",
        p=2,
        quiver=A2,
        bound=(2, 2),
        args=("verify", "--suite", "semistable", "--grid", "-12:12", "--depth", "6"),
        expected={
            "exit": 0,
            "checks": 626,
            "kinds": {"semistable": {"pass": 625}, "semistable-grid-summary": {"pass": 1}},
        },
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
