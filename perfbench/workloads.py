"""Seeded inputs and their known answers for the three benchmark workloads.

Every input is a model file plus a CLI command.  Models are seeded
rescalings of the built-in ``bf:N`` towers: the Lagrangian and each generator
stage get their own nonzero rational factor.  The stage identities are linear
in each stage's generators, so a whole-stage rescaling keeps every check
exact, and the known answers below follow from how an input is built, never
from running the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from gaugelab.algebra import FIELD, GradedPoly, as_poly
from gaugelab.dsl import render_model
from gaugelab.koszul import ModelBuilder, ModelSpec
from gaugelab.zoo import bf_model

TOWERS = range(4, 10)

# Window homology numbers, pinned.  Rescaling a model does not change them:
# it amounts to rescaling each antifield family, a diagonal change of the
# monomial basis.  crosscheck.py recomputes them with the benchmark's own
# Fraction elimination.
# (bf:N, sector, jet order, degree, --stage, chains, cycles, in-window
#  boundary rank, homology)
WINDOWS = (
    # verification windows on the full tower: no homology
    (3, 1, 1, 2, None, 272, 57, 57, 0),
    (3, 2, 1, 2, None, 324, 32, 32, 0),
    (3, 3, 1, 2, None, 260, 13, 13, 0),
    (2, 2, 2, 2, None, 267, 27, 27, 0),
    # discovery windows on a truncated tower: generators are found
    (2, 1, 2, 2, -1, 342, 85, 52, 33),
    (3, 1, 2, 1, -1, 40, 11, 0, 11),
    (3, 2, 2, 1, 0, 30, 4, 0, 4),
)


@dataclass(frozen=True)
class Input:
    """One model file and the command run on it, with its known answer.

    ``name`` is the file stem, which the CLI reports as the model name.
    ``expect`` holds ``code`` (the exit code) and either ``checks`` and
    ``failing`` (check-name lists) or ``dims`` (the homology numbers).
    """

    name: str
    text: str
    command: str
    flags: tuple = ()
    expect: dict = field(default_factory=dict)

    def problem(self, code, report: dict) -> str | None:
        """Why a verdict differs from the known answer, or None when it matches."""
        want = self.expect
        if code != want["code"]:
            return f"exit code {code}, expected {want['code']}"
        if report.get("model") != self.name or report.get("command") != self.command:
            return "report names another model or command"
        if "dims" in want:
            (entry,) = report["homology"]
            if entry["dims"] != want["dims"]:
                return f"dims {entry['dims']}, expected {want['dims']}"
            if len(entry["generators"]) != want["dims"]["homology"]:
                return "generator count differs from the homology dimension"
            return None
        checks = report["checks"]
        if [c["name"] for c in checks] != want["checks"]:
            return "check list differs"
        failing = [c["name"] for c in checks if c["status"] != "pass"]
        if failing != want["failing"]:
            return f"failing checks {failing}, expected {want['failing']}"
        return None


# Rescaling factors: every one renders with the same number of digits and has
# the same height, so the seed changes the models' numbers and not the cost
# of the arithmetic on them.
FACTORS = tuple(Fraction(p, q) for p in (2, 3, 5, 7) for q in (2, 3, 5, 7) if p != q)


def _factor(rng: random.Random) -> Fraction:
    """A seeded nonzero rational from FACTORS, with a seeded sign."""
    return rng.choice((-1, 1)) * rng.choice(FACTORS)


def rescaled(n: int, rng: random.Random, name: str, defect=None) -> ModelSpec:
    """``bf:n`` with seeded Lagrangian and per-stage factors.

    ``defect`` is an optional (stage, components) pair: that generator
    member gets the sign of its first term flipped.
    """
    base = bf_model(n)
    b = ModelBuilder(name, n)
    for d in base.table.kind_decls(FIELD):
        b.add_field(d.name, parity=d.parity, arity=d.arity, antisym=d.antisym)
    b.set_lagrangian(as_poly(base.lagrangian).scale(_factor(rng)))
    for fam in base.families:
        q = _factor(rng)
        members = {}
        for comps, poly in fam.sorted_members():
            poly = poly.scale(q)
            if defect == (fam.stage, comps):
                (fs, c), *rest = poly.terms
                poly = GradedPoly(((fs, -c),) + tuple(rest))
            members[comps] = poly
        b.add_stage([(fam.name, fam.arity, fam.antisym, members)])
    return b.build()


def check_names(n: int) -> list[str]:
    """Every check that ``check`` runs on a ``bf:n`` tower, in report order."""
    top = n - 2
    return (["noether-identity[D]"]
            + [f"stage-{k}-identity[D]" for k in range(1, top + 1)]
            + ["kt-nilpotency", "extended-lagrangian-closure",
               "gauge-supersymmetry", "ascent-nilpotency"])


def defect_failures(n: int, k: int) -> list[str]:
    """Checks that fail when one stage-k member of ``bf:n`` has a flipped term.

    The flipped member breaks its own identity and, through the stage-(k+1)
    members that contract with it, the next one; both nilpotency scans and
    the closure of the extended Lagrangian see the broken identity.  Only a
    stage-0 defect changes the field components of the ascent operator, so
    only then does the gauge supersymmetry fail.
    """
    names = check_names(n)
    failing = {names[k], "kt-nilpotency", "extended-lagrangian-closure",
               "ascent-nilpotency"}
    if k < n - 2:
        failing.add(names[k + 1])
    if k == 0:
        failing.add("gauge-supersymmetry")
    return [c for c in names if c in failing]


def check_tower(rng: random.Random) -> list[Input]:
    out = []
    for n in TOWERS:
        m = rescaled(n, rng, f"tower-bf{n}")
        out.append(Input(m.name, render_model(m), "check", (),
                         {"code": 0, "checks": check_names(n), "failing": []}))
    rng.shuffle(out)
    return out


def check_defects(rng: random.Random) -> list[Input]:
    """Two models per tower, one with a defect at stage 0 and one at the top
    stage, each in the middle member of its stage.

    The defect's place is fixed, because a verdict's cost depends on it:
    both nilpotency scans stop at their first witness, and where they find
    it depends on the defect's stage and member.  The seed rescales the
    models and orders the inputs.
    """
    out = []
    for n in TOWERS:
        for k in (0, n - 2):
            members = [c for c, _ in bf_model(n).families[k].sorted_members()]
            comps = members[len(members) // 2]
            m = rescaled(n, rng, f"defect-bf{n}-stage{k}", defect=(k, comps))
            out.append(Input(m.name, render_model(m), "check", (),
                             {"code": 1, "checks": check_names(n),
                              "failing": defect_failures(n, k)}))
    rng.shuffle(out)
    return out


def homology_windows(rng: random.Random) -> list[Input]:
    out = []
    for n, sector, jets, degree, stage, chains, cycles, rank, hom in WINDOWS:
        tag = "" if stage is None else f"-stage{stage}"
        m = rescaled(n, rng, f"window-bf{n}-s{sector}-j{jets}p{degree}{tag}")
        flags = ("--sector", str(sector), "--jet-order", str(jets),
                 "--poly-degree", str(degree))
        if stage is not None:
            flags += ("--stage", str(stage))
        out.append(Input(m.name, render_model(m), "homology", flags,
                         {"code": 0, "dims": {"chains": chains, "cycles": cycles,
                                              "boundary_rank_in_window": rank,
                                              "homology": hom}}))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "check-tower": check_tower,
    "check-defects": check_defects,
    "homology-windows": homology_windows,
}


def generate(workload: str, seed: int) -> list[Input]:
    """The workload's inputs; the same seed always gives the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
