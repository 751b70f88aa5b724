"""Built-in models for arbitrary base dimension.

The antisymmetric field of the topological model is stored on strictly
increasing component tuples; epsilon contractions are expanded at build time
into concrete components with exact signs, so the declared Lagrangian already
carries the antisymmetrization multiplicity explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import EVEN, GradedPoly, ODD, perm_sign
from .koszul import ModelBuilder, ModelSpec


def epsilon(indices) -> int:
    """Levi-Civita value on a tuple of base indices: +-1 on permutations, else 0."""
    return perm_sign(tuple(indices))


def bf_model(n: int) -> ModelSpec:
    """Topological model with a scalar paired to an antisymmetric (n-1)-field.

    Fields: even scalar A and even antisymmetric B of arity n-1.  The
    Lagrangian couples A to the curl of B; the generator tower descends one
    index per stage down to a scalar at stage n-2, each stage being the total
    divergence of the previous antifield family.
    """
    if n < 2:
        raise ValueError("the topological model needs base dimension >= 2")
    b = ModelBuilder(f"bf:{n}", n)
    b.add_field("A", parity=EVEN)
    b.add_field("B", parity=EVEN, arity=n - 1, antisym=True)
    t = b.table

    raw = []
    for comps in combinations(range(n), n - 1):
        (mu,) = tuple(sorted(set(range(n)) - set(comps)))
        sign = epsilon((mu,) + comps)
        raw.append((Fraction(sign, n), [("A", (), ()), ("B", comps, (mu,))]))
    b.set_lagrangian(GradedPoly.from_raw(
        [(c, [t.symbol(nm, cc, dd) for nm, cc, dd in fs]) for c, fs in raw]))

    # stage k: divergence of the stage-(k-1) antifield family, the B antifield
    # at stage 0; one member per (n-2-k)-tuple
    for k in range(n - 1):
        arity = n - 2 - k
        prev = "sbar(B)" if k == 0 else f"cbar({k - 1})"
        members = {}
        for comps in combinations(range(n), arity):
            acc = []
            for nu in range(n):
                if nu in comps:
                    continue
                sign = perm_sign((nu,) + comps)
                sym = t.symbol(prev, tuple(sorted((nu,) + comps)), (nu,))
                acc.append((Fraction(sign), (sym,)))
            members[comps] = GradedPoly.from_raw(acc)
        b.add_stage([("D", arity, arity > 1, members)])
    return b.build()


def trivial_model(field_decls, n: int = 1) -> ModelSpec:
    """Zero Lagrangian; one stage-0 generator per field sending its antifield
    family to itself.

    ``field_decls`` is a list of (name, parity) or (name, parity, arity,
    antisym) tuples.
    """
    b = ModelBuilder("trivial", n)
    specs = []
    for fd in field_decls:
        fname, parity, arity, antisym = (tuple(fd) + (0, False))[:4]
        b.add_field(fname, parity=parity, arity=arity, antisym=antisym)
        specs.append((fname, arity, antisym))
    b.set_lagrangian(GradedPoly.zero())
    t = b.table
    fams = []
    for fname, arity, antisym in specs:
        decl = t.decl(f"sbar({fname})")
        members = {}
        for comps in t.component_tuples(decl):
            members[comps] = GradedPoly.from_symbol(t.symbol(decl, comps))
        fams.append((f"D_{fname}", arity, antisym, members))
    b.add_stage(fams)
    return b.build()


def free_scalar_model(n: int) -> ModelSpec:
    """Nondegenerate control case: one even scalar with a quadratic first-jet
    Lagrangian and no generators."""
    if n < 1:
        raise ValueError("base dimension must be >= 1")
    b = ModelBuilder(f"scalar:{n}", n)
    b.add_field("s", parity=EVEN)
    t = b.table
    half = Fraction(1, 2)
    b.set_lagrangian(GradedPoly.from_raw(
        [(half, (t.symbol("s", (), (lam,)), t.symbol("s", (), (lam,))))
         for lam in range(n)]))
    return b.build()


def zoo_model(spec: str) -> ModelSpec:
    """Resolve a zoo name: ``bf:N``, ``trivial``, or ``scalar:N``."""
    if spec == "trivial":
        return trivial_model([("s", EVEN), ("psi", ODD)], n=2)
    kind, _, arg = spec.partition(":")
    build = {"bf": bf_model, "scalar": free_scalar_model}.get(kind)
    if build is None or not arg:
        raise ValueError(f"unknown zoo model {spec!r}")
    # int() would also read '1_0', '+3', ' 2' and non-ASCII digits
    if not (arg.isascii() and arg.isdigit()):
        raise ValueError(f"zoo model {spec!r}: the size after ':' must be an integer, "
                         f"got {arg!r}")
    return build(int(arg))
