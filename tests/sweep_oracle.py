"""The products and the membership sweep computed from the definitions.

The generators as coefficient maps {degree: coefficient}, the weighted inner
product of two shifted maps and the level-s block built from it are the
reference that ``model``'s sums over slot rows are pinned to, bit for bit.
The sweep is the oracle for the one that ``certify.verify`` states from the
zero cells, as ``recovery.cross_check`` is for ``recovery.level1_block``: it
builds F_3 from the pair's level-1 block and zero-tests the eight products
<F, z^{ks} G>, F in {F_2, F_3}, G in {F_1, F_2}, at the levels of the
support lemma, and answers in the certificate's ``membership`` form.
"""

from fractions import Fraction

from zkwander.errors import DegeneratePairError
from zkwander.model import orthogonality_relations
from zkwander.scalars import (RATIONAL, certainly_positive, is_exact_zero,
                              sum_of_products, to_regime)
from zkwander.weights import weight


def _nonzero(pairs) -> dict:
    # an exact zero has no term; the degrees of one generator are distinct
    return {d: c for d, c in pairs if not is_exact_zero(c)}


def f1_map(pair) -> dict:
    p = pair.pattern
    return _nonzero([*zip(p.gamma, pair.a_low),
                     *((p.k + g, c) for g, c in zip(p.gamma, pair.a_high)),
                     (p.gamma[4], pair.a_reg)])


def f2_map(pair) -> dict:
    p = pair.pattern
    return _nonzero([*zip(p.gamma, pair.b_low), (p.gamma[5], pair.b_reg)])


def inner_product(f: dict, g: dict, seq, regime=RATIONAL, shift_f=0,
                  shift_g=0):
    """<z^{shift_f} f, z^{shift_g} g> in the weighted space; seq may be a
    table {degree: weight} in the regime holding every matched degree.  The
    matched terms are summed in ascending degree by ``sum_of_products``."""
    at = seq.__getitem__ if isinstance(seq, dict) else (
        lambda t: weight(seq, t, regime))
    terms = [(f[d], g[d + shift_f - shift_g], at(d + shift_f))
             for d in sorted(f) if d + shift_f - shift_g in g]
    return sum_of_products(terms) if terms else to_regime(Fraction(0), regime)


def level_block(pair, seq, s: int, regime=RATIONAL) -> dict:
    """The five level-s products {"A1": A_(s,1), ..., "A5": A_(s,5)}, each
    by shifting the maps and matching degrees: ``AQuantities``'s products
    with both shifts raised by k(s-1)."""
    f1, f2, k = f1_map(pair), f2_map(pair), pair.pattern.k
    lo, hi = k * (s - 1), k * s

    def product(f, g, shift_f):
        return inner_product(f, g, seq, regime, shift_f, hi)
    return {"A1": product(f1, f1, lo), "A2": product(f1, f2, hi),
            "A3": product(f1, f1, hi), "A4": product(f2, f2, hi),
            "A5": product(f1, f2, lo)}


def f3_map(pair, seq, regime=RATIONAL) -> dict:
    """Second spanning element of M (-) z^k M, as a coefficient map:

        F_3 = F_1 + z^k sigma (A_13 F_2 - A_12 F_1),  sigma = -A_15 / gap,

    with the Cauchy-Schwarz gap A_13 A_14 - A_12^2, which must be certainly
    positive; DegeneratePairError otherwise."""
    q1 = orthogonality_relations(pair, seq, regime)[0]
    gap = q1.contraction_sides()[0]
    if not certainly_positive(gap):
        raise DegeneratePairError(
            f"A_13 A_14 - |A_12|^2 = {gap!r} is not certifiably positive")
    sigma = q1.A5 / -gap
    k, f1 = pair.pattern.k, f1_map(pair)
    out = dict(f1)
    for c, fmap in ((sigma * q1.A3, f2_map(pair)), (-(sigma * q1.A2), f1)):
        for d, v in fmap.items():
            out[d + k] = out[d + k] + c * v if d + k in out else c * v
    return {d: v for d, v in sorted(out.items()) if not is_exact_zero(v)}


def membership_sweep(pair, seq, regime=RATIONAL) -> dict:
    """The membership dict verify writes for a pair whose four conditions
    hold, computed: the gap's error, the first product not proved 0, by
    name, or the levels swept.  An enclosure proves 0 only as [0, 0], so
    a sweep that holds leaves no residual."""
    try:
        f3 = f3_map(pair, seq, regime)
    except DegeneratePairError as exc:
        return {"holds": False, "error": str(exc)}
    k, f1, f2 = pair.pattern.k, f1_map(pair), f2_map(pair)
    levels = sorted({s for s, _ in pair.pattern.sweep_overlaps()})
    for s in levels:
        for tag, fmap in (("F2", f2), ("F3", f3)):
            for gname, gmap in (("F1", f1), ("F2", f2)):
                v = inner_product(fmap, gmap, seq, regime, shift_g=k * s)
                if not is_exact_zero(v):
                    name = f"<{tag}, z^{k * s} {gname}>"
                    return {"holds": False, "first_failure": f"{name} != 0"}
    return {"holds": True, "levels": levels}
