"""The membership sweep computed from the definitions: the oracle for the
sweep that ``certify.verify`` states from the zero cells, as
``recovery.cross_check`` is for ``recovery.level1_block``.

It builds F_3 from the pair's level-1 block and zero-tests the eight
products <F, z^{ks} G>, F in {F_2, F_3}, G in {F_1, F_2}, at the levels of
the support lemma, and answers in the certificate's ``membership`` form.
"""

from zkwander.errors import DegeneratePairError
from zkwander.model import compute_A, inner_product
from zkwander.scalars import RATIONAL, certainly_positive, is_exact_zero


def f3_map(pair, seq, regime=RATIONAL) -> dict:
    """Second spanning element of M (-) z^k M, as a coefficient map:

        F_3 = F_1 + z^k sigma (A_13 F_2 - A_12 F_1),  sigma = -A_15 / gap,

    with the Cauchy-Schwarz gap A_13 A_14 - A_12^2, which must be certainly
    positive; DegeneratePairError otherwise."""
    q1 = compute_A(pair, seq, 1, regime)
    gap = q1.contraction_sides()[0]
    if not certainly_positive(gap):
        raise DegeneratePairError(
            f"A_13 A_14 - |A_12|^2 = {gap!r} is not certifiably positive")
    sigma = q1.A5 / -gap
    k, f1 = pair.pattern.k, pair.f1_map()
    out = dict(f1)
    for c, fmap in ((sigma * q1.A3, pair.f2_map()), (-(sigma * q1.A2), f1)):
        for d, v in fmap.items():
            out[d + k] = out[d + k] + c * v if d + k in out else c * v
    return {d: v for d, v in sorted(out.items()) if not is_exact_zero(v)}


def membership_sweep(pair, seq, regime=RATIONAL) -> dict:
    """The membership dict verify writes for a pair whose four conditions
    hold, computed: the gap's error, the first product not proved 0, by
    name, or the levels swept.  An enclosure proves 0 only as [0, 0], so
    the worst residual of a sweep that holds is 0.0."""
    try:
        f3 = f3_map(pair, seq, regime)
    except DegeneratePairError as exc:
        return {"holds": False, "error": str(exc)}
    k, f1, f2 = pair.pattern.k, pair.f1_map(), pair.f2_map()
    levels = sorted({s for s, _ in pair.pattern.sweep_overlaps()})
    for s in levels:
        for tag, fmap in (("F2", f2), ("F3", f3)):
            for gname, gmap in (("F1", f1), ("F2", f2)):
                v = inner_product(fmap, gmap, seq, regime, shift_g=k * s)
                if not is_exact_zero(v):
                    name = f"<{tag}, z^{k * s} {gname}>"
                    return {"holds": False, "first_failure": f"{name} != 0"}
    return {"holds": True, "levels": levels, "worst_residual": 0.0}
