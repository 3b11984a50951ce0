"""Verification of engineered pairs and self-contained certificates.

A certificate (schema v3) stores the inputs that fix the proof, k, gamma,
the weights and the generator coefficients, with its regime and its claim,
the verdict and the reasons.  ``verify`` derives from the inputs the four
conditions that make M = [F_1, F_2] a counterexample to the wandering
property of z^k:

  adjacent_zero       A_{1,1} = 0
  higher_zero         A_{2,1} = A_{3,1} = A_{2,5} = A_{3,5} = 0
  coupling_nonzero    A_{1,5} A_{1,2} != 0
  strict_contraction  A_{1,3} A_{1,4} - |A_{1,2}|^2 < |A_{1,5} A_{1,2}|

All four together give z^{gamma_4} in M but orthogonal to the span of the
wandering vectors, with contraction ratio c < 1 certifying the geometric
decay.  The conditions, the A table, c and the membership sweep are the
in-memory report, not stored: ``check_certificate`` re-derives them.
Floats locate a pair, they do not prove one: verify refuses any regime but
rational and interval before it evaluates a weight.

Only what the proof reads is evaluated: A_(s,1) and A_(s,5) for s >= 4
multiply a zero coefficient, and the membership sweep computes no product:
at the levels of the support lemma (``DegreePattern.sweep_overlaps``, in
closed form (1, k + gamma_r) for all six r and (1, 2k + gamma_r),
(2, 2k + gamma_r) for r <= 3) each one is empty, a proved zero cell or
zero once the Cauchy-Schwarz gap is positive, so a failing sweep has the
one reason that the gap is not.  Each input is evaluated once per verify
call: the 14 embedded weights and the zero test of each of the pair's
coefficients, both in ``orthogonality_relations``, the one evaluator of
the products, and the gap that both the strict contraction and the sweep
read.
"""

from __future__ import annotations

import json

from .errors import CertificateError, InvalidPatternError, ModeUnsupportedError
from .model import DegreePattern, GeneratorPair, orthogonality_relations
from .record import Record, store
from .scalars import (MAX_ALPHA_DENOMINATOR, RATIONAL, certainly_positive,
                      check_regime, nonzero_evidence, refuse_foreign,
                      scalar_from_json, scalar_text, scalar_to_json,
                      strictly_less, zero_evidence)
from .weights import WeightSequence, weights_from_dict, weights_to_dict

SCHEMA = "zkwander-certificate/v3"

# ranges verify and check_certificate accept, above every published row
# (|alpha| <= 16 with denominator <= 1000, k <= 88, degrees <= 14611); the
# denominator bound, MAX_ALPHA_DENOMINATOR, is the interval power's own
MAX_ABS_ALPHA = 64
MAX_K = 10 ** 4
MAX_DEGREE = 10 ** 6


def _zero_condition(cells, reasons: list) -> dict:
    """Zero-test each (key, label, value) cell; a failing cell appends its
    reason.  Returns {"holds": all cells zero, key: info, ...}."""
    condition = {"holds": True}
    for key, label, value in cells:
        ok, info = zero_evidence(value)
        condition[key] = info
        if ok:
            continue
        condition["holds"] = False
        if info.get("contains_zero"):
            reasons.append(f"{label} enclosure contains 0 (width "
                           f"{info['width']:.3e}), which does not prove "
                           "that it is 0")
        else:
            reasons.append(f"{label} != 0")
    return condition


def json_text(value) -> str:
    """The text both writers, certificates and ``search --out``, put in a
    file: sorted keys, two-space indent."""
    return json.dumps(value, sort_keys=True, indent=2)


class Certificate(Record):
    __slots__ = ("verdict", "regime", "pair", "seq", "conditions", "a_table",
                 "c_value", "reasons", "membership")

    def __init__(self, verdict, regime, pair, seq, conditions, a_table,
                 c_value, reasons=None, membership=None):
        store(self, "verdict", verdict)
        store(self, "regime", regime)
        store(self, "pair", pair)
        store(self, "seq", seq)
        store(self, "conditions", conditions)
        store(self, "a_table", a_table)     # s -> {"A<n>": value}, s <= 3
        store(self, "c_value", c_value)
        store(self, "reasons", [] if reasons is None else reasons)
        store(self, "membership", {} if membership is None else membership)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        p = self.pair
        return {
            "schema": SCHEMA,
            "regime": self.regime,
            "k": p.pattern.k,
            "gamma": list(p.pattern.gamma),
            "weights": weights_to_dict(self.seq),
            "coefficients": {
                "a_low": [scalar_to_json(v) for v in p.a_low],
                "a_high": [scalar_to_json(v) for v in p.a_high],
                "b_low": [scalar_to_json(v) for v in p.b_low],
                "a_reg": scalar_to_json(p.a_reg),
                "b_reg": scalar_to_json(p.b_reg),
            },
            "verdict": self.verdict,
            "reasons": self.reasons,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict()) + "\n"


def verify(pair: GeneratorPair, seq: WeightSequence,
           regime: str = RATIONAL) -> Certificate:
    """Evaluate the four conditions from the raw coefficients: the level-1
    block and A_(s,1) and A_(s,5) for s = 2, 3; the membership sweep at the
    levels of the support lemma then follows from them and the gap.  An
    unknown regime, "float" among them, and out-of-range inputs raise
    ValueError, the latter under the bounds replay enforces, both before any
    weight is evaluated."""
    check_regime(regime)
    check_bounds(pair.pattern, seq)
    refuse_foreign(regime, (*pair.a_low, *pair.a_high, *pair.b_low,
                            pair.a_reg, pair.b_reg))
    q1, relations = orthogonality_relations(pair, seq, regime)
    a_table = {1: {f"A{i}": getattr(q1, f"A{i}") for i in range(1, 6)},
               2: {}, 3: {}}
    cells = []              # (certificate key, label, value)
    for (s, n), value in relations:
        a_table[s][f"A{n}"] = value
        label = f"A_({s},{n})"
        cells.append(("A_1_1" if s == 1 else label, label, value))
    reasons = []
    conditions = {
        "adjacent_zero": _zero_condition(cells[:1], reasons),
        "higher_zero": _zero_condition(cells[1:], reasons),
    }

    lhs, coupling = q1.contraction_sides()
    ok, info = nonzero_evidence(coupling)
    conditions["coupling_nonzero"] = {"holds": ok, "A15_A12": info}
    if not ok:
        reasons.append("A_(1,5) A_(1,2) = 0")

    rhs = abs(coupling)
    strict = strictly_less(lhs, rhs)
    c_value = lhs / rhs if ok else None
    conditions["strict_contraction"] = {"holds": strict, "lhs": lhs,
                                        "rhs": rhs}
    if not strict:
        reasons.append("A_(1,3) A_(1,4) - |A_(1,2)|^2 >= |A_(1,5) A_(1,2)|")

    all_hold = all(c["holds"] for c in conditions.values())
    membership = {}
    if all_hold:
        levels = sorted({s for s, _ in pair.pattern.sweep_overlaps()})
        membership = _membership_sweep(levels, lhs)
        if not membership["holds"]:
            all_hold = False
            reasons.append("membership sweep cannot build F_3: the "
                           "Cauchy-Schwarz gap " + membership["error"])

    return Certificate(verdict="pass" if all_hold else "fail", regime=regime,
                       pair=pair, seq=seq, conditions=conditions,
                       a_table=a_table, c_value=c_value, reasons=reasons,
                       membership=membership)


def _membership_sweep(levels: list, gap) -> dict:
    """F_2 and F_3 lie in M (-) z^k M at the given levels: stated from the
    zero cells, not computed.

    With F_3 = F_1 + z^k sigma (A_13 F_2 - A_12 F_1), sigma = -A_15 / gap and
    gap = A_13 A_14 - A_12^2, the support lemma leaves each product
    <F, z^{ks} G>, F in {F_2, F_3}, G in {F_1, F_2}, without a term or equal
    to A_(1,1), to A_(1,5) + sigma gap = 0, or to -sigma A_12 times A_(2,1)
    or A_(2,5).  verify calls the sweep once those cells are proved zero, so
    it holds exactly when the gap, which makes F_3 exist, is certainly
    positive.  The identity holds for the exact values and an enclosure
    proves each premise, so this holds in every regime.
    """
    if not certainly_positive(gap):
        return {"holds": False, "error": f"A_13 A_14 - |A_12|^2 = {gap!r} "
                "is not certifiably positive"}
    return {"holds": True, "levels": levels}


# ---------------------------------------------------------------------------
# certificate io and independent re-check

def save_certificate(cert: Certificate, path: str) -> None:
    # formed before the file is opened, so a refused write leaves no file
    text = cert.to_json()
    with open(path, "w") as fh:
        fh.write(text)


def _pair_from_dict(obj: dict) -> GeneratorPair:
    pattern = DegreePattern(obj["k"], tuple(obj["gamma"]))
    co = obj["coefficients"]
    return GeneratorPair(
        pattern=pattern,
        a_low=tuple(scalar_from_json(v) for v in co["a_low"]),
        a_high=tuple(scalar_from_json(v) for v in co["a_high"]),
        b_low=tuple(scalar_from_json(v) for v in co["b_low"]),
        a_reg=scalar_from_json(co["a_reg"]),
        b_reg=scalar_from_json(co["b_reg"]),
    )


def check_bounds(pattern: DegreePattern, seq: WeightSequence) -> None:
    """Ranges of k, the degrees and the Dirichlet exponent under which
    writing or replaying a certificate is bounded work; ValueError outside."""
    if not (1 <= pattern.k <= MAX_K
            and all(g <= MAX_DEGREE for g in pattern.gamma)):
        raise ValueError(f"k must lie in 1..{MAX_K} and the degrees in "
                         f"0..{MAX_DEGREE}")
    if (abs(seq.alpha) > MAX_ABS_ALPHA
            or seq.alpha.denominator > MAX_ALPHA_DENOMINATOR):
        raise ValueError(
            f"alpha = {scalar_text(seq.alpha)} is outside |alpha| <= "
            f"{MAX_ABS_ALPHA} with denominator <= {MAX_ALPHA_DENOMINATOR}")


_ABSENT = object()


def _differences(stored, fresh, path=()):
    """Each (path, stored, recomputed) leaf where the two differ, in the
    recomputed order.  The walk goes only as deep as the recomputed value,
    so a deeply nested stored value costs no more than a flat one."""
    if isinstance(stored, list) and isinstance(fresh, list):
        stored, fresh = dict(enumerate(stored)), dict(enumerate(fresh))
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in [*fresh, *(key for key in stored if key not in fresh)]:
            yield from _differences(stored.get(key, _ABSENT),
                                    fresh.get(key, _ABSENT), path + (key,))
    elif stored != fresh:
        yield path, stored, fresh


def _show(value) -> str:
    """A short JSON rendering; containers are elided, as a stored one may
    nest arbitrarily deep.  A value JSON cannot write (a certificate passed
    as a dict may hold one) shows as its type, e.g. <Fraction>."""
    if value is _ABSENT:
        return "nothing"
    try:
        text = ("{...}" if isinstance(value, dict) else
                "[...]" if isinstance(value, list) else json.dumps(value))
    except (TypeError, ValueError, RecursionError):
        text = f"<{type(value).__name__}>"
    return text if len(text) <= 60 else text[:57] + "..."


def check_certificate(source) -> dict:
    """Re-derive a stored certificate from its own inputs.

    Decodes and bounds the inputs (regime, k, gamma, weights and
    coefficients), re-runs the verifier in the recorded regime and compares
    the stored file with the replay's: the verdict, the reasons, and any
    field the v3 schema does not hold.  Returns a report dict whose
    mismatches name each differing field by the path of its first
    differing leaf; input it cannot replay, a v1 or v2 file among it,
    raises CertificateError.
    """
    if isinstance(source, str):
        try:
            with open(source) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise CertificateError(
                f"cannot read certificate {source}: {exc}") from exc
    else:
        data = source
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SCHEMA:
        raise CertificateError(f"unknown schema {schema!r}")
    try:
        regime = data["regime"]
        check_regime(regime)
        seq = weights_from_dict(data["weights"])
        pair = _pair_from_dict(data)
        stored_verdict = data["verdict"]
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError,
            RecursionError, InvalidPatternError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc

    try:
        redo = verify(pair, seq, regime=regime)
        fresh = redo.to_dict()
    except (ModeUnsupportedError, ValueError, ArithmeticError) as exc:
        raise CertificateError(f"certificate cannot be replayed: {exc}") from exc
    first = {}                      # field -> its first differing leaf
    # an unchanged certificate is compared once, as a whole
    for path, stored, value in (() if data == fresh else
                                _differences(data, fresh)):
        if path[0] not in first:
            first[path[0]] = (f"{'.'.join(map(str, path))}: stored "
                              f"{_show(stored)}, recomputed {_show(value)}")
    return {"ok": not first, "mismatches": list(first.values()),
            "schema_ok": True, "stored_verdict": stored_verdict,
            "recomputed_verdict": redo.verdict}
