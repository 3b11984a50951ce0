"""Golden output digests: the bytes the package writes, pinned per case.

Each case is hashed with sha256 and compared with tests/data/
output_digests.json, so a change that moves any output byte fails here and
names its case.  The cases are the certificate (``to_json``) and its
``check_certificate`` report for every Table 1/2 row in its exact regime,
the pinned rational headline and alpha = -33/2 in the interval regime; the
replay reports of every single-leaf forgery of those last two; the
``minimize`` result of each search strategy on two rows, and its result or
error on every Table 1/2 row at once, with alpha moved by each offset the
benchmark's explore workload uses; the asymptotic ``minimal_beta`` over a
range of k and the Table 5 report; and the files the CLI writes, a
``pipeline --out`` certificate, a ``search --out`` payload and the
``reproduce --out`` CSV of each table, Tables 1 and 2 in both modes.

A change that moves output on purpose rewrites the file with
``PYTHONPATH=src python tests/test_output_digests.py > tests/data/output_digests.json``.
"""

import contextlib
import copy
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from zkwander import (CertificateError, DegreePattern, RegisterTooLargeError,
                      SearchConfig, ZkwanderError, attach_register,
                      auto_register, check_certificate, dirichlet, minimize,
                      recover, reduce_system, verify)
from zkwander import cli
from zkwander.asymptotic import minimal_beta, reproduce_table5
from zkwander.reference_data import TABLE1_ROWS, TABLE2_ROWS
from zkwander.scalars import INTERVAL
from zkwander.search import STRATEGIES
from zkwander.weights import exact_regime

DIGESTS = Path(__file__).with_name("data") / "output_digests.json"
HEADLINE_Z3 = Fraction(-2) * 10 ** 13
ALPHA_OFFSETS = (Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4))


def _certificate(seq, pattern, d, regime, z3=None) -> str:
    """to_json() of the certificate at d, with unit registers where they
    fit and auto_register's otherwise."""
    params = recover(reduce_system(seq, pattern, regime), d, z3=z3)
    try:
        params = attach_register(params, 1, 1)
    except RegisterTooLargeError:
        r = auto_register(params)
        params = attach_register(params, r, r)
    return verify(params.pair, seq, regime).to_json()


def _with_report(text: str) -> str:
    """A certificate's JSON and its check_certificate report."""
    return text + json.dumps(check_certificate(json.loads(text)),
                             sort_keys=True)


def _forgery_reports(text: str) -> str:
    """The replay report, or the refusal, of the certificate with each of
    its leaves in turn replaced by "forged"."""
    base = json.loads(text)
    lines = []

    def walk(node, path):
        if isinstance(node, (dict, list)):
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                walk(node[key], path + (key,))
            return
        forged = copy.deepcopy(base)
        target = forged
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "forged"
        try:
            lines.append(json.dumps(check_certificate(forged),
                                    sort_keys=True))
        except CertificateError as exc:
            lines.append(f"CertificateError: {exc}")

    walk(base, ())
    return "\n".join(lines)


def _row_case(row):
    seq = dirichlet(row.alpha)
    pattern = DegreePattern.from_phi(row.k, row.phi2, row.phi3)
    regime = exact_regime(seq, pattern.embedded_indices())
    return lambda: _with_report(_certificate(
        seq, pattern, (Fraction(1),) + row.d, regime))


def _minimize_case(row, strategy, offset=0):
    config = SearchConfig(alpha=row.alpha + offset, k=row.k, phi2=row.phi2,
                          phi3=row.phi3, strategy=strategy)
    return lambda: repr(minimize(config))


def _minimize_outcome(row, strategy, offset=0) -> str:
    """The repr of minimize on the row with alpha moved by offset, or the
    error it raises."""
    try:
        return _minimize_case(row, strategy, offset)()
    except ZkwanderError as exc:
        return f"{type(exc).__name__}: {exc}"


def _headline() -> str:
    return _certificate(dirichlet(-16), DegreePattern.default(6),
                        (1, 1, 4, 6), "rational", z3=HEADLINE_Z3)


def _alpha_33_2() -> str:
    return _certificate(dirichlet(Fraction(-33, 2)), DegreePattern.default(6),
                        (1, 1, 4, 6), INTERVAL)


def _cli_file(*argv) -> str:
    """The file ``zkwander <argv> --out FILE`` writes, run through cli.main."""
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder) / "out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*argv, "--out", str(out)])
        return out.read_text()


CASES = {
    **{f"table{t}-row{i}": _row_case(row)
       for t, rows in ((1, TABLE1_ROWS), (2, TABLE2_ROWS))
       for i, row in enumerate(rows, 1)},
    "headline-rational": lambda: _with_report(_headline()),
    "alpha-33/2-interval": lambda: _with_report(_alpha_33_2()),
    "forgeries-headline-rational": lambda: _forgery_reports(_headline()),
    "forgeries-alpha-33/2-interval": lambda: _forgery_reports(_alpha_33_2()),
    **{f"minimize-{strategy}-table{t}-row{i}": _minimize_case(rows[i - 1],
                                                             strategy)
       for t, rows, i in ((1, TABLE1_ROWS, 1), (2, TABLE2_ROWS, 3))
       for strategy in STRATEGIES},
    "minimize-published-rows": lambda: "\n".join(
        _minimize_outcome(row, strategy)
        for row in TABLE1_ROWS + TABLE2_ROWS for strategy in STRATEGIES),
    "minimize-explore-offsets": lambda: "\n".join(
        _minimize_outcome(row, strategy, offset)
        for row in TABLE1_ROWS + TABLE2_ROWS for offset in ALPHA_OFFSETS
        for strategy in STRATEGIES),
    "asymptotic-minimal-beta": lambda: "\n".join(
        repr(minimal_beta(k)) for k in (*range(10, 81), 1000, 10 ** 6)),
    "asymptotic-table5": lambda: repr(reproduce_table5()),
    "cli-pipeline-certificate": lambda: _cli_file(
        "pipeline", "--alpha", "-16", "--d", "1,4,6", "--z3", "-2e13"),
    "cli-search-grid": lambda: _cli_file(
        "search", "--alpha", "-16", "--strategy", "grid"),
    **{f"cli-reproduce-table{t}": (lambda t=t: _cli_file(
        "reproduce", "--table", str(t))) for t in range(1, 6)},
    **{f"cli-reproduce-table{t}-re-search": (lambda t=t: _cli_file(
        "reproduce", "--table", str(t), "--mode", "re-search"))
       for t in (1, 2)},
}


def digest(case: str) -> str:
    return hashlib.sha256(CASES[case]().encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_output_matches_its_golden_digest(case):
    assert digest(case) == json.loads(DIGESTS.read_text())[case], (
        f"the output of {case} changed")


def test_every_case_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


if __name__ == "__main__":
    print(json.dumps({case: digest(case) for case in CASES}, indent=2))
