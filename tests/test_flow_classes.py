"""``verify`` on whole flow classes: every one-phase stencil over a field
with offsets in a range, each offset's coefficient 1, or each nonzero
coefficient.

A one-phase stencil flow's entropy is its top offset, or 0 when no offset
is positive; restricted to the prime field it is [K:F] times that, and
induced it is the same.  ``verify_theorem`` at its defaults must FAIL no
flow of a class, and every value it resolves must be that.  Run as a
script, this checks the class of every nonzero coefficient over GF(4)
with offsets -2..3, 4,095 flows, prints the verdict counts, and exits 1
on any FAIL or wrong value:

    PYTHONPATH=src python tests/test_flow_classes.py
"""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from flowent.fields import least_irreducible, make_extension, make_prime_field
from flowent.functors import verify_theorem
from flowent.linalg import Matrix
from flowent.model import EndoSpec, Flow, SpaceShape


def stencil_flows(field, lo: int, hi: int, coefficients):
    """Every one-phase stencil flow with offsets in lo..hi, each offset's
    coefficient 0 or one of ``coefficients``, but not all 0, with its top
    offset.  Rows that read below 0 get a zero prefix, and there is no
    discrete part."""
    for codes in itertools.product([0, *coefficients], repeat=hi - lo + 1):
        stencil = {k: c for k, c in zip(range(lo, hi + 1), codes) if c}
        if not stencil:
            continue
        rows, top = max(0, -min(stencil)), max(stencil)
        prefix = Matrix(field, np.zeros((rows, rows + max(top, 0) + 1), dtype=np.int64)) if rows else None
        endo = EndoSpec(field, stencil, prefix=prefix)
        yield Flow(SpaceShape(field, 0), endo, label=f"stencil{sorted(stencil.items())}"), top


def tally(p: int, d: int, lo: int, hi: int, every_coefficient: bool = False) -> tuple[Counter, list]:
    """``verify_theorem``'s verdicts on the class over K = GF(p^d), with F
    the prime field and L = K[x]/``least_irreducible(K, 2)``, and the
    resolved values that differ from the closed form, as (flow, field,
    value, due)."""
    base = make_prime_field(p)
    field, e_fk = make_extension(base, least_irreducible(base, d))
    _, e_kl = make_extension(field, least_irreducible(field, 2))
    verdicts, wrong = Counter(), []
    for flow, top in stencil_flows(field, lo, hi, range(1, field.q) if every_coefficient else [1]):
        report = verify_theorem(e_fk, e_kl, flow)
        verdicts[report.verdict] += 1
        h = max(0, top)
        for name, est, due in (("K", report.ent_k, h), ("F", report.ent_f, d * h), ("L", report.ent_l, h)):
            if est.resolved and est.value != due:
                wrong.append((flow.label, name, est.value, due))
    return verdicts, wrong


# (p, d, offsets lo..hi, INCONCLUSIVE flows at most): the counts under the
# "still growing" rule, which ROADMAP item 1's proven cutoff takes to 0
ALL_ONES = [(2, 2, -2, 3, 32), (2, 3, -2, 2, 16), (2, 4, -1, 2, 10), (3, 2, -2, 2, 8), (3, 3, -1, 2, 4)]


@pytest.mark.parametrize("p,d,lo,hi,unresolved", ALL_ONES, ids=[f"GF({c[0]}^{c[1]})" for c in ALL_ONES])
def test_all_ones_class(p, d, lo, hi, unresolved):
    verdicts, wrong = tally(p, d, lo, hi)
    assert sum(verdicts.values()) == 2 ** (hi - lo + 1) - 1
    assert verdicts["FAIL"] == 0, verdicts
    assert wrong == []
    assert verdicts["INCONCLUSIVE"] <= unresolved, verdicts


if __name__ == "__main__":
    verdicts, wrong = tally(2, 2, -2, 3, every_coefficient=True)
    print(f"{sum(verdicts.values())} flows: {dict(sorted(verdicts.items()))}, {len(wrong)} wrong values")
    for case in wrong:
        print(*case)
    sys.exit(1 if verdicts["FAIL"] or wrong else 0)
