"""Report bytes of ``compute``, ``verify`` and ``oracle`` on fixed flows,
and the specs of flows derived from other flows.

Each case writes a flow to a spec file, a seeded ``random_stencil_flow``
or a ``prefix_shift_flow`` of a wide window, runs one command on it and
compares the report with the committed file of the same name under
``tests/golden/``, byte for byte.  ``derived-flows.json`` holds
the ``flow_to_dict`` of direct sums, conjugates and powers of such flows.
A change that alters any of these bytes must be recorded as a schema
change or a fix; the files are then rewritten with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from flowent.cli import main
from flowent.fields import least_irreducible, make_extension, make_prime_field
from flowent.linalg import random_invertible
from flowent.model import (
    conjugate_flow,
    direct_sum,
    flow_to_dict,
    power_flow,
    random_stencil_flow,
    save_flow,
)

from conftest import prefix_shift_flow

GOLDEN = Path(__file__).resolve().parent / "golden"


def _stencil_flow(q: int, seed: int):
    return random_stencil_flow(_field(q), seed)


# (golden file name, a callable that builds the flow, command and flags)
CASES = [
    ("compute-gf4-s0.json", partial(_stencil_flow, 4, 0), ["compute"]),
    ("compute-gf4-s0.csv", partial(_stencil_flow, 4, 0), ["compute", "--format", "csv"]),
    ("compute-gf9-s0.json", partial(_stencil_flow, 9, 0), ["compute"]),
    ("compute-gf9-s0.csv", partial(_stencil_flow, 9, 0), ["compute", "--format", "csv"]),
    *[
        (f"verify-gf4-s{s}.json", partial(_stencil_flow, 4, s), ["verify", "--identity-n", "8", "--max-n", "32"])
        for s in range(3)
    ],
    ("verify-gf9-s0.json", partial(_stencil_flow, 9, 0), ["verify", "--identity-n", "8", "--max-n", "32"]),
    ("compute-gf16-s0.json", partial(_stencil_flow, 16, 0), ["compute"]),
    ("compute-gf27-s0.json", partial(_stencil_flow, 27, 0), ["compute"]),
    # the odd packed path over a prime field, a quadratic extension and
    # 9-bit lanes, and over p = 7, 8191 and 65521, in lanes of 4, 14 and
    # 17 bits, where the lane rule p <= 2^(b-1) leaves the least room
    *[(f"compute-gf{q}-s0.json", partial(_stencil_flow, q, 0), ["compute"]) for q in (3, 25, 251, 7, 8191, 65521)],
    ("verify-gf8-s0.json", partial(_stencil_flow, 8, 0), ["verify", "--identity-n", "8", "--max-n", "32"]),
    ("verify-gf27-s0.json", partial(_stencil_flow, 27, 0), ["verify", "--identity-n", "8", "--max-n", "32"]),
    ("oracle-gf2-s1.json", partial(_stencil_flow, 2, 1), ["oracle", "--max-n", "4", "--max-m", "2"]),
    ("oracle-gf2-s1-m3.json", partial(_stencil_flow, 2, 1), ["oracle", "--max-n", "4", "--max-m", "3"]),
    # identity depths past the estimates' depth, where the runs carry only
    # the rows the identity checks read
    *[
        (f"verify-gf{q}-s3-deep.json", partial(_stencil_flow, q, 3), ["verify", "--identity-n", "40", "--max-n", "8"])
        for q in (4, 8, 9, 27)
    ],
    # windows of 3,326 and 5,276 coordinates; r = 80 resolves to 1 where 0
    # is due (ROADMAP item 1), so only that item's fix may rewrite its file
    *[(f"compute-prefix-shift-{r}.json", partial(prefix_shift_flow, r), ["compute"]) for r in (50, 80)],
]


def _field(q: int):
    """GF(q) for a prime power q, with the modulus the command line picks."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    d = round(math.log(q, p))
    base = make_prime_field(p)
    return base if d == 1 else make_extension(base, least_irreducible(base, d))[0]


def report_bytes(tmp: Path, flow, command: list[str]) -> bytes:
    """The report of ``command`` on the flow that ``flow()`` builds."""
    spec, out = tmp / "spec.json", tmp / "report"
    save_flow(flow(), spec)
    main([command[0], str(spec), *command[1:], "--out", str(out)])
    return out.read_bytes()


def derived_flows_bytes() -> bytes:
    """Specs of 10 direct sums, 10 conjugates and 4 powers of seeded flows
    over GF(4) and GF(9), as one JSON object keyed by construction."""
    out = {}
    for q in (4, 9):
        field = _field(q)
        for s in range(5):
            f, g = random_stencil_flow(field, s), random_stencil_flow(field, s + 5)
            out[f"gf{q}-sum-s{s}"] = flow_to_dict(direct_sum(f, g))
            a = random_invertible(field, np.random.default_rng(s), f.discrete_dim + 2 + s % 3)
            out[f"gf{q}-conj-s{s}"] = flow_to_dict(conjugate_flow(f, a))
        for s, k in ((0, 2), (1, 3)):
            out[f"gf{q}-pow{k}-s{s}"] = flow_to_dict(power_flow(random_stencil_flow(field, s), k))
    return (json.dumps(out, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name,flow,command", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(tmp_path, name, flow, command):
    assert report_bytes(tmp_path, flow, command) == (GOLDEN / name).read_bytes()


def test_derived_flows():
    assert derived_flows_bytes() == (GOLDEN / "derived-flows.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, flow, command in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(report_bytes(Path(tmp), flow, command))
    (GOLDEN / "derived-flows.json").write_bytes(derived_flows_bytes())
