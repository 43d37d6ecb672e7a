"""Report bytes of ``compute``, ``verify`` and ``oracle`` on fixed flows.

Each case writes a seeded ``random_stencil_flow`` to a spec file, runs one
command on it and compares the report with the committed file of the same
name under ``tests/golden/``, byte for byte.  A change that alters any of
these bytes must be recorded as a schema change or a fix; the files are
then rewritten with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from flowent.cli import main
from flowent.fields import least_irreducible, make_extension, make_prime_field
from flowent.model import random_stencil_flow, save_flow

GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file name, field order, seed, command and flags)
CASES = [
    ("compute-gf4-s0.json", 4, 0, ["compute"]),
    ("compute-gf4-s0.csv", 4, 0, ["compute", "--format", "csv"]),
    ("compute-gf9-s0.json", 9, 0, ["compute"]),
    ("compute-gf9-s0.csv", 9, 0, ["compute", "--format", "csv"]),
    *[
        (f"verify-gf4-s{s}.json", 4, s, ["verify", "--identity-n", "8", "--max-n", "32"])
        for s in range(3)
    ],
    ("verify-gf9-s0.json", 9, 0, ["verify", "--identity-n", "8", "--max-n", "32"]),
    ("oracle-gf2-s1.json", 2, 1, ["oracle", "--max-n", "4", "--max-m", "2"]),
]


def _field(q: int):
    """GF(q) for q in 2, 4 and 9, with the modulus the command line picks."""
    p = 2 if q % 2 == 0 else 3
    base = make_prime_field(p)
    return base if q == p else make_extension(base, least_irreducible(base, 2))[0]


def report_bytes(tmp: Path, q: int, seed: int, command: list[str]) -> bytes:
    spec, out = tmp / "spec.json", tmp / "report"
    save_flow(random_stencil_flow(_field(q), seed), spec)
    main([command[0], str(spec), *command[1:], "--out", str(out)])
    return out.read_bytes()


@pytest.mark.parametrize("name,q,seed,command", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(tmp_path, name, q, seed, command):
    assert report_bytes(tmp_path, q, seed, command) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, q, seed, command in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(report_bytes(Path(tmp), q, seed, command))
