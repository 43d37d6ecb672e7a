"""Tests of the benchmark's own references and checks.

Run from the root of the repository:  PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import copy
import io
import json

import pytest

import checks
import run
import workloads
from flowent.cli import main as cli_main
from flowent.fields import make_extension, make_prime_field
from flowent.model import random_stencil_flow, save_flow


def enumerated_prefix_shift_codim(r: int, m: int, n: int) -> int:
    """codim_n(U_m) of prefix-shift[r] by listing every vector of a window.

    Rows below r read the next coordinate and the rest read themselves, so
    no row of the window [0, r+m+1) reads outside it and the window map is
    exact.  Vectors are bit masks; U_m zeroes bits 0..m-1.
    """
    width = r + m + 1
    low = (1 << m) - 1

    def phi(v: int) -> int:
        shifted = (v >> 1) & ((1 << r) - 1)
        return shifted | (v & ~((1 << r) - 1))

    in_u = in_c = 0
    for v in range(1 << width):
        if v & low:
            continue
        in_u += 1
        w = v
        for _ in range(n - 1):
            w = phi(w)
            if w & low:
                break
        else:
            in_c += 1
    return in_u.bit_length() - in_c.bit_length()


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_prefix_shift_closed_form_matches_enumeration(r):
    for m in range(4):
        for n in range(1, 6):
            assert checks.prefix_shift_codim(r, m, n) == enumerated_prefix_shift_codim(r, m, n)


def run_cli(tmp_path, flow, command, *flags):
    path = tmp_path / "flow.json"
    save_flow(flow, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([command, str(path), *flags])
    spec = json.loads(path.read_text())
    return json.loads(out.getvalue()), code, spec


def rejects(check, report, code, keys, value):
    """Whether ``check`` fails the report with the cell at ``keys`` set to ``value``."""
    altered = copy.deepcopy(report)
    cell = altered
    for key in keys[:-1]:
        cell = cell[key]
    cell[keys[-1]] = value
    return check(altered, code).failed


def test_prefix_shift_check(tmp_path):
    report, code, _ = run_cli(tmp_path, workloads.prefix_shift_flow(8), "compute")
    check = lambda rep, c: checks.check_prefix_shift(rep, c, 8)  # noqa: E731
    verdict = check(report, code)
    assert verdict.resolved and not verdict.failed
    assert rejects(check, report, code, ("per_u", 3, "codims", 10), 10)
    assert rejects(check, report, code, ("value",), 1)


def test_compute_check(tmp_path):
    gf3 = make_prime_field(3)
    report, code, spec = run_cli(tmp_path, random_stencil_flow(gf3, 6), "compute")
    h = checks.stencil_entropy(workloads.stencil_offsets(spec))
    check = lambda rep, c: checks.check_compute(rep, c, h)  # noqa: E731
    verdict = check(report, code)
    assert verdict.resolved and not verdict.failed
    last = report["per_u"][8]["codims"][-1]
    assert rejects(check, report, code, ("per_u", 8, "codims", -1), last + 1)
    assert rejects(check, report, code, ("value",), h + 1)


def test_verify_check(tmp_path):
    gf4, e24 = make_extension(make_prime_field(2), (1, 1, 1))
    report, code, spec = run_cli(tmp_path, random_stencil_flow(gf4, 6), "verify", "--identity-n", "4")
    h = checks.stencil_entropy(workloads.stencil_offsets(spec))
    check = lambda rep, c: checks.check_verify(rep, c, h, e24.degree, 4)  # noqa: E731
    verdict = check(report, code)
    assert verdict.resolved and not verdict.failed
    assert rejects(check, report, code, ("identities", "2"), False)
    assert rejects(check, report, code, ("ent_F", "value"), e24.degree * h + 1)


def test_interleave_spreads_each_group():
    assert workloads.interleave([list("aaaaaa"), list("bb")]) == list("aabaaaba")


def test_clock_scales_by_the_probes_around_an_operation():
    clock = run.Clock(probing=False)
    # probes 0.002 before, 0.004 inside and 0.006 after one operation
    clock.probes = [0.002, 0.004, 0.006]
    clock.ops = [(1.5, 1, 2)]
    assert clock.scaled(0) == pytest.approx(1.5 * run.PROBE_REF_S / 0.004)


def test_clock_takes_the_probes_out_of_an_operation():
    clock = run.Clock(probing=False)
    clock.probes = [0.002]

    def operation():
        clock.probes.append(1000.0)  # a probe that ran inside the operation
        return "done"

    own, result = clock.time(operation)
    assert result == "done"
    assert own < -999 and clock.ops == [(own, 1, 2)]
