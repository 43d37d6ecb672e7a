"""References and output checks for the benchmark's workloads.

Every reference is computed from a flow's definition, never from the
engine's output, so a check cannot pass by copying what the engine said.

Stencil flows.  Compact row i >= prefix rows reads ``sum_k c_k v_(i+k)``
with every c_k a nonzero field element, hence invertible.  Let
``h = max(0, largest offset)``.  Each step of the cotrajectory recursion
adds the constraint rows of one more power of the map; the leading
coefficient of the largest offset pins h coordinates that no earlier row
reaches, and the prefix and discrete blocks touch only a fixed finite set
of coordinates, so they add a bounded codimension and no growth.  The
entropy of the flow is therefore h.  Restriction along a degree-d
extension re-blocks each coordinate into d coordinates and turns the
leading coefficient into an invertible d x d block d*h coordinates ahead,
which pins d*h new coordinates per step: entropy d*h.  Extension of
scalars keeps every offset and keeps nonzero coefficients nonzero: h.

Every codimension trace starts at 0, since the 1-step cotrajectory of U
is U itself, and obeys the Krylov argument: the constraint span grows as
``S_(n+1) = S_1 + phi* S_n``, so the trace never decreases and its first
differences never increase.

Prefix shifts.  ``prefix-shift[r]`` maps compact coordinate i to i+1 for
rows i < r and fixes every row i >= r.  Then ``(phi^t v)_j = v_(min(j+t, r))``
for j <= r and ``(phi^t v)_j = v_j`` for j >= r, so the cotrajectory of
U_m up to depth n zeroes the coordinates ``[0, m)`` together with
``{min(j+t, r) : j < m, t < n}``.  For m >= 1 that is
``max(m, min(m+n-1, r+1))`` coordinates, which gives
``codim_n(U_m) = max(0, min(m+n-1, r+1) - m)``; U_0 constrains nothing,
so its codimension is 0.  The trace is eventually constant in n, so the
entropy is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Engine defaults the workloads run at (``n_max`` and ``m_max``).
N_MAX = 64
M_MAX = 8
#: How a problem with a resolved value that differs from its reference starts.
WRONG_VALUE = "resolved value"


@dataclass
class Verdict:
    """Outcome of checking one report against its reference."""

    resolved: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def stencil_entropy(offsets) -> int:
    """Entropy of a stencil flow: its largest offset, or 0 if none is positive."""
    return max([0, *offsets])


def prefix_shift_codim(r: int, m: int, n: int) -> int:
    """Closed form of ``codim_n(U_m)`` for ``prefix-shift[r]``."""
    if m == 0:
        return 0
    return max(0, min(m + n - 1, r + 1) - m)


def _check_shape(report: dict, problems: list[str]) -> list[dict]:
    members = report.get("per_u", [])
    if [u["m"] for u in members] != list(range(M_MAX + 1)):
        problems.append(f"chain members {[u['m'] for u in members]} != 0..{M_MAX}")
        return []
    for u in members:
        if len(u["codims"]) != N_MAX:
            problems.append(f"m={u['m']}: {len(u['codims'])} codims, expected {N_MAX}")
            return []
    return members


def _check_exit(code: int, resolved: bool, problems: list[str]) -> None:
    want = 0 if resolved else 2
    if code != want:
        problems.append(f"exit code {code}, expected {want}")


def _check_value(report: dict, want: int, problems: list[str]) -> bool:
    resolved = bool(report["resolved"])
    if resolved != (report["value"] is not None):
        problems.append(f"resolved={resolved} but value={report['value']}")
    elif resolved and report["value"] != want:
        problems.append(f"{WRONG_VALUE} {report['value']}, reference {want}")
    return resolved


def check_compute(report: dict, code: int, h: int) -> Verdict:
    """A ``compute`` report on a stencil flow of entropy h."""
    problems: list[str] = []
    for u in _check_shape(report, problems):
        c = u["codims"]
        diffs = [b - a for a, b in zip(c, c[1:])]
        if c[0] != 0:
            problems.append(f"m={u['m']}: codim_1 = {c[0]}, but C_1 = U gives 0")
        if any(d < 0 for d in diffs):
            problems.append(f"m={u['m']}: trace decreases")
        if any(b > a for a, b in zip(diffs, diffs[1:])):
            problems.append(f"m={u['m']}: a first difference increases")
    resolved = _check_value(report, h, problems)
    _check_exit(code, resolved, problems)
    return Verdict(resolved and not problems, problems)


def check_prefix_shift(report: dict, code: int, r: int) -> Verdict:
    """A ``compute`` report on ``prefix-shift[r]``, cell by cell."""
    problems: list[str] = []
    for u in _check_shape(report, problems):
        m = u["m"]
        for n, c in enumerate(u["codims"], start=1):
            want = prefix_shift_codim(r, m, n)
            if c != want:
                problems.append(f"codim_{n}(U_{m}) = {c}, reference {want}")
                break
    resolved = _check_value(report, 0, problems)
    _check_exit(code, resolved, problems)
    return Verdict(resolved and not problems, problems)


def check_verify(report: dict, code: int, h: int, degree: int, depth: int) -> Verdict:
    """A ``verify`` report for a flow of entropy h over the middle field K
    of a tower F <= K <= L with [K:F] = degree, identities up to ``depth``.

    Restriction multiplies entropy by the degree and extension keeps it,
    so the references are ``ent_K = h``, ``ent_F = degree*h``, ``ent_L = h``.
    The verdict is PASS exactly when all three resolve, else INCONCLUSIVE.
    """
    problems: list[str] = []
    if report.get("degree_FK") != degree:
        problems.append(f"degree_FK {report.get('degree_FK')}, expected {degree}")
    ids = report.get("identities", {})
    if sorted(ids, key=int) != [str(n) for n in range(1, depth + 1)]:
        problems.append(f"identities cover {sorted(ids, key=int)}, expected 1..{depth}")
    bad = [n for n, ok in ids.items() if ok is not True]
    if bad:
        problems.append(f"identities fail at n = {', '.join(sorted(bad, key=int))}")
    resolved = [
        _check_value(report[key], want, problems)
        for key, want in (("ent_K", h), ("ent_F", degree * h), ("ent_L", h))
    ]
    passed = all(resolved)
    want_verdict = "PASS" if passed else "INCONCLUSIVE"
    if report.get("verdict") != want_verdict:
        problems.append(f"verdict {report.get('verdict')}, expected {want_verdict}")
    _check_exit(code, passed, problems)
    return Verdict(passed and not problems, problems)
