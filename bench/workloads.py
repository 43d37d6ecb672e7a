"""The benchmark's workloads: which flows each one runs, with which command,
and the check each report must pass.

Every workload runs a fixed set of flows, so that every run does the same
work; ``--seed`` only fixes the order in which they run.  Flows of
different fields are interleaved evenly, so a drift in machine speed
falls on all fields alike.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

#: verify-sweep: the first sixteen flows of the acceptance sweep over GF(4)
#: (``random_stencil_flow(GF(4), seed)``), tower GF(2) <= GF(4) <= GF(16).
VERIFY_SEEDS = range(16)
VERIFY_DEPTH = 24
#: compute-odd: the first seeds of ``random_stencil_flow`` over each field.
ODD_SEEDS = {3: range(6), 9: range(2)}
#: wide-window: r from 8 to 80 in steps of 6.
PREFIX_SHIFT_R = range(8, 81, 6)
#: ``prefix-shift[r]`` resolves to 1 instead of 0 for every r >= 70 at the
#: default config: the streak rule fires while the trace still climbs out
#: of the prefix.  Those flows are kept and counted as failed.
PREFIX_SHIFT_FAULT_R = 70

WORKLOADS = ("verify-sweep", "compute-odd", "wide-window")


@dataclass
class Job:
    """One timed operation: a ``flowent`` command line and its check."""

    label: str
    argv: list[str]
    check: Callable[[dict, int], checks.Verdict]
    known_fault: bool = False


def stencil_offsets(spec: dict) -> list[int]:
    """Offsets carrying a nonzero coefficient in a one-phase flow spec's stencil."""
    return [int(k) for k, c in spec["stencil"].items() if any(c)]


def interleave(groups: list[list]) -> list:
    """Merge lists so that each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(g), gi, x) for gi, g in enumerate(groups) for i, x in enumerate(g)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


def _write(flow, path: Path) -> dict:
    """Save a flow spec file; return the spec as the engine will read it."""
    from flowent.model import save_flow

    save_flow(flow, path)
    return json.loads(path.read_text())


def _verify_jobs(workdir: Path, rng: random.Random) -> list[Job]:
    from flowent.fields import make_extension, make_prime_field
    from flowent.model import random_stencil_flow

    gf2 = make_prime_field(2)
    gf4, e24 = make_extension(gf2, (1, 1, 1))
    jobs = []
    for seed in VERIFY_SEEDS:
        path = workdir / f"verify-{seed}.json"
        h = checks.stencil_entropy(stencil_offsets(_write(random_stencil_flow(gf4, seed), path)))
        jobs.append(Job(
            f"verify random[{seed}] over GF(4)",
            ["verify", str(path), "--identity-n", str(VERIFY_DEPTH)],
            lambda rep, code, h=h, d=e24.degree: checks.check_verify(rep, code, h, d, VERIFY_DEPTH),
        ))
    rng.shuffle(jobs)
    return jobs


def _odd_jobs(workdir: Path, rng: random.Random) -> list[Job]:
    from flowent.fields import least_irreducible, make_extension, make_prime_field
    from flowent.model import random_stencil_flow

    gf3 = make_prime_field(3)
    fields = {3: gf3, 9: make_extension(gf3, least_irreducible(gf3, 2))[0]}
    groups = []
    for q, seeds in ODD_SEEDS.items():
        group = []
        for seed in seeds:
            path = workdir / f"odd-gf{q}-{seed}.json"
            h = checks.stencil_entropy(stencil_offsets(_write(random_stencil_flow(fields[q], seed), path)))
            group.append(Job(
                f"compute random[{seed}] over GF({q})",
                ["compute", str(path)],
                lambda rep, code, h=h: checks.check_compute(rep, code, h),
            ))
        rng.shuffle(group)
        groups.append(group)
    return interleave(groups)


def prefix_shift_flow(r: int):
    """Shift compact rows 0..r-1 one place (prefix r x (r+1)); identity beyond."""
    import numpy as np
    from flowent.fields import make_prime_field
    from flowent.linalg import Matrix
    from flowent.model import EndoSpec, Flow, SpaceShape

    gf2 = make_prime_field(2)
    prefix = np.zeros((r, r + 1), dtype=np.int64)
    prefix[np.arange(r), np.arange(r) + 1] = 1
    endo = EndoSpec(gf2, {0: 1}, prefix=Matrix(gf2, prefix))
    return Flow(SpaceShape(gf2, 0), endo, label=f"prefix-shift[{r}]")


def _wide_jobs(workdir: Path, rng: random.Random) -> list[Job]:
    from flowent.model import save_flow

    jobs = []
    for r in PREFIX_SHIFT_R:
        path = workdir / f"prefix-shift-{r}.json"
        save_flow(prefix_shift_flow(r), path)
        jobs.append(Job(
            f"compute prefix-shift[{r}]",
            ["compute", str(path)],
            lambda rep, code, r=r: checks.check_prefix_shift(rep, code, r),
            known_fault=r >= PREFIX_SHIFT_FAULT_R,
        ))
    rng.shuffle(jobs)
    return jobs


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's flow specs into ``workdir``; return its jobs in run order."""
    make = {"verify-sweep": _verify_jobs, "compute-odd": _odd_jobs, "wide-window": _wide_jobs}
    return make[workload](workdir, random.Random(seed))
