"""Command-line driver: compute entropy, verify the change-of-fields
formulas, generate canonical example flows, and cross-check the oracle.

Exit codes: 0 ok, 1 input or usage error, 2 inconclusive/unresolved,
3 violation.
Reports are deterministic: identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .entropy import (
    DEFAULT_CONFIG,
    EngineConfig,
    brute_force_codim,
    chain_traces,
    ent_star,
    entropy_report,
    field_label,
    report_csv_rows,
)
from .errors import FlowentError
from .fields import (
    FiniteField,
    check_order,
    least_irreducible,
    make_extension,
    make_prime_field,
    modulus_codes,
    tower_from_descriptor,
)
from .functors import make_entropy_n, verify_theorem
from .model import (
    SpaceShape,
    direct_sum,
    flow_to_dict,
    guarantee_window,
    json_text,
    load_flow,
    make_bernoulli,
    make_identity,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_VIOLATION = 3


def _config_from_args(args) -> EngineConfig:
    return EngineConfig(
        n_max=args.max_n,
        streak=args.streak,
        m_max=args.max_m,
        window_slack=args.window_slack,
    )


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    cfg = DEFAULT_CONFIG
    p.add_argument("--max-n", type=int, default=cfg.n_max, help="trace depth (default %(default)s)")
    p.add_argument("--max-m", type=int, default=cfg.m_max, help="chain length (default %(default)s)")
    p.add_argument("--streak", type=int, default=cfg.streak, help="stabilization streak (default %(default)s)")
    p.add_argument("--window-slack", type=int, default=cfg.window_slack, help="window slack (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_field(text: str) -> FiniteField:
    """A field flag: a prime power (auto modulus) or a JSON descriptor."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"field {text!r} is neither an integer nor JSON") from exc
    if isinstance(spec, dict):
        return tower_from_descriptor(spec).top
    if isinstance(spec, int) and spec >= 2:
        check_order(spec, f"GF({spec})")
        q = spec
        p = next(f for f in range(2, q + 1) if q % f == 0)
        d = 0
        while q % p == 0:
            q //= p
            d += 1
        if q != 1:
            raise ValueError(f"{spec} is not a prime power")
        base = make_prime_field(p)
        if d == 1:
            return base
        return make_extension(base, least_irreducible(base, d))[0]
    raise ValueError("field must be a prime power or a descriptor object")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    flow = load_flow(args.spec)
    cfg = _config_from_args(args)
    estimate = ent_star(flow, cfg)
    if args.format == "json":
        payload = entropy_report(flow, estimate, cfg)
        payload["seed"] = args.seed
        _emit(json_text(payload), args.out)
    else:
        rows = report_csv_rows(flow, estimate)
        _emit(_csv_text(["flow", "field", "m", "n", "codim", "window"], rows), args.out)
    return EXIT_OK if estimate.resolved else EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    flow = load_flow(args.spec)
    descriptor = flow.field.descriptor
    tower = tower_from_descriptor(descriptor)
    depth = args.base_depth
    if not 0 <= depth < len(tower.fields):
        raise ValueError(f"--base-depth {depth} is outside the field's tower")
    e_fk = tower.embedding(depth, len(tower.fields) - 1)
    if args.ext_modulus is not None:
        codes = modulus_codes(flow.field, json.loads(args.ext_modulus))
    else:
        codes = list(least_irreducible(flow.field, args.ext_degree))
    # L's tower is K's extended by one step, so it shares K's fields
    descriptor["tower"].append([list(flow.field.coords(c)) for c in codes])
    e_kl = tower_from_descriptor(descriptor).steps[-1]
    cfg = _config_from_args(args)
    report = verify_theorem(e_fk, e_kl, flow, cfg, identity_n_max=args.identity_n)
    _emit(json_text(report.to_dict()), args.out)
    if report.verdict == "PASS":
        return EXIT_OK
    if report.verdict == "INCONCLUSIVE":
        return EXIT_INCONCLUSIVE
    return EXIT_VIOLATION


def cmd_example(args) -> int:
    field = _parse_field(args.field)
    if args.name == "bernoulli":
        flow = make_bernoulli(field, args.dim)
    elif args.name == "identity":
        flow = make_identity(SpaceShape(field, args.discrete))
    elif args.name == "entropy-n":
        flow = make_entropy_n(field, args.n)
    elif args.name == "direct-sum":
        dims = [int(v) for v in args.dims.split(",")]
        if len(dims) < 2:
            raise ValueError("--dims needs at least two comma-separated block sizes")
        flow = make_bernoulli(field, dims[0])
        for k in dims[1:]:
            flow = direct_sum(flow, make_bernoulli(field, k))
    else:
        raise ValueError(
            f"unknown example {args.name!r}; "
            "names: bernoulli, identity, entropy-n, direct-sum"
        )
    _emit(json_text(flow_to_dict(flow)), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Cross-check the codimensions ``compute`` reports, one ``chain_traces``
    run for members 0..--max-m, against ``brute_force_codim``."""
    if args.max_n < 1 or args.max_m < 0:
        raise ValueError(f"oracle needs --max-n >= 1 and --max-m >= 0, got {args.max_n} and {args.max_m}")
    if args.window is not None and args.window < 0:
        raise ValueError(f"oracle needs --window >= 0, got {args.window}")
    flow = load_flow(args.spec)
    rows = []
    for m, trace in enumerate(chain_traces(flow, args.max_n, EngineConfig(m_max=args.max_m))):
        for n, structured in enumerate(trace.values, start=1):
            window = guarantee_window(flow, trace.u.extent, n)
            if args.window is not None:
                window = max(window, args.window)
            enumerated = brute_force_codim(flow, trace.u, n, window)
            rows.append([flow.label, field_label(flow.field), m, n, structured, enumerated, window])
    all_equal = all(structured == enumerated for *_, structured, enumerated, _ in rows)
    if args.format == "json":
        payload = {
            "flow": flow.label,
            "field": flow.field.descriptor,
            "comparisons": len(rows),
            "all_equal": all_equal,
            "cells": [
                {"m": m, "n": n, "structured": s, "enumerated": e, "window": w}
                for _, _, m, n, s, e, w in rows
            ],
            "seed": args.seed,
        }
        _emit(json_text(payload), args.out)
    else:
        _emit(
            _csv_text(
                ["flow", "field", "m", "n", "structured", "enumerated", "window"], rows
            ),
            args.out,
        )
    return EXIT_OK if all_equal else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, the input-error code; argparse
    would exit 2, the code of an inconclusive verdict.  Subparsers are
    built from the parser's own class, so they exit 1 too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The driver's parser, built once per process: parsing leaves it as
    it was, so in-process callers of ``main`` share it.  Every caller gets
    the same object, so none may change it."""
    parser = _Parser(
        prog="flowent",
        description="Exact entropy of linear flows on products of finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="entropy of a flow-spec file")
    p.add_argument("spec", help="flow-spec JSON path")
    _add_engine_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check the change-of-fields formulas")
    p.add_argument("spec", help="flow-spec JSON path")
    p.add_argument(
        "--base-depth",
        type=int,
        default=0,
        help="tower level of the small field F; 0 is the prime field",
    )
    p.add_argument(
        "--ext-degree",
        type=int,
        default=2,
        help="degree of the auto-chosen extension L of the flow field",
    )
    p.add_argument(
        "--ext-modulus",
        default=None,
        help="JSON coefficient list for L over the flow field (overrides --ext-degree)",
    )
    p.add_argument("--identity-n", type=int, default=8, help="depth of per-n identity checks")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="write a canonical flow-spec file")
    p.add_argument("name", help="bernoulli | identity | entropy-n | direct-sum")
    p.add_argument("--field", default="2", help="prime power or JSON field descriptor")
    p.add_argument("--dim", type=int, default=1, help="bernoulli block dimension")
    p.add_argument("--discrete", type=int, default=0, help="identity discrete dimension")
    p.add_argument("--n", type=int, default=2, help="entropy target for entropy-n")
    p.add_argument("--dims", default="1,1", help="comma-separated block sizes for direct-sum")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("oracle", help="structured vs enumerated codimensions (GF(2))")
    p.add_argument("spec", help="flow-spec JSON path")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--window", type=int, default=None, help="lower bound on oracle windows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  An input error anywhere in it, writing the
    report included, prints one ``error:`` line and exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlowentError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
