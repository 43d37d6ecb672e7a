"""Spans around the engine's public functions, and the per-layer metrics
computed from them.

``Tracer.install`` wraps each traced function under every name a flowent
module holds it by (``flowent.entropy.truncate`` as well as
``flowent.model.truncate``), so a call is recorded whichever module makes
it.  A span is ``[name, start, end, parent, flow, note]``; ``parent`` is
the index of the enclosing span (-1 at a root), ``flow`` the index of the
timed flow it belongs to (None during set-up) and ``note`` a number taken
from the call's arguments.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Self times over a tree add up to its root's duration, so the
self times of all layers add up to the traced flow time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

#: Fields whose ``ent_star`` time is reported on its own.
FIELD_ORDERS = (2, 4, 16, 3, 9)


def _madds(args, kwargs) -> int:
    """Multiply-adds of ``FiniteField.matmul_prepared(a, prepared, out_cols)``,
    from the shapes: one float product per digit-plane pair."""
    field, a, prepared = args[:3]
    out_cols = args[3] if len(args) > 3 else kwargs.get("out_cols")
    shape = prepared[0]
    cols = shape[1] if out_cols is None else min(out_cols, shape[1])
    rows, inner = a.shape
    return rows * inner * cols * field.d * field.d


# (module, attribute, span name, note taken from the arguments)
FUNCTIONS = (
    ("flowent.model", "load_flow", "model.load_flow", None),
    ("flowent.model", "truncate", "model.truncate", lambda a, k: a[1]),
    ("flowent.fields", "make_prime_field", "fields.build", None),
    ("flowent.fields", "make_extension", "fields.build", None),
    ("flowent.entropy", "ent_star", "entropy.ent_star", lambda a, k: a[0].field.q),
    ("flowent.entropy", "chain_traces", "entropy.chain_traces", None),
    ("flowent.entropy", "cotrajectory_run", "entropy.cotrajectory_run", None),
    ("flowent.linalg", "kernel", "linalg.kernel", None),
    ("flowent.functors", "res_flow", "functors.flow_map", None),
    ("flowent.functors", "ind_flow", "functors.flow_map", None),
    ("flowent.functors", "res_subspace", "functors.subspace_map", None),
    ("flowent.functors", "ind_subspace", "functors.subspace_map", None),
    ("flowent.functors", "verify_theorem", "functors.verify_theorem", None),
)
# (module, class, method, span name, note); from_rows is a classmethod
METHODS = (
    ("flowent.fields", "FiniteField", "prepare_right", "fields.prepare_right", None),
    ("flowent.fields", "FiniteField", "matmul_prepared", "fields.matmul_prepared", _madds),
    ("flowent.linalg", "Subspace", "from_rows", "linalg.from_rows", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.flow: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.flow,
                   note(args, kwargs) if note else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function in the loaded flowent modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "flowent" or n.startswith("flowent.")]
        for mod_name, attr, name, note in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for mod_name, cls_name, attr, name, note in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, note)))
            else:
                setattr(cls, attr, self.wrap(name, raw, note))


def layer_metrics(spans: list[list], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round of the workload, from a run's spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total: dict[str, float] = defaultdict(float)  # inclusive time per name
    own: dict[str, float] = defaultdict(float)  # self time per name
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, int] = defaultdict(int)
    ent_star: dict[int, float] = defaultdict(float)
    identity = 0.0  # verify_theorem minus its ent_star calls and flow maps
    setup_build = 0.0
    for i, (name, _, _, parent, flow, note) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        if flow is None:
            if name == "fields.build" and parent_name != name:
                setup_build += dur[i]
            continue
        if parent_name != name:
            total[name] += dur[i]
        own[name] += dur[i] - child[i]
        calls[name] += 1
        if note is not None:
            notes[name] += note
        if name == "entropy.ent_star":
            ent_star[note] += dur[i]
        if name == "functors.verify_theorem":
            identity += dur[i]
        elif parent_name == "functors.verify_theorem" and name in ("entropy.ent_star", "functors.flow_map"):
            identity -= dur[i]

    per_round = {
        "entropy.rank_s": (own["entropy.chain_traces"], "s"),
        **{f"entropy.ent_star_s.gf{q}": (ent_star[q], "s") for q in FIELD_ORDERS},
        "entropy.evaluate_s": (own["entropy.ent_star"], "s"),
        "entropy.cotrajectory_s": (own["entropy.cotrajectory_run"], "s"),
        "fields.matmul_s": (total["fields.matmul_prepared"], "s"),
        "fields.matmul_calls": (calls["fields.matmul_prepared"], "count"),
        "fields.matmul_madds": (notes["fields.matmul_prepared"], "count"),
        "fields.prepare_s": (total["fields.prepare_right"], "s"),
        "fields.build_s": (total["fields.build"], "s"),
        "model.truncate_s": (total["model.truncate"], "s"),
        "model.window_coords": (notes["model.truncate"], "count"),
        "model.load_s": (total["model.load_flow"], "s"),
        "linalg.kernel_s": (total["linalg.kernel"], "s"),
        "linalg.kernel_calls": (calls["linalg.kernel"], "count"),
        "linalg.canon_s": (own["linalg.from_rows"], "s"),
        "functors.flow_map_s": (total["functors.flow_map"], "s"),
        "functors.subspace_map_s": (own["functors.subspace_map"], "s"),
        "functors.identity_s": (identity, "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "trace.self_sum_s": (sum(own.values()), "s"),
    }
    out = {k: (v / rounds, unit) for k, (v, unit) in per_round.items()}
    out["fields.setup_build_s"] = (setup_build, "s")
    return out
