"""Change of scalars for spaces, good subspaces, and flows.

Restriction along an embedding F -> K re-blocks each compact K-coordinate
into [K:F] coordinates over F and replaces every matrix entry with its
multiplication matrix; induction along K -> L keeps the coordinate layout
and pushes entries through the embedding.  Entropy scales by the degree
under restriction and is unchanged under induction; ``verify_theorem``
checks both formulas together with the per-depth identities that drive
them.  The identities are checked on constraint forms, dual to the
cotrajectories: restriction and induction of a cotrajectory are the
kernels of ``block_expand`` and ``entry_embed`` of its reduced
row-echelon constraint form, and both maps keep that form reduced.
``res_subspace`` and ``ind_subspace`` map a cotrajectory itself; they are
the tests' reference for those checks, and no command calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entropy import (
    DEFAULT_CONFIG,
    EngineConfig,
    EntropyEstimate,
    cotrajectory_run,
    ent_star,
)
from .errors import DimensionMismatch, FieldMismatch
from .fields import FieldEmbedding, FiniteField, least_irreducible, make_extension
from .linalg import Matrix, Subspace, block_expand, entry_embed, rank
from .model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    default_window,
    make_bernoulli,
)

__all__ = [
    "res_flow",
    "res_good",
    "res_subspace",
    "ind_flow",
    "ind_good",
    "ind_subspace",
    "adjunction_dim_check",
    "make_entropy_n",
    "verify_theorem",
    "TheoremReport",
]


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def res_flow(e: FieldEmbedding, flow: Flow) -> Flow:
    """View a flow over e.target as a flow over e.source.

    Compact coordinate i becomes the block [deg*i, deg*i + deg); stencil
    coefficients become their multiplication matrices spread across the
    block, so the result's stencil cycles through deg times more phases.
    """
    if flow.field != e.target:
        raise FieldMismatch("flow is not over the embedding's target field")
    deg = e.degree
    endo = flow.endo

    stencil: list[dict[int, int]] = []
    for rho in range(endo.period):
        reps = {k: e.rep(c) for k, c in endo.phase(rho)}
        for s in range(deg):
            phase: dict[int, int] = {}
            for k, rep in reps.items():
                for t in range(deg):
                    c = int(rep[s, t])
                    if c:
                        phase[deg * k + t - s] = c
            stencil.append(phase)

    endo_f = EndoSpec(
        e.source,
        stencil,
        prefix=block_expand(endo.prefix, e),
        dd=block_expand(endo.dd, e),
        cd=block_expand(endo.cd, e),
        dc=block_expand(endo.dc, e),
    )
    shape = SpaceShape(e.source, deg * flow.discrete_dim)
    return Flow(shape, endo_f, label=f"res[{e.source!r}]({flow.label})")


def res_good(e: FieldEmbedding, u: GoodSubspace) -> GoodSubspace:
    """Zero set of the restricted subspace: every coordinate inside a
    zeroed block is zeroed."""
    deg = e.degree
    return GoodSubspace(frozenset(deg * i + t for i in u.zero_set for t in range(deg)))


def res_subspace(e: FieldEmbedding, s: Subspace) -> Subspace:
    """The same point set in re-blocked source-field coordinates.

    For each basis vector v and each basis slot t the image contains the
    vector whose block j holds the source coordinates of v_j * basis[t];
    spanning over t gives exactly {coords of alpha * v : alpha in K}.
    """
    if s.field != e.target:
        raise FieldMismatch("subspace is not over the embedding's target field")
    deg = e.degree
    reps = e.rep_table()[s.basis.data]  # (dim, ambient, deg_s, deg_t)
    rows = reps.transpose(0, 3, 1, 2).reshape(s.dim * deg, s.ambient * deg)
    return Subspace.from_rows(e.source, rows)


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------


def ind_flow(e: FieldEmbedding, flow: Flow) -> Flow:
    """Extend scalars along e; the coordinate layout is unchanged."""
    if flow.field != e.source:
        raise FieldMismatch("flow is not over the embedding's source field")
    endo = flow.endo
    stencil = [
        {k: e.apply(c) for k, c in endo.phase(rho)} for rho in range(endo.period)
    ]

    endo_l = EndoSpec(
        e.target,
        stencil,
        prefix=entry_embed(endo.prefix, e),
        dd=entry_embed(endo.dd, e),
        cd=entry_embed(endo.cd, e),
        dc=entry_embed(endo.dc, e),
    )
    shape = SpaceShape(e.target, flow.discrete_dim)
    return Flow(shape, endo_l, label=f"ind[{e.target!r}]({flow.label})")


def ind_good(e: FieldEmbedding, u: GoodSubspace) -> GoodSubspace:
    return GoodSubspace(u.zero_set)


def ind_subspace(e: FieldEmbedding, s: Subspace) -> Subspace:
    """Same basis with embedded entries; echelon structure is preserved."""
    if s.field != e.source:
        raise FieldMismatch("subspace is not over the embedding's source field")
    return Subspace.from_rows(e.target, entry_embed(s.basis, e))


# ---------------------------------------------------------------------------
# the adjunction count
# ---------------------------------------------------------------------------


def adjunction_dim_check(e: FieldEmbedding, a: int, b: int) -> bool:
    """Dimension count of the hom-space adjunction for finite levels.

    Maps out of the induced a-dimensional space into a b-dimensional space
    over the big field form an (a*b)-dimensional space over L; maps into
    the restricted space form an (a * [L:K] * b)-dimensional space over K.
    They agree after normalizing by the degree.
    """
    if a < 0 or b < 0:
        raise DimensionMismatch("dimensions must be non-negative")
    deg = e.degree
    dim_ind = rank(entry_embed(Matrix.eye(e.source, a), e))
    dim_res = rank(block_expand(Matrix.eye(e.target, b), e))
    hom_l = dim_ind * b
    hom_k = a * dim_res
    return hom_l * deg == hom_k and dim_ind == a and dim_res == deg * b


# ---------------------------------------------------------------------------
# entropy-n generator
# ---------------------------------------------------------------------------


def make_entropy_n(field: FiniteField, n: int) -> Flow:
    """A flow over ``field`` with entropy exactly n: restrict the shift on a
    degree-n extension back down, giving the n-dimensional block shift."""
    if n < 1:
        raise ValueError("entropy target must be a positive integer")
    if n == 1:
        return make_bernoulli(field, 1)
    ext, emb = make_extension(field, least_irreducible(field, n))
    flow = res_flow(emb, make_bernoulli(ext, 1))
    return Flow(flow.shape, flow.endo, label=f"entropy-{n}")


# ---------------------------------------------------------------------------
# the change-of-fields theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking the change-of-fields entropy formulas."""

    flow_label: str
    tower: tuple[dict, dict, dict]
    degree_fk: int
    ent_f: EntropyEstimate
    ent_k: EntropyEstimate
    ent_l: EntropyEstimate
    identities: dict[int, bool]
    verdict: str
    first_failure: dict | None = None

    def to_dict(self) -> dict:
        def ent(v: EntropyEstimate):
            return {
                "value": v.value,
                "resolved": v.resolved,
                "lower_bound": [v.lower_bound.numerator, v.lower_bound.denominator],
            }

        out = {
            "flow": self.flow_label,
            "tower": list(self.tower),
            "degree_FK": self.degree_fk,
            "ent_F": ent(self.ent_f),
            "ent_K": ent(self.ent_k),
            "ent_L": ent(self.ent_l),
            "identities": {str(n): bool(ok) for n, ok in sorted(self.identities.items())},
            "verdict": self.verdict,
        }
        if self.first_failure is not None:
            out["first_failure"] = dict(self.first_failure)
        return out


# the four per-depth identities, in the order of ``_identity_checks``' cells
_IDENTITY_CHECKS = ("res_codim", "res", "ind", "ind_codim")
# the chain members U_m whose identities ``verify_theorem`` checks
_IDENTITY_MS = (0, 1, 2)


def _first_failure(
    cells: dict[tuple[int, int], tuple[bool, ...]], n_max: int, ms: tuple[int, ...]
) -> dict | None:
    """The first failing identity cell, in order of depth n, then of the
    chain members ``ms``, then of the checks; None when all hold."""
    for n in range(1, n_max + 1):
        for m in ms:
            for check, ok in zip(_IDENTITY_CHECKS, cells[m, n]):
                if not ok:
                    return {"check": check, "m": m, "n": n}
    return None


def _identity_checks(
    e_fk: FieldEmbedding,
    e_kl: FieldEmbedding,
    flow: Flow,
    flow_f: Flow,
    flow_l: Flow,
    n_max: int,
    ms: tuple[int, ...],
    slack: int,
) -> dict[tuple[int, int], tuple[bool, bool, bool, bool]]:
    """Per-depth identities for each chain member m in ``ms`` and depth n:
    restriction scales the codimension by the degree and commutes with the
    cotrajectory; induction commutes with the cotrajectory and keeps its
    codimension.  Returns ``{(m, n): (res_codim, res, ind, ind_codim)}``.

    Each cotrajectory is checked through its constraint form, the reduced
    row-echelon form R (without zero rows) whose kernel it is; forms R_K,
    R_F and R_L come from one ``cotrajectory_run`` stream each over K, F
    (members ``deg * m``, the restrictions of U_m) and L, at the window of
    the last member, and each depth is compared as it arrives.

    - ``res(ker R) = ker(block_expand R)``: ``block_expand`` realizes the
      same map on re-blocked coordinates.  ``ind(ker R) = ker(entry_embed
      R)``: the embedded kernel basis lies in the right side, and both have
      the same dimension because ``entry_embed`` keeps rank.
    - Both maps send a reduced row-echelon form to one: a pivot 1 becomes
      the identity block I_deg, or stays 1, and zeros stay zero, so the
      leading entries keep their staircase and each pivot column stays
      zero outside its pivot row.
    - Two subspaces are equal iff their annihilators are, and a row space
      has exactly one reduced row-echelon form.  So ``res(C_K) = C_F`` iff
      ``block_expand(R_K) == R_F``, and ``ind(C_K) = C_L`` iff
      ``entry_embed(R_K) == R_L``, entry for entry.
    - The codimension of C_n in U is the rank of R less the dead
      coordinates, so the codimension identities compare row counts.

    No row reduction runs beyond the ones that build the forms.
    """
    deg = e_fk.degree
    w_k = default_window(flow, GoodSubspace.principal(ms[-1]), n_max, slack)
    streams = zip(
        cotrajectory_run(flow, ms, n_max, w_k),
        cotrajectory_run(flow_f, [deg * m for m in ms], n_max, deg * w_k),
        cotrajectory_run(flow_l, ms, n_max, w_k),
    )
    out = {}
    for n, depth in enumerate(streams, start=1):
        for m, form_k, form_f, form_l in zip(ms, *depth):
            dead_k = flow.discrete_dim + m
            codim_k = form_k.rows - dead_k
            codim_f = form_f.rows - deg * dead_k
            codim_l = form_l.rows - dead_k
            out[m, n] = (
                codim_f == deg * codim_k,
                block_expand(form_k, e_fk) == form_f,
                entry_embed(form_k, e_kl) == form_l,
                codim_l == codim_k,
            )
    return out


def verify_theorem(
    e_fk: FieldEmbedding,
    e_kl: FieldEmbedding,
    flow: Flow,
    cfg: EngineConfig = DEFAULT_CONFIG,
    identity_n_max: int = 8,
) -> TheoremReport:
    """Check the entropy change-of-fields formulas on one flow.

    Restriction multiplies entropy by [K:F]; induction preserves it.  The
    verdict is PASS only when every estimate resolves and both formulas and
    all per-depth identities hold; unresolved estimates give INCONCLUSIVE,
    never a false pass.  A FAIL names what broke in ``first_failure``: the
    first failing identity cell (``_first_failure``) or, when every
    identity holds, the restriction formula, else the induction formula.
    An ``identity_n_max`` below 1 would check no identity and could pass
    on the formulas alone, so it raises ValueError.
    """
    if flow.field != e_fk.target or flow.field != e_kl.source:
        raise FieldMismatch("flow field must be the middle of the tower")
    if identity_n_max < 1:
        raise ValueError(f"identity depth {identity_n_max} checks no identity; it must be at least 1")
    flow_f = res_flow(e_fk, flow)
    flow_l = ind_flow(e_kl, flow)
    ent_k = ent_star(flow, cfg)
    ent_f = ent_star(flow_f, cfg)
    ent_l = ent_star(flow_l, cfg)
    cells = _identity_checks(
        e_fk, e_kl, flow, flow_f, flow_l, identity_n_max, _IDENTITY_MS, cfg.window_slack
    )
    identities = {
        n: all(all(cells[m, n]) for m in _IDENTITY_MS) for n in range(1, identity_n_max + 1)
    }

    first_failure = _first_failure(cells, identity_n_max, _IDENTITY_MS)
    formulas_known = ent_k.resolved and ent_f.resolved and ent_l.resolved
    if first_failure is not None:
        verdict = "FAIL"
    elif not formulas_known:
        verdict = "INCONCLUSIVE"
    elif ent_f.value != e_fk.degree * ent_k.value:
        verdict, first_failure = "FAIL", {"check": "restriction_formula"}
    elif ent_l.value != ent_k.value:
        verdict, first_failure = "FAIL", {"check": "induction_formula"}
    else:
        verdict = "PASS"

    return TheoremReport(
        flow_label=flow.label,
        tower=(e_fk.source.descriptor, flow.field.descriptor, e_kl.target.descriptor),
        degree_fk=e_fk.degree,
        ent_f=ent_f,
        ent_k=ent_k,
        ent_l=ent_l,
        identities=identities,
        verdict=verdict,
        first_failure=first_failure,
    )
