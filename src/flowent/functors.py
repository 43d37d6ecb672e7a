"""Change of scalars for spaces, good subspaces, and flows.

Restriction along an embedding F -> K re-blocks each compact K-coordinate
into [K:F] coordinates over F and replaces every matrix entry with its
multiplication matrix; induction along K -> L keeps the coordinate layout
and pushes entries through the embedding.  Entropy scales by the degree
under restriction and is unchanged under induction; ``verify_theorem``
checks both formulas together with the per-depth identities that drive
them, on each side from the same constraint rows: one block stream per
field, K, F and L, gives both the identities and the three estimates
(``_identity_checks``).  The identities are decided by ranks:
restriction and induction of a cotrajectory, the kernel of its
constraint rows R, are the kernels of ``block_expand`` and
``entry_embed`` of R, for every R, and two kernels are equal exactly when
their row spaces are, which the rank trackers decide.  ``res_subspace``
and ``ind_subspace`` map a cotrajectory itself; they are the tests'
reference for those checks, and no command calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entropy import (
    DEFAULT_CONFIG,
    EngineConfig,
    EntropyEstimate,
    _chain_codims,
    _chain_estimate,
    _chain_run,
    _check_tracker_cap,
    _flag_stack,
    _mapped_rows,
)
from .errors import DimensionMismatch, FieldMismatch
from .fields import FieldEmbedding, FiniteField, least_irreducible, make_extension
from .linalg import Matrix, Subspace, block_expand, entry_embed, rank
from .model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
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
    # block j of block_expand's row (v, s) is row s of rep(v_j); here row (v, t) takes its column t
    rows = block_expand(s.basis, e).data.reshape(s.dim, deg, s.ambient, deg).transpose(0, 3, 2, 1)
    return Subspace.from_rows(e.source, rows.reshape(s.dim * deg, s.ambient * deg))


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


def _identity_checks(
    e_fk: FieldEmbedding, e_kl: FieldEmbedding, flow: Flow, flow_f: Flow, flow_l: Flow, identity_n: int,
    cfg: EngineConfig,
) -> tuple[dict[tuple[int, int], tuple[bool, bool, bool, bool]], list[EntropyEstimate]]:
    """Per-depth identities for each chain member m in ``_IDENTITY_MS``
    and depth n <= ``identity_n``, and the entropy estimates of K, F and L,
    all from one ``_chain_run`` per field.  The identities:
    restriction scales the codimension by the degree and commutes with the
    cotrajectory; induction commutes with the cotrajectory and keeps its
    codimension.  Returns ``{(m, n): (res_codim, res, ind, ind_codim)}``,
    in order of n, then m, and the estimates of K, F and L.

    The runs are ``entropy._chain_run``'s, at least to member 2 on K and
    L and to member ``2 * deg`` on F, as U_m restricts to F's member ``deg
    * m``, to depth ``max(n_max, identity_n)``.  The first
    ``identity_n`` blocks feed the identity checks; the ranks of members
    0..m_max over the first ``n_max`` steps give ``ent_star``'s traces:

    - a row of level <= l never meets a holder of a higher level except
      to displace it, so the holders and placed values of levels <= l,
      hence the ranks and carried rows of members 0..l, do not depend on
      the higher members' rows;
    - carried rows are valid for every count of the stream
      (``entropy._constraint_blocks``), so F's coarse levels ``deg * m``
      may be read from its fine chain levels;
    - ranks do not depend on the window once it is certified.

    Past step ``n_max`` only the identity checks read the runs, and only
    members 0..2, so each run carries on only those members' rows: K's
    and L's first ``d + 2``, F's first ``deg * (d + 2)``.  By the first
    point their ranks and blocks stay as they were; the ranks of the
    higher members are not valid past ``n_max``, and nothing reads them.

    The checks.  The n-step cotrajectory of U_m is the kernel of its
    constraint rows R, the first ``c_m = d + m`` rows (d the discrete
    dimension) of steps 1..n; the runs give every depth's carried block
    and the ranks r_K, r_F and r_L of R.  Each side has two flag trackers,
    over F (res) or L (ind), whatever the members: ``images`` and
    ``both``.  At each depth K's rows of the top member, the first
    c = c_M, M = ``_IDENTITY_MS[-1]``, are mapped by ``block_expand``
    (res) or ``entry_embed`` (ind): u rows per row, u = deg (res) or 1
    (ind), so the images of member m's rows are the first ``u * c_m``.
    ``images`` takes them as chain levels, rows below ``u * c_m`` at level
    <= m; ``both`` takes them interleaved with the first ``u * c`` rows of
    F's or L's block in the levels E_0 < R_0 < E_1 < R_1 < ...: level 2m
    holds the images of rows ``c_(m-1)..c_m`` (``c_(-1) = 0``), level
    2m+1 the other side's rows ``u * c_(m-1)..u * c_m``.
    ``expand_digits`` and ``embed_digits`` map K's digit rows to F's and
    L's digit rows directly, so no block becomes codes on the way.  The
    blocks are packed rows in every characteristic, in the same lanes for
    K, F and L: ``entropy._mapped_rows`` unpacks K's rows up to depth
    ``identity_n`` once a depth and packs their images once a side, and
    F's and L's rows go to the trackers as they are.

    - Let E_m be the span of the images of member m's rows so far and R_m
      that of the other side's member ``u * m``'s rows so far.  A member's
      rows are a prefix of every higher member's, so E_j <= E_m and
      R_j <= R_m for j <= m.  ``images.ranks[m]`` is the rank of E_m, and
      ``both.ranks[2m+1]`` that of ``E_m + R_m``: the rows of level
      <= 2m+1 are, at every depth, the images of rows ``0..c_m`` and the
      other side's rows ``0..u * c_m``, the union of the levels' ranges.
    - ``res(ker R) = ker(block_expand R)``, as ``block_expand`` realizes
      the same map on re-blocked coordinates, and ``ind(ker R) =
      ker(entry_embed R)``, as the embedded kernel basis lies in the right
      side and ``entry_embed`` keeps rank.  Both hold for every constraint
      matrix R, so the image of R's kernel depends only on R's row space,
      and so does the row space of the image of R, which annihilates it.
    - A carried stream's rows of each member span, up to every depth, what
      its raw rows span.  So E_m spans the row space of the image of the
      raw R_K, and each rank is that of the raw rows.
    - Two kernels are equal exactly when the row spaces are, and two
      spaces A, B are equal exactly when ``rank A = rank(A + B) = rank
      B``.  So ``res(C_K) = C_F`` iff ``rank E_m = rank(E_m + R_m) =
      r_F``, and ``ind(C_K) = C_L`` iff the same holds over L.  The rank
      of E_m comes from its own tracker, not from ``deg * r_K``, so a map
      that loses rank fails the cell.
    - The codimension of C_n in U is the rank of R less the dead
      coordinates, so the codimension identities compare ranks:
      ``r_F == deg * r_K`` and ``r_L == r_K``.

    Every cell, a failing one included, is decided exactly.  Every cap is
    checked before any block is built: each run's blocks by
    ``_chain_run``, and the ``both`` trackers, which take twice the
    top member's rows of their field and more than ``images`` does, by
    ``_check_tracker_cap``.
    """
    deg, top, depth = e_fk.degree, _IDENTITY_MS[-1], max(cfg.n_max, identity_n)
    flows, counts = (flow, flow_f, flow_l), [flow.discrete_dim + m for m in _IDENTITY_MS]
    tops = (top, deg * top, top)
    windows, runs = zip(*(_chain_run(f, t, depth, cfg, f.discrete_dim + t) for f, t in zip(flows, tops)))
    dim_k, dim_f, dim_l = (f.discrete_dim + w for f, w in zip(flows, windows))
    _check_tracker_cap(flow_f.field, 2 * deg * counts[-1], identity_n, max(deg * dim_k, dim_f))
    _check_tracker_cap(flow_l.field, 2 * counts[-1], identity_n, max(dim_k, dim_l))
    adds = list(zip([0, *counts], counts))  # the rows c_(m-1)..c_m that member m adds
    sides = []
    for u, field in ((deg, flow_f.field), (1, flow_l.field)):
        levels = [u * end for lo, hi in adds for end in (lo + hi, 2 * hi)]  # E_0 < R_0 < E_1 < R_1 < ...
        sides.append((u, _flag_stack(field, [u * c for c in counts]), _flag_stack(field, levels)))
    cells, ranks, maps = {}, ([], [], []), (e_fk.expand_digits, e_kl.embed_digits)
    for n, steps in enumerate(zip(*runs), start=1):
        (block_k, r_k), (block_f, r_f), (block_l, r_l) = steps
        if n <= identity_n:
            mapped = _mapped_rows(flow.field, block_k[: counts[-1]], maps)
            same = []
            for (u, images, both), image, rows, r in zip(sides, mapped, (block_f, block_l), (r_f[::deg], r_l)):
                images.insert(image)
                both.insert([row for lo, hi in adds for part in (image, rows) for row in part[u * lo : u * hi]])
                low, high = images.ranks, both.ranks
                same.append([low[i] == high[2 * i + 1] == r[m] for i, m in enumerate(_IDENTITY_MS)])
            for m, res, ind in zip(_IDENTITY_MS, *same):
                cells[m, n] = (r_f[deg * m] == deg * r_k[m], res, ind, r_l[m] == r_k[m])
        for history, (_, r) in zip(ranks, steps) if n <= cfg.n_max else ():
            history.append(r)
    estimates = [
        _chain_estimate(_chain_codims(history, f.discrete_dim, cfg.m_max, w), f.field.q, cfg)
        for history, f, w in zip(ranks, flows, windows)
    ]
    return cells, estimates


def verify_theorem(
    e_fk: FieldEmbedding, e_kl: FieldEmbedding, flow: Flow, cfg: EngineConfig = DEFAULT_CONFIG,
    identity_n_max: int = 8,
) -> TheoremReport:
    """Check the entropy change-of-fields formulas on one flow.

    Restriction multiplies entropy by [K:F]; induction preserves it.  The
    verdict is PASS only when every estimate resolves and both formulas and
    all per-depth identities hold; unresolved estimates give INCONCLUSIVE,
    never a false pass.  A FAIL names what broke in ``first_failure``: the
    first failing identity cell, in order of depth n, then of the member,
    then of the check, or, when every identity holds, the restriction
    formula, else the induction formula.
    An ``identity_n_max`` below 1 would check no identity and could pass
    on the formulas alone, so it raises ValueError.
    """
    if flow.field != e_fk.target or flow.field != e_kl.source:
        raise FieldMismatch("flow field must be the middle of the tower")
    if identity_n_max < 1:
        raise ValueError(f"identity depth {identity_n_max} checks no identity; it must be at least 1")
    flow_f, flow_l = res_flow(e_fk, flow), ind_flow(e_kl, flow)
    cells, (ent_k, ent_f, ent_l) = _identity_checks(e_fk, e_kl, flow, flow_f, flow_l, identity_n_max, cfg)
    identities = {n: all(all(cells[m, n]) for m in _IDENTITY_MS) for n in range(1, identity_n_max + 1)}
    failures = (
        {"check": check, "m": m, "n": n}
        for (m, n), cell in cells.items()
        for check, ok in zip(_IDENTITY_CHECKS, cell)
        if not ok
    )
    first_failure = next(failures, None)
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

    tower = (e_fk.source.descriptor, flow.field.descriptor, e_kl.target.descriptor)
    return TheoremReport(flow.label, tower, e_fk.degree, ent_f, ent_k, ent_l, identities, verdict, first_failure)
