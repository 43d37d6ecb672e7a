"""Exact topological entropy of linear flows on products of finite fields.

The package models spaces that split into a finite-dimensional discrete
part and a countable product of copies of a finite field, together with
row-finite continuous endomorphisms.  It computes entropy from exact
cotrajectory codimension traces, and implements restriction and extension
of scalars along finite field extensions, for which entropy scales by the
degree and is preserved, respectively.  Cotrajectories are handled through
the ranks of their constraint rows (``entropy.cotrajectory_run``), and
verify's identities through ranks of the rows' images; ``Subspace``,
``res_subspace`` and ``ind_subspace`` are the reference tests check them by.
"""

from .entropy import (
    CodimTrace,
    EngineConfig,
    EntropyEstimate,
    HStarResult,
    brute_force_codim,
    chain_traces,
    codim_sequence,
    ent_star,
    entropy_report,
)
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    FlowentError,
    Mismatch,
    NotInvertible,
    NotPrime,
    NotSubspace,
    Reducible,
    TooLarge,
    WindowTooSmall,
)
from .fields import (
    FieldEmbedding,
    FiniteField,
    Tower,
    compose,
    field_from_descriptor,
    identity_embedding,
    least_irreducible,
    make_extension,
    make_prime_field,
    tower_from_descriptor,
)
from .functors import (
    TheoremReport,
    adjunction_dim_check,
    ind_flow,
    ind_good,
    ind_subspace,
    make_entropy_n,
    res_flow,
    res_good,
    res_subspace,
    verify_theorem,
)
from .linalg import (
    Matrix,
    Subspace,
    block_expand,
    entry_embed,
    inverse,
    kernel,
    kronecker,
    rank,
    rref,
)
from .model import (
    EndoSpec,
    Flow,
    GoodSubspace,
    SpaceShape,
    compose_flow,
    conjugate_flow,
    default_window,
    direct_sum,
    flow_from_dict,
    flow_to_dict,
    good_direct_sum,
    guarantee_window,
    load_flow,
    make_bernoulli,
    make_identity,
    power_flow,
    random_stencil_flow,
    save_flow,
    truncate,
)

__version__ = "0.1.0"
