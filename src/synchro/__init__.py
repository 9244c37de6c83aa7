"""Synchrony analysis for weighted multi-edge coupled cell networks.

Networks carry monoid-valued in-adjacency matrices; colorings of the cells
are balanced when same-colored cells receive equal per-color weight sums.
This package decides balance, refines any seed coloring to the coarsest
balanced one below it, builds quotient networks, enumerates the lattice of
balanced colorings, and verifies the synchrony-invariance story by
simulating admissible dynamics.

The balance, refinement, quotient and lattice analyses are exact monoid
algebra and need no numpy. So the dynamics layer, the one module that
imports numpy, loads on first use: its names (``simulate_map``,
``quotient_match``, ``Coupling`` ...) and ``synchro.dynamics`` itself
resolve through the module ``__getattr__`` below to the very objects of
``synchro.dynamics``, and ``import synchro`` stays free of numpy.
"""
from importlib import import_module as _import_module

from .balance import (
    BalanceResult,
    QuotientResult,
    RowSignature,
    is_balanced,
    quotient,
    row_signature,
)
from .cir import CirTrace, cir, cir_iteration, kernel_name, top
from .errors import (
    DimensionMismatch,
    MonoidMismatch,
    NotBalancedError,
    PartitionError,
    SchemaError,
    SimulationDiverged,
    SizeLimitError,
    SynchroError,
    WitnessError,
)
from .lattice import (
    BalancedLattice,
    enumerate_balanced,
    join,
    lattice_dot,
    lattice_json,
    meet,
)
from .monoid import (
    ANNIHILATOR,
    SHORT,
    FreeCommutative,
    MonoidRegistry,
    MonoidSpec,
    NaturalAdd,
    NaturalMul,
    ProductMonoid,
    ResistorParallel,
    WithAnnihilator,
)
from .network import (
    Network,
    network_from_json,
    network_to_json,
    parse_network,
    serialize_network,
    to_dot,
)
from .partition import (
    Partition,
    PolyPoint,
    common_refinement,
    compose,
    format_partition,
    is_finer,
    lift,
    parse_partition,
    project,
    quotient_partition,
)

__version__ = "0.1.0"

_DYNAMICS = frozenset({
    "Coupling",
    "GFunc",
    "IndicatorOracle",
    "Oracle",
    "OracleSpec",
    "Trajectory",
    "admissible_eval",
    "coupling_oracle",
    "linear_oracle",
    "quotient_match",
    "simulate_map",
    "simulate_ode",
    "trajectory_csv",
    "unbalance_witness",
})

__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_DYNAMICS,
                  "dynamics"})


def __getattr__(name: str):
    if name == "dynamics" or name in _DYNAMICS:
        dynamics = _import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_DYNAMICS, "dynamics"})
