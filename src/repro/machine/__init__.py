"""The simulated CM/2: PEs, Weitek datapath, network, geometry, costs."""

from .cm2 import ArrayHome, Machine, MachineError, region_slices
from .costs import (
    MODEL_FACTORIES,
    CostModel,
    InstructionCosts,
    cm5_model,
    fieldwise_model,
    host_model,
    model_names,
    slicewise_model,
)
from .geometry import Geometry, coordinate_array, make_geometry
from .pe import (
    ExecutionError,
    SubgridStream,
    VectorExecutor,
    cycles_per_trip,
    flops_per_element,
)
from .plan import GLOBAL_POOL, BufferPool, RoutinePlan, get_plan
from .stats import RunStats
from .weitek import WeitekTimings, peak_gflops

__all__ = [name for name in dir() if not name.startswith("_")]
