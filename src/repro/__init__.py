"""CIM-MLC: a multi-level compilation stack for computing-in-memory
accelerators (reproduction of Qu et al., ASPLOS 2024).

Quickstart
----------
>>> from repro import CIMMLC, isaac_baseline, resnet18
>>> result = CIMMLC(isaac_baseline()).compile(resnet18())
>>> result.total_cycles > 0
True

Packages
--------
``repro.graph``       ONNX-like computation-graph IR.
``repro.models``      Benchmark network zoo (VGG / ResNet / ViT / toys).
``repro.arch``        Hardware abstraction: tiers, modes, NoCs, presets.
``repro.mops``        Meta-operator sets, flows, BNF codegen, validation.
``repro.sched``       Multi-level scheduler (CG / MVM / VVM) + baselines.
``repro.sim``         Functional (value-exact) and performance simulators.
``repro.explore``     Design-space sweeps: parallel runner, result cache,
                      Pareto/bottleneck analysis.
``repro.serve``       Multi-tenant serving simulator: traces, partitioning,
                      dynamic batching, SLO analysis.
``repro.fleet``       Datacenter-scale serving: replicated fleets, request
                      routing, admission control, autoscaling.
``repro.scale``       Multi-chip sharding: layer partitioning, inter-chip
                      links, pipelined multi-chip estimation.
``repro.trace``       Trace capture across every engine, critical-path
                      attribution, what-if replay without re-simulation.
``repro.faults``      Fault injection: dead cores/crossbars, drift
                      rewrites, chip death, degraded-hardware planning.
``repro.experiments`` One driver per paper table/figure.
"""

from .arch import (
    ChipLink,
    CIMArchitecture,
    CellType,
    ChipTier,
    ComputingMode,
    CoreTier,
    CrossbarTier,
    MultiChipSystem,
    functional_testbed,
    isaac_baseline,
    jain2021,
    jia2021,
    puma,
    table2_example,
)
from .graph import Graph, GraphBuilder, Node, TensorSpec
from .models import (
    conv_relu_example,
    lenet,
    mlp,
    resnet,
    resnet18,
    resnet34,
    resnet50,
    resnet101,
    tiny_conv,
    vgg,
    vgg7,
    vgg16,
    vit,
    vit_base,
)
from .sched import (
    CIMMLC,
    CompilationResult,
    CompilerOptions,
    Schedule,
    no_optimization,
    poly_schedule,
)
from .sim import MultiChipReport, PerformanceReport, PerformanceSimulator
from .explore import SweepPoint, SweepResult, SweepRunner, SweepSpace
from .perf import CompileCache
from .scale import ShardPlan, shard
from .faults import FaultModel, plan_degraded, spread_mask

__version__ = "1.9.0"

__all__ = [
    "CIMArchitecture",
    "CIMMLC",
    "CellType",
    "ChipLink",
    "ChipTier",
    "CompilationResult",
    "CompileCache",
    "CompilerOptions",
    "ComputingMode",
    "CoreTier",
    "CrossbarTier",
    "FaultModel",
    "Graph",
    "GraphBuilder",
    "MultiChipReport",
    "MultiChipSystem",
    "Node",
    "PerformanceReport",
    "PerformanceSimulator",
    "Schedule",
    "ShardPlan",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpace",
    "TensorSpec",
    "conv_relu_example",
    "functional_testbed",
    "isaac_baseline",
    "jain2021",
    "jia2021",
    "lenet",
    "mlp",
    "no_optimization",
    "plan_degraded",
    "poly_schedule",
    "puma",
    "resnet",
    "resnet101",
    "resnet18",
    "resnet34",
    "resnet50",
    "shard",
    "spread_mask",
    "table2_example",
    "tiny_conv",
    "vgg",
    "vgg16",
    "vgg7",
    "vit",
    "vit_base",
]
