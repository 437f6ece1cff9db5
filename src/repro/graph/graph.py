"""Computation graph (ONNX-like) with validation and shape inference.

The :class:`Graph` is the compiler's input format: a DAG of :class:`Node`
operators connected by named tensors (:class:`TensorSpec`).  Section 3.3.1:
"the compiler gets the DNN models in ONNX format ... nodes correspond to
operators, and edges denote the data dependency between each operator."
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..errors import GraphError, ShapeError
from .node import Node
from .ops import WeightMatrix, op_spec
from .tensor import TensorSpec


class Graph:
    """A static computation graph.

    Parameters
    ----------
    name:
        Model name (e.g. ``"resnet18"``).
    inputs / outputs:
        Names of graph-level input and output tensors.
    tensors:
        All known tensor specs keyed by name.  Weights must be present;
        intermediate activation specs may be added by :meth:`infer_shapes`.
    nodes:
        Operator list (any order; :meth:`topological` sorts).
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        tensors: Optional[Dict[str, TensorSpec]] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> None:
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.tensors: Dict[str, TensorSpec] = dict(tensors or {})
        self.nodes: List[Node] = list(nodes or [])
        self._producer: Dict[str, Node] = {}
        self._consumers: Dict[str, List[Node]] = {}
        self._by_name: Dict[str, Node] = {}
        self._topo_cache: Optional[List[Node]] = None
        self._sig_cache: Optional[str] = None
        self._derived: Dict[str, Any] = {}
        self._reindex()

    # ------------------------------------------------------------------
    # Construction / bookkeeping
    # ------------------------------------------------------------------

    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        """Register a tensor spec (idempotent if identical)."""
        existing = self.tensors.get(spec.name)
        if existing is not None and existing != spec:
            raise GraphError(f"tensor {spec.name!r} registered twice with "
                             f"conflicting specs")
        self.tensors[spec.name] = spec
        self._sig_cache = None
        self._derived = {}
        return spec

    def add_node(self, node: Node) -> Node:
        """Append a node and refresh edge indices."""
        self.nodes.append(node)
        self._reindex()
        return node

    def _reindex(self) -> None:
        self._producer.clear()
        self._consumers.clear()
        self._by_name = {}
        self._topo_cache = None
        self._sig_cache = None
        self._derived = {}
        names = set()
        for node in self.nodes:
            if node.name in names:
                raise GraphError(f"duplicate node name {node.name!r}")
            names.add(node.name)
            self._by_name[node.name] = node
            for out in node.outputs:
                if out in self._producer:
                    raise GraphError(f"tensor {out!r} produced by two nodes")
                self._producer[out] = node
            for inp in node.inputs:
                self._consumers.setdefault(inp, []).append(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name (indexed; O(1))."""
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    def producer(self, tensor: str) -> Optional[Node]:
        """The node producing ``tensor`` (None for graph inputs / weights)."""
        return self._producer.get(tensor)

    def consumers(self, tensor: str) -> List[Node]:
        """All nodes consuming ``tensor``."""
        return list(self._consumers.get(tensor, []))

    def predecessors(self, node: Node) -> List[Node]:
        """Nodes whose outputs feed ``node`` (deduplicated, input order)."""
        preds: List[Node] = []
        for inp in node.inputs:
            p = self._producer.get(inp)
            if p is not None and p not in preds:
                preds.append(p)
        return preds

    def successors(self, node: Node) -> List[Node]:
        """Nodes consuming any output of ``node`` (deduplicated)."""
        succs: List[Node] = []
        for out in node.outputs:
            for c in self._consumers.get(out, []):
                if c not in succs:
                    succs.append(c)
        return succs

    def input_specs(self, node: Node) -> List[TensorSpec]:
        """Tensor specs of a node's inputs (shape inference must have run
        for intermediate tensors to be present)."""
        specs = []
        for name in node.inputs:
            spec = self.tensors.get(name)
            if spec is None:
                raise ShapeError(
                    f"node {node.name!r} input {name!r} has no spec; "
                    f"run infer_shapes() first"
                )
            specs.append(spec)
        return specs

    def output_spec(self, node: Node, index: int = 0) -> TensorSpec:
        """Tensor spec of a node's ``index``-th output."""
        name = node.outputs[index]
        spec = self.tensors.get(name)
        if spec is None:
            raise ShapeError(f"output {name!r} has no spec; run infer_shapes()")
        return spec

    def weight_inputs(self, node: Node) -> List[TensorSpec]:
        """Weight tensors consumed by ``node``."""
        return [s for s in self.input_specs(node) if s.is_weight]

    def weight_matrix(self, node: Node) -> Optional[WeightMatrix]:
        """The (R, C, bits) crossbar view of ``node``'s weights, if CIM-able."""
        return op_spec(node.op_type).weight_matrix(node, self.input_specs(node))

    def num_mvms(self, node: Node) -> int:
        """Number of MVMs one inference of ``node`` decomposes into."""
        return op_spec(node.op_type).num_mvms(node, self.input_specs(node))

    def macs(self, node: Node) -> int:
        """MAC count of ``node``."""
        return op_spec(node.op_type).macs(node, self.input_specs(node))

    def alu_ops(self, node: Node) -> int:
        """Digital ALU workload of ``node``."""
        return op_spec(node.op_type).alu_ops(node, self.input_specs(node))

    def is_cim_supported(self, node: Node) -> bool:
        """True when the node's weights can sit in crossbars."""
        return op_spec(node.op_type).is_cim_supported

    def cim_nodes(self) -> List[Node]:
        """All CIM-supported nodes in topological order."""
        return [n for n in self.topological() if self.is_cim_supported(n)]

    def total_weight_bits(self) -> int:
        """Total stationary weight footprint of all CIM-supported nodes."""
        total = 0
        for node in self.cim_nodes():
            r, c, b = self.weight_matrix(node)  # type: ignore[misc]
            total += r * c * b
        return total

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def topological(self) -> List[Node]:
        """Kahn topological order; raises :class:`GraphError` on cycles."""
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indeg: Dict[str, int] = {}
        for node in self.nodes:
            indeg[node.name] = len(self.predecessors(node))
        ready = deque(n for n in self.nodes if indeg[n.name] == 0)
        order: List[Node] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for succ in self.successors(node):
                indeg[succ.name] -= 1
                if indeg[succ.name] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(set(n.name for n in self.nodes) - set(n.name for n in order))
            raise GraphError(f"graph has a cycle involving {stuck}")
        self._topo_cache = order
        return list(order)

    def signature(self) -> str:
        """Deterministic content hash (topology + shapes + bits + attrs).

        Keys the explore disk cache and the in-process
        :class:`~repro.perf.CompileCache`.  The hash is computed once
        and invalidated by the structural mutation points
        (:meth:`add_node` / :meth:`add_tensor` / :meth:`infer_shapes`),
        which also drop every :meth:`derived` value;
        scheduler-written :attr:`~repro.graph.node.Node.annotations` are
        deliberately excluded, so compiling never changes a graph's
        identity.  Code mutating ``nodes`` / ``tensors`` directly must
        re-run ``_reindex()`` (as the transform passes do).
        """
        if self._sig_cache is not None:
            return self._sig_cache
        payload = {
            "name": self.name,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "tensors": sorted(
                (t.name, list(t.shape), t.bits, t.is_weight)
                for t in self.tensors.values()),
            "nodes": [
                (n.name, n.op_type, list(n.inputs), list(n.outputs),
                 sorted((k, repr(v)) for k, v in n.attrs.items()))
                for n in self.nodes],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._sig_cache = hashlib.sha256(blob.encode()).hexdigest()
        return self._sig_cache

    def derived(self, key: str, build: Callable[["Graph"], Any]) -> Any:
        """``build(self)``, kept on this graph under ``key``.

        For graph-only quantities that several compilations read, such
        as the per-node profile facts of
        :func:`repro.sched.costs.node_facts`: a graph compiled for many
        architectures derives them once.  The same mutation points that
        drop :meth:`signature`'s hash drop every value, so ``build`` must
        read nothing but the graph's content.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    def inherit_derived(self, parent: "Graph", key: str,
                        select: Callable[["Graph", Any], Any]) -> None:
        """Keep ``select(self, value)`` under ``key`` when ``parent``
        already holds ``value`` there (see :meth:`derived`); otherwise
        do nothing.

        For a graph built from ``parent``'s own node objects and tensor
        specs, such as a shard stage
        (:func:`repro.scale.shard.stage_subgraph`): ``select`` picks
        this graph's share of the parent's value, which must equal what
        the key's ``build`` derives from this graph.  This graph's own
        mutation points drop it like any derived value.
        """
        if key in parent._derived:
            self._derived[key] = select(self, parent._derived[key])

    def validate(self) -> None:
        """Check edge consistency: every consumed tensor is produced by a
        node, is a graph input, or is a registered weight/initializer."""
        available = set(self.inputs)
        available.update(name for name, s in self.tensors.items() if s.is_weight)
        for node in self.topological():
            for inp in node.inputs:
                if inp not in available and self._producer.get(inp) is None:
                    raise GraphError(
                        f"node {node.name!r} consumes undefined tensor {inp!r}"
                    )
            available.update(node.outputs)
        for out in self.outputs:
            if out not in available:
                raise GraphError(f"graph output {out!r} is never produced")

    def infer_shapes(self) -> "Graph":
        """Propagate tensor specs through the graph in topological order.

        Returns ``self`` for chaining.  Output specs inherit the bit-width of
        the first (activation) input.
        """
        self.validate()
        for node in self.topological():
            inputs = self.input_specs(node)
            shapes = op_spec(node.op_type).infer_shapes(node, inputs)
            if len(shapes) != len(node.outputs):
                raise ShapeError(
                    f"node {node.name!r} declares {len(node.outputs)} outputs "
                    f"but inference produced {len(shapes)}"
                )
            bits = inputs[0].bits if inputs else 8
            for name, shape in zip(node.outputs, shapes):
                inferred = TensorSpec(name, tuple(shape), bits)
                existing = self.tensors.get(name)
                if existing is not None and existing.shape != inferred.shape:
                    raise ShapeError(
                        f"tensor {name!r} annotated {existing.shape} but "
                        f"inferred {inferred.shape}"
                    )
                if existing is None:
                    self.tensors[name] = inferred
                    self._sig_cache = None
                    self._derived = {}
        return self

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable per-node summary table."""
        lines = [f"Graph {self.name}: {len(self.nodes)} nodes"]
        for node in self.topological():
            try:
                out = "x".join(map(str, self.output_spec(node).shape))
            except ShapeError:
                out = "?"
            lines.append(f"  {node.name:<24} {node.op_type:<12} -> {out}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph({self.name!r}, nodes={len(self.nodes)})"
