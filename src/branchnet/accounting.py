"""Exact cost accounting: parameter counts and multiply-accumulates.

Costs are reported per sample (batch size one). The headline number is the
multiply-accumulate count of convolutions and fully connected layers; the
doubled convention (one multiply plus one add counted separately) is exposed
alongside as flops2x. Element-wise work (batchnorm, relu, residual adds,
pooling, bias additions) involves no multiply-accumulate chains and is
tallied separately as output-element counts.
"""

from dataclasses import dataclass

import numpy as np

from .graph import NODE_KINDS, GraphSpec, compute_shapes, head_graph
from .params import param_owner, param_shapes


def count_params(graph: GraphSpec):
    """Returns (per_node, total): learnable element counts by node name."""
    per_node = {}
    for pname, shape in param_shapes(graph).items():
        owner = param_owner(pname)
        per_node[owner] = per_node.get(owner, 0) + int(np.prod(shape))
    return per_node, sum(per_node.values())


@dataclass(frozen=True)
class CostReport:
    per_node_macs: dict
    total_macs: int
    aux_elements: dict

    @property
    def total_flops2x(self):
        return 2 * self.total_macs


def count_flops(graph: GraphSpec) -> CostReport:
    """Per-sample multiply-accumulates plus element-wise side work."""
    shapes = compute_shapes(graph)
    per_node = {}
    aux = {}
    for node in graph.nodes:
        ins = [shapes[src] for src in node.inputs]
        macs, elements = NODE_KINDS[node.kind].cost(node.attrs, ins,
                                                     shapes[node.name])
        if macs is not None:
            per_node[node.name] = macs
        for key, n in elements.items():
            aux[key] = aux.get(key, 0) + n
    return CostReport(per_node, sum(per_node.values()), aux)


def _from_branch(head: GraphSpec, bidx, per_node):
    """Sum of per_node's counts over head's nodes from index bidx on."""
    return sum(n for name, n in per_node.items() if head.index(name) >= bidx)


def branch_trainable_params(graph: GraphSpec, branch_layer: str,
                            num_classes: int) -> int:
    """Learnable elements retrained when a num_classes-way task branch
    starts at branch_layer: those of its head graph (graph.head_graph)
    owned by nodes from the branch on."""
    bidx = graph.branch_index(branch_layer)
    head = head_graph(graph, num_classes, "softmax")
    return _from_branch(head, bidx, count_params(head)[0])


def suffix_macs(graph: GraphSpec, branch_layer: str, num_classes: int) -> int:
    """Per-sample multiply-accumulates of a num_classes-way head graph's
    nodes from branch_layer on."""
    bidx = graph.branch_index(branch_layer)
    head = head_graph(graph, num_classes, "softmax")
    return _from_branch(head, bidx, count_flops(head).per_node_macs)


def format_cost_table(graph: GraphSpec) -> str:
    """Human-readable per-node accounting table with exact totals."""
    shapes = compute_shapes(graph)
    per_node_params, total_params = count_params(graph)
    cost = count_flops(graph)
    lines = []
    header = f"{'node':<12} {'kind':<13} {'output':<16} {'params':>12} {'macs':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for node in graph.nodes:
        shape = "x".join(str(d) for d in shapes[node.name])
        p = per_node_params.get(node.name, 0)
        m = cost.per_node_macs.get(node.name, 0)
        lines.append(f"{node.name:<12} {node.kind:<13} {shape:<16} {p:>12,} {m:>14,}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<12} {'':<13} {'':<16} {total_params:>12,} "
                 f"{cost.total_macs:>14,}")
    lines.append("")
    lines.append(f"flops (2x convention): {cost.total_flops2x:,}")
    aux = ", ".join(f"{k}={v:,}" for k, v in sorted(cost.aux_elements.items()))
    lines.append(f"element-wise work (not in mac total): {aux}")
    return "\n".join(lines) + "\n"
