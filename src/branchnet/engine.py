"""Graph execution: forward and backward passes over a GraphSpec.

The engine is stateless. A forward pass returns the full activation dict
plus any batchnorm running-statistic updates; applying those updates to the
store is the caller's job, which keeps inference passes trivially free of
side effects.

Partial execution supports fine-tuning and shared-trunk evaluation:
  train_from   first node index trained; batchnorm nodes before it run in
               inference mode even when mode == "train"
  start/cache  begin execution at a node index, reading earlier activations
               from a cached dict instead of recomputing them; train() resumes
               each fine-tune step from its cached frozen prefix this way, and
               multihead resumes every head from one shared trunk pass
  end          stop before a node index; train() computes the frozen prefix
               [0, train_from) once per call with it

Saved contexts let a backward skip work its forward already did. Given a
`saved` dict, forward_pass stores there the context each node hands back
(see graph.NodeKind); only nodes that run in train mode have one, today
each train-mode batchnorm's batch mean and std, so inference passes keep
nothing. backward_pass pops each node's context as it differentiates that
node, so the dict is empty again once backward has passed every node that
stored one. train() passes one dict through each step's forward and
backward. Without contexts backward recomputes what it needs from the
activations, to the same bits.
"""

import numpy as np

from .graph import INPUT_NAME, NODE_KINDS, GraphSpec


def _node_params(store, node):
    """The node's parameter arrays by suffix ("w", "b", "gamma", "beta")."""
    return {suffix: store.arrays[f"{node.name}/{suffix}"]
            for suffix in NODE_KINDS[node.kind].params(node.attrs)}


def forward_pass(graph: GraphSpec, store, x, mode="train", train_from=0,
                 start=0, cache=None, end=None, saved=None):
    """Run nodes [start, end) over input x (or a cached prefix); end=None
    runs to the last node.

    Returns (activations, bn_updates): activations maps node name -> output
    (plus "input" -> x when start == 0), bn_updates maps batchnorm node
    name -> new RunningStats for nodes that ran in train mode. When saved
    is a dict, the saved context of every node that keeps one is stored in
    it by node name.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if start == 0:
        acts = {INPUT_NAME: x}
    else:
        if cache is None:
            raise ValueError("starting mid-graph requires cached activations")
        acts = dict(cache)
    bn_updates = {}

    for index, node in enumerate(graph.nodes[start:end], start):
        try:
            ins = [acts[src] for src in node.inputs]
        except KeyError as exc:
            raise ValueError(f"node {node.name!r} needs activation {exc.args[0]!r} "
                             f"which is not available") from None
        node_mode = "train" if (mode == "train" and index >= train_from) else "infer"
        out, stats, context = NODE_KINDS[node.kind].forward(
            node.attrs, _node_params(store, node), ins,
            store.running.get(node.name), node_mode)
        if stats is not None:
            bn_updates[node.name] = stats
        if saved is not None and context is not None:
            saved[node.name] = context
        acts[node.name] = out
    return acts, bn_updates


def backward_pass(graph: GraphSpec, store, acts, out_grads, stop=0, saved=None):
    """Reverse-mode gradients from seed gradients on named node outputs.

    out_grads maps node name -> gradient of the loss w.r.t. that node's
    output (typically {"fc": logit_grad}). Nodes with index < stop are not
    differentiated: no parameter gradients are produced for them and
    propagation does not continue past them.

    saved is the dict the forward filled; each node's context is popped
    from it as the node is reached. Without it, or for a node with no
    context, the node's backward recomputes what it needs from acts.

    Returns (param_grads, input_grad); input_grad is None when stop > 0.
    Batchnorm gradients assume the forward ran in train mode.
    """
    grads = {}
    for name, g in out_grads.items():
        if name not in graph:
            raise KeyError(f"no node named {name!r}")
        grads[name] = np.array(g, copy=True)

    param_grads = {}
    for index in range(len(graph.nodes) - 1, stop - 1, -1):
        node = graph.nodes[index]
        context = saved.pop(node.name, None) if saved is not None else None
        gy = grads.pop(node.name, None)
        if gy is None:
            continue
        kind = NODE_KINDS[node.kind]
        if kind.backward is None:
            raise ValueError(f"cannot differentiate through {node.kind}; seed the "
                             f"loss gradient at its input logits instead")
        in_grads, node_grads = kind.backward(
            node.attrs, _node_params(store, node),
            [acts[src] for src in node.inputs], gy, context)
        for suffix, pg in node_grads.items():
            param_grads[f"{node.name}/{suffix}"] = pg
        for src, g in zip(node.inputs, in_grads):
            grads[src] = grads[src] + g if src in grads else g

    input_grad = grads.get(INPUT_NAME) if stop == 0 else None
    return param_grads, input_grad

