"""Graph execution: forward and backward passes over a GraphSpec.

The engine is stateless. A forward pass returns its activation dict
plus any batchnorm running-statistic updates; applying those updates to the
store is the caller's job, which keeps inference passes trivially free of
side effects.

Partial execution supports fine-tuning and shared-trunk evaluation:
  train_from   first node index trained; batchnorm nodes before it run in
               inference mode even when mode == "train"
  start/cache  begin execution at a node index, reading earlier activations
               from a cached dict instead of recomputing them, as infer(),
               every train() step and every multihead head do
  keep         the names the caller reads; None returns all. Given a set,
               the pass stops after the last kept node and frees each
               other activation, cached ones too, after its last reader
               (liveness; Chen et al. 2016, arXiv 1604.06174)

Under keep, a node may also write its output into the buffer of an input
that dies at it (the in-place half of Chen et al.): the engine tells each
node's forward which inputs are free (see graph.NodeKind), and relu, add
and inference-mode batchnorm take one whose shape and dtype fit, to the
same bits. Only an activation a node of this pass made, that no later
node reads, that is not kept and that the node reads once is free. The
network input, which at node 0 may be a view of the caller's x, and every
cached entry belong to the caller and are never written. Without keep
nothing is free: train(), backward_pass and every keep=None pass run
out of place.

boundary(graph, i) names what a pass resumed at node i reads of the
prefix. infer() is the one inference loop, CHUNK samples at a time, for
train()'s frozen prefix, evaluation, the branch grid, the probes and
multihead, which keeps the logits and each head's boundary in one trunk
pass, then resumes each head keeping only its last node; it starts at
node 0 from {"input": x}, or at node i from the boundary's activations.

Layout: public inputs are (n, c, h, w), and every activation the engine
holds is (n, h, w, c), the layout ops computes in (see ops). A pass that
starts at node 0 converts the network input, given as x or as
cache["input"], once; the activations it returns, "input" included, and
every cache a pass resumed at node i > 0 reads are in the engine layout,
as infer's boundary sources are. backward_pass hands the input gradient
back as (n, c, h, w). Graph shapes stay per-sample (c, h, w).

Saved contexts let a backward skip work its forward already did. Given a
`saved` dict, forward_pass stores there the context each node hands back
(see graph.NodeKind); only nodes that run in train mode have one, today
each train-mode batchnorm's batch mean and std, so inference passes keep
nothing. backward_pass pops each node's context as it differentiates that
node, so the dict is empty again once backward has passed every node that
stored one. train() passes one dict through each step's forward and
backward. Without contexts backward recomputes what it needs from the
activations, to the same bits.

Backward computes only the input gradients someone reads. A node's input
gradient is needed when that input is a node at or after `stop`; the
network input's gradient is needed only when the caller asks for it
(input_grad=True, the default) and stop == 0. Each node's backward is told
which of its inputs are needed (see graph.NodeKind): conv and fc then skip
the input gradient's matrix product and scatter, and the engine stores no
gradient that is not needed. train() asks for no input gradient, so the
stem conv of a trunk step, and the first trained conv of a fine-tune step,
compute only their weight gradients. Parameter gradients are the same bits
either way.
"""

import numpy as np

from .graph import INPUT_NAME, NODE_KINDS, GraphSpec

CHUNK = 32  # samples per infer chunk: the desk batch size


def _node_params(store, node):
    """The node's parameter arrays by suffix ("w", "b", "gamma", "beta")."""
    return {suffix: store.arrays[f"{node.name}/{suffix}"]
            for suffix in NODE_KINDS[node.kind].params(node.attrs)}


def boundary(graph: GraphSpec, index: int) -> set:
    """Names of the activations from before node index that nodes at or
    after it read: all that a pass resumed at index needs of the prefix."""
    return {src for node in graph.nodes[index:] for src in node.inputs
            if src == INPUT_NAME or graph.index(src) < index}


def forward_pass(graph: GraphSpec, store, x, mode="train", train_from=0,
                 start=0, cache=None, saved=None, keep=None):
    """Run nodes from start over a cached prefix, or from node 0 over the
    (n, c, h, w) input: x, or cache["input"] when a cache is given. An
    input whose per-sample shape is not the graph's input_shape is a
    ValueError naming both shapes.

    Returns (activations, bn_updates): activations maps node name -> output
    plus the cached entries (or "input" -> x in the engine layout),
    bn_updates maps batchnorm
    node name -> new RunningStats for nodes that ran in train mode. Given a
    set keep, the pass stops after the last kept node, drops every other
    activation once its last reader has run, returns only the kept ones,
    and lets a node write into an input that dies at it (see above). When
    saved is a dict, the saved context of every node that keeps
    one is stored in it by node name.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if start == 0:  # the network input, (n, c, h, w): checked, converted once
        x = x if cache is None else cache.get(INPUT_NAME)
        if x is not None and x.shape[1:] != graph.input_shape:
            raise ValueError(f"input of shape {x.shape} does not match the "
                             f"graph's per-sample input {graph.input_shape}")
        acts = {} if x is None else {
            INPUT_NAME: np.ascontiguousarray(x.transpose(0, 2, 3, 1))}
    elif cache is not None:
        acts = dict(cache)
    else:
        raise ValueError("starting mid-graph requires cached activations")
    stop, dead = len(graph.nodes), {}
    if keep is not None:
        # an activation not kept dies after its last reader in [start,
        # stop), after its own node if none reads it, or at once
        stop = max((graph.index(n) + 1 for n in keep if n != INPUT_NAME),
                   default=start)
        last = dict.fromkeys(acts, start - 1)
        for index, node in enumerate(graph.nodes[start:stop], start):
            last.update(dict.fromkeys(node.inputs + (node.name,), index))
        for name, index in last.items():
            if name not in keep:
                dead.setdefault(index, []).append(name)
    for name in dead.get(start - 1, ()):
        del acts[name]
    bn_updates = {}

    for index, node in enumerate(graph.nodes[start:stop], start):
        try:
            ins = [acts[src] for src in node.inputs]
        except KeyError as exc:
            raise ValueError(f"node {node.name!r} needs activation {exc.args[0]!r} "
                             f"which is not available") from None
        node_mode = "train" if (mode == "train" and index >= train_from) else "infer"
        # an input is free when this pass made it, it dies here and this
        # node reads it once; "input" and the cache are the caller's
        free = tuple(src in dead.get(index, ()) and src != INPUT_NAME
                     and graph.index(src) >= start and node.inputs.count(src) == 1
                     for src in node.inputs)
        out, stats, context = NODE_KINDS[node.kind].forward(
            node.attrs, _node_params(store, node), ins,
            store.running.get(node.name), node_mode, free)
        if stats is not None:
            bn_updates[node.name] = stats
        if saved is not None and context is not None:
            saved[node.name] = context
        acts[node.name] = out
        for name in dead.get(index, ()):
            del acts[name]
    if keep is not None:
        acts = {name: acts[name] for name in keep}
    return acts, bn_updates


def infer(graph: GraphSpec, store, sources, keep, start=0):
    """Inference-mode passes resumed at node start over the named source
    arrays ({"input": x} from node 0, or boundary(graph, start)'s
    activations), CHUNK samples at a time; returns each kept activation
    for every sample, allocated from its first chunk and filled chunk by
    chunk. The sources hold one row per sample; zero rows run no pass. A
    trailing 1-row chunk joins the one before it: fc takes numpy's
    matrix-vector path on one row, whose bits differ, so no pass over
    more than one sample takes it."""
    n = len(next(iter(sources.values())))
    out = {}
    for lo in range(0, n - (n > 1), CHUNK):
        hi = lo + CHUNK if n - lo - CHUNK > 1 else n  # no trailing 1-row chunk
        acts, _ = forward_pass(graph, store, None, mode="infer", start=start,
                               cache={name: a[lo:hi]
                                      for name, a in sources.items()},
                               keep=keep)
        for name, a in acts.items():
            if name not in out:
                out[name] = np.empty((n,) + a.shape[1:], a.dtype)
            out[name][lo:hi] = a
    return out


def backward_pass(graph: GraphSpec, store, acts, out_grads, stop=0, saved=None,
                  input_grad=True):
    """Reverse-mode gradients from seed gradients on named node outputs.

    out_grads maps node name -> gradient of the loss w.r.t. that node's
    output (typically {"fc": logit_grad}). Nodes with index < stop are not
    differentiated: no parameter gradients are produced for them and
    propagation does not continue past them.

    saved is the dict the forward filled; each node's context is popped
    from it as the node is reached. Without it, or for a node with no
    context, the node's backward recomputes what it needs from acts.

    Only gradients someone reads are computed: each node's backward is
    told, per input, whether that input lies at or after stop (the network
    input counts as below any stop > 0, and is needed only when input_grad
    is true). A gradient not needed is never stored.

    Returns (param_grads, input_grad); input_grad is None when stop > 0
    or input_grad is false. Batchnorm gradients assume the forward ran in
    train mode.
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
        need = tuple(input_grad and stop == 0 if src == INPUT_NAME
                     else graph.index(src) >= stop for src in node.inputs)
        in_grads, node_grads = kind.backward(
            node.attrs, _node_params(store, node),
            [acts[src] for src in node.inputs], gy, context, need)
        for suffix, pg in node_grads.items():
            param_grads[f"{node.name}/{suffix}"] = pg
        for src, g, keep in zip(node.inputs, in_grads, need):
            if keep:
                grads[src] = grads[src] + g if src in grads else g

    gx = grads.get(INPUT_NAME)
    return param_grads, None if gx is None else gx.transpose(0, 3, 1, 2)
