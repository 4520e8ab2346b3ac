"""GNN-based encoder for dataflow DAGs (paper §IV-A), from scratch.

A directed message-passing network (Eqs. 1–2): at each round a node
combines its own representation with mean-aggregated messages from its
in- and out-neighbours (upstream and downstream operators). After the
final round the **parallelism-agnostic** embedding h_v is produced; the
FUSE update (Eq. 3) then concatenates the scaled parallelism degree and
applies a non-linear projection back to the embedding width, yielding
the parallelism-aware vector fed to a two-layer MLP + sigmoid that
predicts the operator-level bottleneck indicator.

The same machinery doubles as ZeroTune's *job-level* cost model
(``head="graph_reg"``): mean-pool all node embeddings into a summary
vector and regress a scalar metric — exactly the aggregation the paper
criticises for losing operator-level detail.

Implementation: dense numpy with handwritten backprop and Adam; the
container has no deep-learning framework (DESIGN.md §1). The DAGs have
at most ten nodes, so the fixed cost of each numpy call outweighs its
arithmetic. Every pass therefore takes a *stack* of same-size graphs
(a leading batch axis; nodes are ``axis=-2``), and a single graph is a
stack without that axis, through the same code. Each graph of a stack
goes through the same per-graph matrix products and reductions as it
would alone, so stacking changes no bit. ``GNN.fit`` splits each shuffled
minibatch by node count, runs one stacked ``loss_grads`` per size, puts
the graphs' gradients back in minibatch order, as the rows of one
``[batch, n_params]`` buffer, and adds them one graph at a time, the
order of training one graph at a time. The parameters are views of one
flat vector, so one elementwise Adam step updates them all with the same
per-element arithmetic as one array at a time. ``sum(axis=0)`` may
add in another order and padding mixed sizes to the largest adds zeros
into the reductions: either moves parameters in the last bits.
``cumsum(axis=0)[-1]`` keeps the order but costs about three times the
loop, its inner loop running along the short batch axis.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

BATCH_SIZE = 16  # graphs per Adam step in GNN.fit


@dataclass
class GraphSample:
    """One deployed dataflow: node features (topo order), normalised
    adjacency, scaled parallelisms, and labels (node-level bottleneck
    indicators with −1 = unlabelled, and/or a graph-level scalar).

    A stack of same-size dataflows has the same fields with a leading
    batch axis [B, ...]; ``a_in``/``a_out`` may stay [n, n] when every
    graph of the stack shares them."""

    x: np.ndarray  # [n, d_in]
    a_in: np.ndarray  # [n, n]
    a_out: np.ndarray  # [n, n]
    p: np.ndarray | None = None  # [n], scaled to [0,1]
    y_node: np.ndarray | None = None  # [n], values in {-1, 0, 1}
    y_graph: float | np.ndarray | None = None

    def take(self, rows: np.ndarray) -> "GraphSample":
        """The stack of this stack's graphs at ``rows``."""
        return GraphSample(
            **{f.name: None if (v := getattr(self, f.name)) is None else v[rows] for f in fields(self)}
        )


def stack_by_size(samples: list[GraphSample]) -> list[tuple[np.ndarray, GraphSample]]:
    """Group ``samples`` by node count: per count, the members' indices
    into ``samples`` (ascending) and their stack.

    Each sample's arrays become views of its row of the stack, so the
    stacks are the only copy of the data, not a second one."""
    sizes = np.array([len(s.x) for s in samples])
    groups = []
    for n in np.unique(sizes):
        members = np.flatnonzero(sizes == n)
        group = [samples[i] for i in members]
        cols = {
            f.name: np.array([getattr(s, f.name) for s in group])
            for f in fields(GraphSample)
            if getattr(group[0], f.name) is not None
        }
        for row, s in enumerate(group):
            for name, col in cols.items():
                setattr(s, name, col[row])
        groups.append((members, GraphSample(**cols)))
    return groups


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each graph's matrix."""
    return a.swapaxes(-1, -2)


class GNN:
    """Directed MPNN encoder + (node-classification | graph-regression)
    head, trained with Adam on handwritten gradients."""

    def __init__(
        self,
        d_in: int,
        *,
        dim: int = 32,
        hidden: int = 32,
        rounds: int = 2,
        head: str = "node_binary",
        seed: int = 0,
    ) -> None:
        if head not in ("node_binary", "graph_reg"):
            raise ValueError(f"unknown head {head!r}")
        self.d_in, self.dim, self.hidden = d_in, dim, hidden
        self.rounds, self.head = rounds, head
        self.use_fuse = head == "node_binary"
        rng = np.random.default_rng(seed)

        def g(*shape):
            return rng.normal(0, np.sqrt(2.0 / shape[0]), shape)

        self.params: dict[str, np.ndarray] = {
            "W0": g(d_in, dim),
            "b0": np.zeros(dim),
        }
        for t in range(rounds):
            self.params[f"Ws{t}"] = g(dim, dim)
            self.params[f"Wi{t}"] = g(dim, dim)
            self.params[f"Wo{t}"] = g(dim, dim)
            self.params[f"b{t}_mp"] = np.zeros(dim)
        if self.use_fuse:
            self.params["Wf"] = g(dim + 1, dim)
            self.params["bf"] = np.zeros(dim)
        self.params["W1"] = g(dim, hidden)
        self.params["b1"] = np.zeros(hidden)
        self.params["W2"] = g(hidden, 1)
        self.params["b2"] = np.zeros(1)
        n_params = sum(v.size for v in self.params.values())
        self._adam_m = np.zeros(n_params)
        self._adam_v = np.zeros(n_params)
        self._adam_t = 0
        #: Positive-class weight for node_binary BCE; set by fit().
        self.pos_weight = 1.0

    # -- forward ---------------------------------------------------------
    def _encode(self, s: GraphSample) -> tuple[np.ndarray, list]:
        """Message passing → parallelism-agnostic embeddings H (Eqs. 1–2)."""
        P = self.params
        cache: list = []
        pre0 = s.x @ P["W0"] + P["b0"]
        h = _relu(pre0)
        cache.append(("in", s.x, pre0))
        for t in range(self.rounds):
            msg_i = s.a_in @ h
            msg_o = s.a_out @ h
            pre = h @ P[f"Ws{t}"] + msg_i @ P[f"Wi{t}"] + msg_o @ P[f"Wo{t}"] + P[f"b{t}_mp"]
            nh = _relu(pre)
            cache.append(("mp", t, h, msg_i, msg_o, pre))
            h = nh
        return h, cache

    def embed(self, s: GraphSample) -> np.ndarray:
        """Parallelism-agnostic operator embeddings h_v (used by the
        fine-tuning phase; encoder weights are frozen there)."""
        h, _ = self._encode(s)
        return h

    def _head_forward(self, h: np.ndarray, s: GraphSample) -> tuple[np.ndarray, dict]:
        P = self.params
        c: dict = {}
        z = h
        if self.use_fuse:
            if s.p is None:
                raise ValueError("sample lacks parallelism for FUSE")
            cat = np.concatenate([h, s.p[..., None]], axis=-1)
            preF = cat @ P["Wf"] + P["bf"]
            z = _relu(preF)
            c["cat"], c["preF"] = cat, preF
        if self.head == "graph_reg":
            zp = z.mean(axis=-2, keepdims=True)  # summary vector (ZeroTune)
        else:
            zp = z
        pre1 = zp @ P["W1"] + P["b1"]
        u = _relu(pre1)
        out = u @ P["W2"] + P["b2"]
        c["z"], c["zp"], c["pre1"], c["u"] = z, zp, pre1, u
        return out, c

    def forward(self, s: GraphSample) -> np.ndarray:
        """Per-operator bottleneck probabilities [..., n] (node_binary
        head) or the job-level prediction [..., 1] (graph_reg head)."""
        h, _ = self._encode(s)
        out, _ = self._head_forward(h, s)
        if self.head == "node_binary":
            return _sigmoid(out)[..., 0]
        return out[..., 0]

    def predict_proba(self, s: GraphSample) -> np.ndarray:
        """Per-operator bottleneck probability (node_binary head)."""
        assert self.head == "node_binary"
        return self.forward(s)

    # -- loss + handwritten gradients -------------------------------------
    def loss_grads(self, s: GraphSample) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
        """Loss and gradient of every parameter, per graph: for a stack,
        losses [B] and gradients with the stack's leading axis."""
        P = self.params
        h, enc_cache = self._encode(s)
        out, c = self._head_forward(h, s)
        grads: dict[str, np.ndarray] = {}

        if self.head == "node_binary":
            assert s.y_node is not None
            mask = s.y_node >= 0
            prob = _sigmoid(out)[..., 0]
            y = np.where(mask, s.y_node, 0).astype(float)
            # pos_weight rebalances the rare bottleneck class (most
            # historical deployments are over-provisioned → label 0).
            w = np.where(y > 0, self.pos_weight, 1.0) * mask
            w = w / np.maximum(w.sum(axis=-1, keepdims=True), 1e-9)
            eps = 1e-9
            loss = -(w * (y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))).sum(axis=-1)
            dout = (w * (prob - y))[..., None]
        else:
            assert s.y_graph is not None
            err = out[..., 0, 0] - s.y_graph
            loss = 0.5 * err**2
            dout = err[..., None, None]

        # head backward
        u, pre1, zp, z = c["u"], c["pre1"], c["zp"], c["z"]
        grads["W2"] = _t(u) @ dout
        grads["b2"] = dout.sum(axis=-2)
        du = dout @ P["W2"].T
        dpre1 = du * (pre1 > 0)
        grads["W1"] = _t(zp) @ dpre1
        grads["b1"] = dpre1.sum(axis=-2)
        dzp = dpre1 @ P["W1"].T
        if self.head == "graph_reg":
            n = z.shape[-2]
            dz = np.repeat(dzp, n, axis=-2) / n
        else:
            dz = dzp
        if self.use_fuse:
            dpreF = dz * (c["preF"] > 0)
            grads["Wf"] = _t(c["cat"]) @ dpreF
            grads["bf"] = dpreF.sum(axis=-2)
            dcat = dpreF @ P["Wf"].T
            dh = dcat[..., : self.dim]
        else:
            dh = dz

        # message-passing backward
        for entry in reversed(enc_cache):
            if entry[0] == "mp":
                _, t, h_prev, msg_i, msg_o, pre = entry
                dpre = dh * (pre > 0)
                grads[f"Ws{t}"] = _t(h_prev) @ dpre
                grads[f"Wi{t}"] = _t(msg_i) @ dpre
                grads[f"Wo{t}"] = _t(msg_o) @ dpre
                grads[f"b{t}_mp"] = dpre.sum(axis=-2)
                dh = (
                    dpre @ P[f"Ws{t}"].T
                    + _t(s.a_in) @ (dpre @ P[f"Wi{t}"].T)
                    + _t(s.a_out) @ (dpre @ P[f"Wo{t}"].T)
                )
            else:
                _, x, pre0 = entry
                dpre0 = dh * (pre0 > 0)
                grads["W0"] = _t(x) @ dpre0
                grads["b0"] = dpre0.sum(axis=-2)
        return loss, grads

    # -- optimisation ------------------------------------------------------
    def _flatten(self) -> tuple[np.ndarray, dict[str, slice]]:
        """Make every parameter a view of one flat vector, in ``params``
        order; return the vector and each parameter's slice of it."""
        flat = np.concatenate([v.ravel() for v in self.params.values()])
        cols: dict[str, slice] = {}
        start = 0
        for k, v in self.params.items():
            cols[k] = slice(start, start + v.size)
            self.params[k] = flat[cols[k]].reshape(v.shape)
            start += v.size
        return flat, cols

    def _adam_step(self, flat: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One Adam update of the flat parameter vector ``flat``."""
        self._adam_t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        self._adam_m = b1 * self._adam_m + (1 - b1) * grad
        self._adam_v = b2 * self._adam_v + (1 - b2) * grad * grad
        mhat = self._adam_m / (1 - b1**self._adam_t)
        vhat = self._adam_v / (1 - b2**self._adam_t)
        flat -= lr * mhat / (np.sqrt(vhat) + eps)

    def fit(
        self,
        samples: list[GraphSample],
        *,
        epochs: int = 60,
        lr: float = 3e-3,
        seed: int = 0,
    ) -> list[float]:
        """Mini-batch Adam; gradients averaged over the batch's graphs.
        Returns per-epoch mean loss."""
        rng = np.random.default_rng(seed)
        if self.head == "node_binary":
            n_pos = sum(int((s.y_node == 1).sum()) for s in samples)
            n_neg = sum(int((s.y_node == 0).sum()) for s in samples)
            self.pos_weight = max(1.0, n_neg / max(1, n_pos))
        # Set up here, not once in __init__: an unpickled GNN's parameters
        # are no longer views of one vector.
        flat, cols = self._flatten()
        stacks = stack_by_size(samples)
        group = np.empty(len(samples), dtype=int)  # sample → its stack
        row = np.empty(len(samples), dtype=int)  # sample → its row there
        for g, (members, _) in enumerate(stacks):
            group[members] = g
            row[members] = np.arange(len(members))
        history: list[float] = []
        idx = np.arange(len(samples))
        batch_grads = np.empty((BATCH_SIZE, len(flat)))  # one row per graph
        for _ in range(epochs):
            rng.shuffle(idx)
            losses: list[float] = []
            for start in range(0, len(idx), BATCH_SIZE):
                chunk = idx[start : start + BATCH_SIZE]
                loss = np.empty(len(chunk))
                grads = batch_grads[: len(chunk)]
                for g in np.unique(group[chunk]):
                    sel = group[chunk] == g
                    loss[sel], part = self.loss_grads(stacks[g][1].take(row[chunk[sel]]))
                    for k, v in part.items():
                        grads[sel, cols[k]] = v.reshape(len(v), -1)
                losses.extend(loss)
                # Add the graphs' gradients one at a time in minibatch
                # order, the order per-graph training added them in.
                agg = grads[0]
                for j in range(1, len(chunk)):
                    agg += grads[j]
                self._adam_step(flat, agg / len(chunk), lr)
            history.append(float(np.mean(losses)))
        return history

    def accuracy(self, samples: list[GraphSample]) -> float:
        """Labelled-node classification accuracy (node_binary head)."""
        hit = tot = 0
        # Minibatch-sized stacks: a forward over a whole history's stack
        # would hold every graph's activations at once.
        for start in range(0, len(samples), BATCH_SIZE):
            for _, s in stack_by_size(samples[start : start + BATCH_SIZE]):
                prob = self.predict_proba(s)
                mask = s.y_node >= 0
                hit += int(((prob > 0.5).astype(int) == s.y_node)[mask].sum())
                tot += int(mask.sum())
        return hit / max(1, tot)
