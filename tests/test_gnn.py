"""Tests for the from-scratch GNN encoder (Eqs. 1–3) and its training."""
import pickle

import numpy as np
import pytest

from repro.core.gnn import BATCH_SIZE, GNN, GraphSample, _sigmoid, stack_by_size


def _line_graph(n=4, d_in=6, seed=0, p=None, y=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, d_in))
    a_in = np.zeros((n, n))
    a_out = np.zeros((n, n))
    for i in range(n - 1):
        a_in[i + 1, i] = 1.0
        a_out[i, i + 1] = 1.0
    return GraphSample(
        x=x,
        a_in=a_in,
        a_out=a_out,
        p=np.asarray(p) if p is not None else rng.uniform(0, 1, n),
        y_node=np.asarray(y) if y is not None else rng.integers(0, 2, n),
    )


class TestForward:
    def test_output_shape_and_range(self):
        g = GNN(d_in=6, dim=16, seed=0)
        s = _line_graph()
        out = g.predict_proba(s)
        assert out.shape == (4,)
        assert np.all((out >= 0) & (out <= 1))

    def test_embed_shape(self):
        g = GNN(d_in=6, dim=16, seed=0)
        assert g.embed(_line_graph()).shape == (4, 16)

    def test_embedding_is_parallelism_agnostic(self):
        """h_v must not depend on p — parallelism enters only via FUSE."""
        g = GNN(d_in=6, dim=16, seed=0)
        s1 = _line_graph(p=[0.1] * 4)
        s2 = GraphSample(x=s1.x, a_in=s1.a_in, a_out=s1.a_out, p=np.array([0.9] * 4))
        np.testing.assert_array_equal(g.embed(s1), g.embed(s2))

    def test_prediction_depends_on_parallelism(self):
        g = GNN(d_in=6, dim=16, seed=0)
        s1 = _line_graph(p=[0.05] * 4)
        s2 = GraphSample(x=s1.x, a_in=s1.a_in, a_out=s1.a_out, p=np.array([0.95] * 4))
        assert not np.allclose(g.predict_proba(s1), g.predict_proba(s2))

    def test_message_passing_propagates_context(self):
        """Perturbing node 0's features must change node 1's embedding
        (1 hop) and node 2's (2 hops with 2 rounds)."""
        g = GNN(d_in=6, dim=16, rounds=2, seed=0)
        s = _line_graph()
        e1 = g.embed(s)
        x2 = s.x.copy()
        x2[0] += 10.0
        e2 = g.embed(GraphSample(x=x2, a_in=s.a_in, a_out=s.a_out))
        assert not np.allclose(e1[1], e2[1])
        assert not np.allclose(e1[2], e2[2])

    def test_fuse_required_when_enabled(self):
        g = GNN(d_in=6, seed=0)
        s = _line_graph()
        s.p = None
        with pytest.raises(ValueError, match="FUSE"):
            g.forward(s)

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError):
            GNN(d_in=4, head="triple")


class TestGradients:
    @pytest.mark.parametrize("head", ["node_binary", "graph_reg"])
    def test_numerical_gradient_check(self, head):
        """Handwritten backprop must match finite differences."""
        g = GNN(d_in=5, dim=6, hidden=5, head=head, seed=1)
        s = _line_graph(n=3, d_in=5, seed=2)
        if head == "graph_reg":
            s.y_graph = 0.7
        _, grads = g.loss_grads(s)
        eps = 1e-6
        for name in ("W0", "W1", "W2", "Ws0", "Wi1"):
            W = g.params[name]
            i = (0, 0) if W.ndim == 2 else (0,)
            orig = W[i]
            W[i] = orig + eps
            lp, _ = g.loss_grads(s)
            W[i] = orig - eps
            lm, _ = g.loss_grads(s)
            W[i] = orig
            num = (lp - lm) / (2 * eps)
            assert grads[name][i] == pytest.approx(num, rel=1e-3, abs=1e-6), name


class TestTraining:
    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        samples = [_line_graph(seed=i) for i in range(20)]
        g = GNN(d_in=6, dim=16, seed=0)
        hist = g.fit(samples, epochs=30, lr=3e-3, seed=0)
        assert hist[-1] < hist[0]

    def test_learns_separable_task(self):
        """Label = 1 iff the node's first feature is positive — the GNN
        must reach high accuracy on this trivially separable task."""
        rng = np.random.default_rng(1)
        samples = []
        for i in range(40):
            s = _line_graph(n=5, seed=100 + i)
            s.y_node = (s.x[:, 0] > 0).astype(int)
            samples.append(s)
        g = GNN(d_in=6, dim=16, seed=0)
        g.fit(samples, epochs=80, seed=0)
        assert g.accuracy(samples) > 0.9

    def test_unlabelled_nodes_ignored(self):
        s = _line_graph(y=[-1, -1, -1, -1])
        g = GNN(d_in=6, dim=8, seed=0)
        loss, grads = g.loss_grads(s)
        assert loss == pytest.approx(0.0)
        assert all(np.allclose(v, 0) for v in grads.values())

    def test_pos_weight_set_from_data(self):
        samples = [_line_graph(y=[1, 0, 0, 0], seed=i) for i in range(4)]
        g = GNN(d_in=6, dim=8, seed=0)
        g.fit(samples, epochs=1, seed=0)
        assert g.pos_weight == pytest.approx(3.0)


class TestGraphRegression:
    def test_learns_mean_feature(self):
        rng = np.random.default_rng(2)
        samples = []
        for i in range(60):
            s = _line_graph(n=4, seed=200 + i)
            s = GraphSample(x=s.x, a_in=s.a_in, a_out=s.a_out,
                            y_graph=float(s.x[:, 1].mean()))
            samples.append(s)
        g = GNN(d_in=6, dim=16, head="graph_reg", seed=0)
        g.fit(samples, epochs=120, lr=3e-3, seed=0)
        errs = [abs(g.forward(s)[0] - s.y_graph) for s in samples]
        assert np.mean(errs) < 0.2

    def test_single_scalar_output(self):
        g = GNN(d_in=6, dim=8, head="graph_reg", seed=0)
        s = _line_graph()
        assert g.forward(s).shape == (1,)



def _random_graph(n, d_in, seed, y_graph=None):
    """A random DAG on ``n`` nodes (edges only from lower to higher index)
    with row-normalised adjacency and some unlabelled nodes."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.4, k=1).astype(float)
    adj[np.arange(n - 1), np.arange(1, n)] = 1.0  # keep it connected
    a_in, a_out = adj.T.copy(), adj.copy()
    for a in (a_in, a_out):
        rows = a.sum(axis=1, keepdims=True)
        np.divide(a, rows, out=a, where=rows > 0)
    return GraphSample(
        x=rng.normal(0, 1, (n, d_in)),
        a_in=a_in,
        a_out=a_out,
        p=rng.uniform(0, 1, n),
        y_node=rng.integers(-1, 2, n),
        y_graph=y_graph if y_graph is not None else float(rng.normal()),
    )


def _stack(samples):
    ((_, stack),) = stack_by_size(samples)
    return stack


def _node_gnn():
    return GNN(d_in=6, dim=16, hidden=8, seed=3)


def _graph_gnn():
    return GNN(d_in=6, dim=16, hidden=8, head="graph_reg", seed=3)


class TestStacking:
    """A stack of same-size graphs gives, graph by graph, exactly what
    each graph gives alone (forward, embed, loss_grads), for both heads."""

    def _same_size(self):
        return [_random_graph(5, 6, seed) for seed in range(6)]

    def _parallelism_only(self):
        """ZeroTune-style candidates: one DAG and its features, one
        shared adjacency, different parallelisms."""
        base = _random_graph(5, 6, 0)
        rng = np.random.default_rng(1)
        return [
            GraphSample(x=base.x, a_in=base.a_in, a_out=base.a_out, p=rng.uniform(0, 1, 5),
                        y_node=base.y_node, y_graph=base.y_graph)
            for _ in range(7)
        ]

    def _check(self, gnn, samples, stack):
        out, emb = gnn.forward(stack), gnn.embed(stack)
        loss, grads = gnn.loss_grads(stack)
        assert out.shape[0] == emb.shape[0] == loss.shape[0] == len(samples)
        for i, s in enumerate(samples):
            assert np.array_equal(out[i], gnn.forward(s))
            assert np.array_equal(emb[i], gnn.embed(s))
            loss_i, grads_i = gnn.loss_grads(s)
            assert loss[i] == loss_i
            assert grads.keys() == grads_i.keys() == gnn.params.keys()
            for k in grads_i:
                assert grads_i[k].shape == gnn.params[k].shape
                assert np.array_equal(grads[k][i], grads_i[k]), k

    @pytest.mark.parametrize("make", [_node_gnn, _graph_gnn])
    def test_stack_of_different_graphs(self, make):
        samples = self._same_size()
        self._check(make(), samples, _stack(samples))

    def test_stack_differing_only_in_parallelism(self):
        samples = self._parallelism_only()
        self._check(_node_gnn(), samples, _stack(samples))

    def test_candidates_with_shared_adjacency(self):
        """ZeroTune's scoring: parallelism as a feature column, one
        [n, n] adjacency broadcast over the stack of candidates."""
        samples = [
            GraphSample(x=np.concatenate([s.x[:, :5], s.p[:, None]], axis=1),
                        a_in=s.a_in, a_out=s.a_out, y_graph=s.y_graph)
            for s in self._parallelism_only()
        ]
        stack = _stack(samples)
        stack.a_in, stack.a_out = samples[0].a_in, samples[0].a_out
        self._check(_graph_gnn(), samples, stack)

    def test_stack_by_size_groups_and_keeps_order(self):
        samples = [_random_graph(n, 6, i) for i, n in enumerate([3, 5, 3, 7, 5, 3])]
        copies = [_random_graph(n, 6, i) for i, n in enumerate([3, 5, 3, 7, 5, 3])]
        groups = stack_by_size(samples)
        assert [m.tolist() for m, _ in groups] == [[0, 2, 5], [1, 4], [3]]
        for members, stack in groups:
            for row, i in enumerate(members):
                assert np.array_equal(stack.x[row], copies[i].x)
                assert np.array_equal(stack.a_in[row], copies[i].a_in)
                assert stack.y_graph[row] == copies[i].y_graph
                # the sample now reads its row of the stack: no second copy
                assert samples[i].x.base is stack.x
                assert np.array_equal(samples[i].p, copies[i].p)


def _reference_fit(gnn, samples, epochs, lr, seed):
    """``GNN.fit`` of a fresh GNN one graph at a time and one parameter
    array at a time: per-graph gradients summed in minibatch order, then
    Adam on each array."""
    rng = np.random.default_rng(seed)
    if gnn.head == "node_binary":
        n_pos = sum(int((s.y_node == 1).sum()) for s in samples)
        n_neg = sum(int((s.y_node == 0).sum()) for s in samples)
        gnn.pos_weight = max(1.0, n_neg / max(1, n_pos))
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(v) for k, v in gnn.params.items()}
    v = {k: np.zeros_like(w) for k, w in gnn.params.items()}
    t = 0
    history = []
    idx = np.arange(len(samples))
    for _ in range(epochs):
        rng.shuffle(idx)
        losses = []
        for start in range(0, len(idx), BATCH_SIZE):
            chunk = idx[start : start + BATCH_SIZE]
            agg = None
            for i in chunk:
                loss, grads = gnn.loss_grads(samples[i])
                losses.append(loss)
                if agg is None:
                    agg = grads
                else:
                    for k in agg:
                        agg[k] += grads[k]
            t += 1
            for k, g in agg.items():
                g = g / len(chunk)
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1**t)
                vhat = v[k] / (1 - b2**t)
                gnn.params[k] -= lr * mhat / (np.sqrt(vhat) + eps)
        history.append(float(np.mean(losses)))
    return history


@pytest.mark.parametrize("make", [_node_gnn, _graph_gnn])
def test_stacked_fit_matches_one_graph_at_a_time(make):
    """Mixed node counts, so minibatches split into several stacks."""
    samples = [_random_graph(n, 6, i) for i, n in enumerate([3, 5, 7, 5, 3, 10] * 6)]
    stacked, reference = make(), make()
    hist = stacked.fit(samples, epochs=3, lr=1e-2, seed=4)
    assert hist == _reference_fit(reference, samples, epochs=3, lr=1e-2, seed=4)
    for k, v in reference.params.items():
        assert np.array_equal(stacked.params[k], v), k


@pytest.mark.parametrize("make", [_node_gnn, _graph_gnn])
def test_fit_resumes_after_pickle(make):
    """Parameters and Adam state survive a pickle round trip: a second fit
    of the unpickled GNN equals the same two fits of one never pickled."""
    samples = [_random_graph(n, 6, i) for i, n in enumerate([3, 5, 7, 5, 3, 10] * 6)]
    kept, pickled = make(), make()
    kept.fit(samples, epochs=2, lr=1e-2, seed=4)
    pickled.fit(samples, epochs=2, lr=1e-2, seed=4)
    pickled = pickle.loads(pickle.dumps(pickled))
    assert pickled.fit(samples, epochs=2, lr=1e-2, seed=5) == kept.fit(samples, epochs=2, lr=1e-2, seed=5)
    for k, v in kept.params.items():
        assert np.array_equal(pickled.params[k], v), k


def test_sigmoid_stable():
    assert _sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
    assert _sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)
