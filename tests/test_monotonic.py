"""Tests for the monotonic fine-tuning models M_f (§IV-B)."""
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.monotonic import (
    MonotoneGBDT,
    MonotoneSVM,
    PlainNN,
    _cut_points,
    make_model,
    min_safe_parallelism,
)


def _boundary_data(n=600, d=6, seed=0):
    """Synthetic task: bottleneck iff p < boundary(h), boundary a smooth
    function of the first feature."""
    rng = np.random.default_rng(seed)
    h = rng.normal(0, 1, (n, d))
    boundary = 0.3 + 0.4 * (1 / (1 + np.exp(-h[:, 0])))  # in (0.3, 0.7)
    p = rng.uniform(0, 1, n)
    y = (p < boundary).astype(int)
    return h, p, y, boundary


MODELS = {
    "svm": lambda d: MonotoneSVM(d, seed=0, epochs=60),
    "xgboost": lambda d: MonotoneGBDT(seed=0, n_rounds=30),
    "nn": lambda d: PlainNN(d, seed=0, epochs=150),
}


@pytest.mark.parametrize("kind", ["svm", "xgboost", "nn"])
class TestAllModels:
    def test_fits_and_predicts(self, kind):
        h, p, y, _ = _boundary_data()
        m = MODELS[kind](h.shape[1]).fit(h, p, y)
        acc = ((m.predict_proba(h, p) > 0.5) == y).mean()
        assert acc > 0.8, f"{kind} acc={acc}"

    def test_proba_in_unit_interval(self, kind):
        h, p, y, _ = _boundary_data()
        m = MODELS[kind](h.shape[1]).fit(h, p, y)
        pr = m.predict_proba(h[:50], p[:50])
        assert np.all(pr >= 0) and np.all(pr <= 1)

    def test_fitted_model_is_read_only(self, kind):
        """Tuners share a fitted M_f: predicting and the boundary scan
        change none of its attributes, arrays and random state included."""
        h, p, y, _ = _boundary_data(n=200)
        m = MODELS[kind](h.shape[1]).fit(h, p, y)

        def snapshot():
            out = {}
            for k, v in vars(m).items():
                if isinstance(v, np.ndarray):
                    out[k] = (v.dtype, v.shape, v.tobytes())
                elif isinstance(v, np.random.Generator):
                    out[k] = repr(v.bit_generator.state)
                else:
                    out[k] = repr(v)
            return out

        before = snapshot()
        assert any(isinstance(v, np.ndarray) for v in vars(m).values())
        m.predict_proba(h[:20], p[:20])
        min_safe_parallelism(m, h[0], 40, lambda ps: ps / 40.0)
        assert snapshot() == before

    def test_handles_sample_weight(self, kind):
        h, p, y, _ = _boundary_data(n=200)
        w = np.ones(len(y))
        m = MODELS[kind](h.shape[1]).fit(h, p, y, sample_weight=w)
        assert (m.predict_proba(h[:5], p[:5]) > 0.5).shape == (5,)

    def test_handles_imbalance(self, kind):
        """With 5 % positives an unweighted fit collapses to all-0; the
        balanced weighting must keep recall on the positive class."""
        rng = np.random.default_rng(1)
        n = 800
        h = rng.normal(0, 1, (n, 4))
        p = rng.uniform(0, 1, n)
        y = ((p < 0.15) & (h[:, 0] > 0)).astype(int)
        m = MODELS[kind](4).fit(h, p, y)
        pos = y == 1
        if pos.sum() > 5:
            recall = (m.predict_proba(h[pos], p[pos]) > 0.5).mean()
            assert recall > 0.5, f"{kind} recall={recall}"


@pytest.mark.parametrize("kind", ["svm", "xgboost"])
class TestMonotoneConstraint:
    def test_probability_nonincreasing_in_p(self, kind):
        """The formal constraint: p(h, p1) ≥ p(h, p2) whenever p1 ≤ p2."""
        h, p, y, _ = _boundary_data()
        m = MODELS[kind](h.shape[1]).fit(h, p, y)
        ps = np.linspace(0, 1, 21)
        for row in h[:20]:
            probs = m.predict_proba(np.tile(row, (21, 1)), ps)
            assert np.all(np.diff(probs) <= 1e-9), f"{kind} not monotone"


class TestSVMSpecifics:
    def test_wp_nonpositive(self):
        h, p, y, _ = _boundary_data()
        m = MonotoneSVM(h.shape[1], seed=0, epochs=30).fit(h, p, y)
        assert m.w_p <= 0.0


class TestGBDTSpecifics:
    def test_monotone_even_with_adversarial_labels(self):
        """Labels that *reward* non-monotone behaviour must still produce
        a monotone ensemble (violating splits get gain −∞)."""
        rng = np.random.default_rng(2)
        n = 400
        h = rng.normal(0, 1, (n, 3))
        p = rng.uniform(0, 1, n)
        y = ((p > 0.4) & (p < 0.6)).astype(int)  # bump in the middle
        m = MonotoneGBDT(seed=0, n_rounds=20).fit(h, p, y)
        ps = np.linspace(0, 1, 31)
        for row in h[:10]:
            probs = m.predict_proba(np.tile(row, (31, 1)), ps)
            assert np.all(np.diff(probs) <= 1e-9)


def _scan_split(model, X, g, h, lo, hi, feats):
    """Reference split search: every feature's candidates in scan order,
    scored with masked sums; the first largest gain above 1e-6 wins."""
    lam, p_idx = model.lam, X.shape[1] - 1
    leaf = lambda gs, hs: float(np.clip(-gs / (hs + lam), lo, hi))  # noqa: E731
    parent = g.sum() ** 2 / (h.sum() + lam)
    best_gain, best = 1e-6, None
    for f in feats:
        xs = np.unique(X[:, f])
        if len(xs) < 2:
            continue
        cands = (xs[:-1] + xs[1:]) / 2.0
        if len(cands) > 8:
            cands = np.quantile(cands, np.linspace(0.05, 0.95, 8))
        for thr in cands:
            mask = X[:, f] <= thr
            gl, hl, gr, hr = g[mask].sum(), h[mask].sum(), g[~mask].sum(), h[~mask].sum()
            if hl < model.min_child or hr < model.min_child:
                continue
            if f == p_idx and leaf(gl, hl) < leaf(gr, hr):
                continue
            gain = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent
            if gain > best_gain:
                best_gain, best = gain, (f, thr)
    return best


class TestGBDTSplitSearch:
    @pytest.mark.parametrize("seed", range(12))
    def test_cut_points_match_unique_and_quantile(self, seed):
        rng = np.random.default_rng(seed)
        V = np.sort(np.round(rng.normal(0, 1, (6, 40)), seed % 3), axis=1)
        V[0] = 0.5  # constant row: no candidates
        V[1, :20], V[1, 20:] = np.nextafter(1.0, 0.0), 1.0  # midpoint rounds up to 1.0
        T, n_left = _cut_points(V)
        for v, t, n in zip(V, T, n_left):
            xs = np.unique(v)
            want = (xs[:-1] + xs[1:]) / 2.0
            if len(want) > 8:
                want = np.quantile(want, np.linspace(0.05, 0.95, 8))
            assert t[: len(want)].tolist() == want.tolist()
            assert np.isnan(t[len(want):]).all()
            assert n[: len(want)].tolist() == [(v <= c).sum() for c in want]

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_scan(self, seed):
        """Same split as the exhaustive scan, ties and near-ties included,
        on nodes with tied, constant and duplicated feature values."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(8, 300)), 6
        X = np.column_stack([
            rng.integers(0, 3, (n, 2)).astype(float),  # heavy ties
            np.full(n, 0.25),  # constant
            rng.normal(0, 1, (n, 2)),
            np.zeros(n),
            rng.integers(1, 13, n) / 12.0,  # parallelism
        ])
        X[n // 2:, 3] = X[: n - n // 2, 3]  # duplicated values
        X[:, 5] = -X[:, 0]  # mirrors feature 0: equal gains, sums in another order
        y = (X[:, 0] > 0).astype(float) if seed % 2 else (X[:, -1] < 0.3 + 0.1 * X[:, 0]).astype(float)
        w = np.where(rng.random(n) < 0.3, 5.0, 1.0)
        prob = 1 / (1 + np.exp(-rng.normal(0, 0.5, n) * (seed % 4 > 1)))
        g, h = w * (prob - y), np.maximum(w * prob * (1 - prob), 1e-6)
        node = np.sort(rng.choice(n, size=max(4, n * 2 // 3), replace=False))
        feats = np.array([*rng.permutation(d), d])
        lo, hi = (-4.0, 4.0) if seed % 3 else (-0.2, 0.7)
        model = MonotoneGBDT()
        XT = np.ascontiguousarray(X.T)
        rows = np.vstack([node, node[np.argsort(XT[feats][:, node], axis=1, kind="stable")]])
        got = model._best_split(XT, g, h, rows, lo, hi, feats)
        want = _scan_split(model, X[node], g[node], h[node], lo, hi, feats)
        assert (None if got is None else got[:2]) == want

    @pytest.mark.parametrize("seed", range(12))
    def test_constant_columns_change_no_split(self, seed):
        """Constant columns interleaved into a node's column list add no
        candidate and reorder none: the split is the same, bit for bit,
        once column indices are mapped back."""
        rng = np.random.default_rng(100 + seed)
        n, d, n_const = int(rng.integers(8, 300)), 5, 4
        X = np.column_stack([
            rng.integers(0, 3, (n, 2)).astype(float),
            rng.normal(0, 1, (n, 3)),
            rng.integers(1, 13, n) / 12.0,  # parallelism
        ])
        X[:, 4] = -X[:, 0]  # mirrors feature 0: equal gains decided by scan order
        y = (X[:, -1] < 0.3 + 0.1 * X[:, 0]).astype(float)
        w = np.where(rng.random(n) < 0.3, 5.0, 1.0)
        g, h = w * (0.5 - y), 0.25 * w
        const = np.sort(rng.choice(d + n_const, n_const, replace=False))
        live = np.setdiff1d(np.arange(d + n_const), const)
        W = np.zeros((n, d + n_const + 1))
        W[:, live], W[:, const], W[:, -1] = X[:, :d], rng.choice([0.0, 1.0, -2.5], n_const), X[:, -1]
        feats = rng.permutation(d)
        wide = list(live[feats])
        for c in const:
            wide.insert(int(rng.integers(0, len(wide) + 1)), c)
        node = np.sort(rng.choice(n, size=max(4, n * 2 // 3), replace=False))
        lo, hi = (-4.0, 4.0) if seed % 3 else (-0.2, 0.7)
        model = MonotoneGBDT()
        got = []
        for M, cols in ((X, [*feats, d]), (W, [*wide, d + n_const])):
            XT, cols = np.ascontiguousarray(M.T), np.array(cols)
            rows = np.vstack([node, node[np.argsort(XT[cols][:, node], axis=1, kind="stable")]])
            got.append(model._best_split(XT, g, h, rows, lo, hi, cols))
        narrow = dict(zip(live, range(d))) | {d + n_const: d}
        assert got[0] is not None
        assert got[0] == (narrow[got[1][0]], *got[1][1:])


class TestPlainNN:
    def test_can_learn_nonmonotone_shape(self):
        """The ablation's point: the NN *can* fit a non-monotone response,
        which is what breaks its boundary search."""
        rng = np.random.default_rng(3)
        n = 600
        h = np.zeros((n, 2))
        p = rng.uniform(0, 1, n)
        y = ((p > 0.4) & (p < 0.7)).astype(int)
        m = PlainNN(2, seed=0, epochs=400).fit(h, p, y)
        probs = m.predict_proba(np.zeros((31, 2)), np.linspace(0, 1, 31))
        assert np.any(np.diff(probs) > 1e-6)  # goes up somewhere


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_model("svm", 4), MonotoneSVM)
        assert isinstance(make_model("xgboost", 4), MonotoneGBDT)
        assert isinstance(make_model("nn", 4), PlainNN)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("forest", 4)


class TestMinSafeParallelism:
    class _Step:
        """Safe iff p ≥ boundary."""

        def __init__(self, boundary):
            self.boundary = boundary

        def predict_proba(self, h, p):
            return np.where(np.asarray(p) >= self.boundary, 0.0, 1.0)

    def test_binary_search_finds_boundary(self):
        m = self._Step(boundary=0.37)
        p = min_safe_parallelism(m, np.zeros(3), 100, lambda q: q / 100.0)
        assert p == 37

    def test_all_unsafe_returns_pmax(self):
        m = self._Step(boundary=2.0)
        assert min_safe_parallelism(m, np.zeros(3), 50, lambda q: q / 100.0) == 50

    def test_all_safe_returns_one(self):
        m = self._Step(boundary=0.0)
        assert min_safe_parallelism(m, np.zeros(3), 50, lambda q: q / 100.0) == 1

    def test_linear_scan_for_nonmonotone(self):
        class Bumpy:
            def predict_proba(self, h, p):
                q = np.asarray(p)
                return np.where((q > 0.05) & (q < 0.2), 1.0, 0.0)

        p = min_safe_parallelism(Bumpy(), np.zeros(2), 100, lambda q: q / 100.0)
        assert p == 1  # scan stops at the first hole — the NN failure mode

    @pytest.mark.parametrize("kind", ["svm", "xgboost", "nn"])
    @pytest.mark.parametrize("p_max", [12, 100])
    @pytest.mark.parametrize("threshold", [0.35, 0.5])
    def test_matches_brute_force(self, fitted, kind, p_max, threshold):
        """The batched scan returns min{p : proba(h, p) ≤ threshold}, or
        p_max when no p qualifies, with proba scored one p at a time."""
        h, models = fitted
        m = models[kind]
        for stretch in (1.0, 0.1):  # 0.1 keeps every p below the boundary
            scale = lambda q: stretch * np.asarray(q) / p_max  # noqa: E731
            for row in h[:12]:
                safe = [
                    q for q in range(1, p_max + 1)
                    if m.predict_proba(row[None, :], np.array([scale(q)]))[0] <= threshold
                ]
                want = safe[0] if safe else p_max
                assert min_safe_parallelism(m, row, p_max, scale, threshold=threshold) == want

    @pytest.mark.parametrize("kind", ["svm", "xgboost", "nn", "step"])
    def test_one_predict_proba_call(self, fitted, kind):
        """Each operator's boundary costs exactly one predict_proba call."""
        h, models = fitted
        model = self._Step(boundary=0.37) if kind == "step" else models[kind]
        calls = []

        class Counting:
            def predict_proba(self, h, p):
                calls.append(len(np.atleast_1d(p)))
                return model.predict_proba(h, p)

        min_safe_parallelism(Counting(), h[0], 100, lambda q: q / 100.0)
        assert calls == [100]


@pytest.fixture(scope="module")
def fitted():
    """Embeddings and one model of each kind fitted on them."""
    h, p, y, _ = _boundary_data(n=300, seed=7)
    return h, {kind: MODELS[kind](h.shape[1]).fit(h, p, y) for kind in ("svm", "xgboost", "nn")}


def test_gbdt_fit_leaves_no_cyclic_garbage():
    """Fitting creates no reference cycles, so its arrays are freed as soon
    as the fit returns rather than at the next garbage-collector pass
    (a cycle-holding tree builder raised the sweeps' peak RSS by 8–11 %)."""
    h, p, y, _ = _boundary_data(n=300)
    gc.collect()
    gc.disable()
    try:
        MonotoneGBDT(seed=0, n_rounds=5).fit(h, p, y)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _golden_case(name):
    """Training data and model of one pinned GBDT fit: (model, h, p, y, w)."""
    rng = np.random.default_rng(11)
    w = None
    if name == "continuous":
        h, p, y, _ = _boundary_data(n=300, d=6, seed=0)
        model = MonotoneGBDT(seed=0, n_rounds=15)
    elif name == "integer_ties":
        h = rng.integers(0, 3, (300, 5)).astype(float)
        p = rng.integers(1, 13, 300) / 12.0
        y = (p < (1 + h[:, 0] + h[:, 1]) / 8.0).astype(int)
        y[rng.random(300) < 0.1] ^= 1
        model = MonotoneGBDT(seed=1, n_rounds=15)
    elif name == "constant_columns":
        h, p, y, _ = _boundary_data(n=250, d=5, seed=4)
        h[:, 1], h[:, 3] = 0.5, -2.0
        model = MonotoneGBDT(seed=2, n_rounds=15, colsample=1.0)
    elif name == "bump":
        h = rng.normal(0, 1, (400, 3))
        p = rng.uniform(0, 1, 400)
        y = ((p > 0.4) & (p < 0.6)).astype(int)
        model = MonotoneGBDT(seed=0, n_rounds=20)
    elif name == "weighted":
        # the tuner's shape: 32-dim embeddings, feedback rows weighted 5×
        h, p, y, _ = _boundary_data(n=600, d=32, seed=5)
        w = np.where(np.arange(600) >= 400, 5.0, 1.0)
        model = MonotoneGBDT(seed=3)
    elif name == "mf_shaped":
        # M_f's real rows: a third of the columns constant (dead ReLU units,
        # unused one-hot categories), a quarter binary (one-hots), p on the
        # 1/p_max grid, about 2 % bottlenecks and feedback rows weighted 5×
        n = 900
        h = np.column_stack([
            np.maximum(rng.normal(0, 1, (n, 17)), 0.0),  # live ReLU units
            rng.integers(0, 2, (n, 10)).astype(float),  # one-hot categories
            np.repeat([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.0, 0.0, 0.0, 2.0]], n, 0),
        ])[:, rng.permutation(40)]
        p = rng.integers(1, 101, n) / 100.0
        y = (p < 0.01 + 0.03 / (1.0 + np.exp(-h[:, :20].sum(axis=1) + 5.0))).astype(int)
        y[rng.random(n) < 0.005] = 1
        w = np.where(np.arange(n) >= 700, 5.0, 1.0)
        model = MonotoneGBDT(seed=4)
    else:
        raise KeyError(name)
    return model, h, p, y, w


def _golden_grid(h):
    """decision() inputs: the first 8 training embeddings × 11 parallelisms."""
    ps = np.linspace(0.0, 1.0, 11)
    return np.repeat(h[:8], len(ps), axis=0), np.tile(ps, 8)


_GBDT_GOLDEN = json.loads(Path(__file__).with_name("gbdt_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(_GBDT_GOLDEN))
def test_gbdt_golden_decisions(name):
    """Pinned decision() values of fixed GBDT fits: a refactor or speed-up
    of the tree builder must reproduce the same trees bit for bit."""
    model, h, p, y, w = _golden_case(name)
    model.fit(h, p, y, sample_weight=w)
    got = model.decision(*_golden_grid(h)).tolist()
    assert got == _GBDT_GOLDEN[name]
