"""Fine-tuning prediction models M_f with the monotonic constraint
(paper §IV-B).

Input is x = [h, p]: the parallelism-agnostic operator embedding h from
the frozen GNN encoder, plus the (scaled) parallelism degree p. Class 1
means "bottleneck". The monotonic constraint requires P(y=1 | h, p) to be
non-increasing in p — increasing parallelism can only reduce bottleneck
likelihood.

Three models, all from scratch in numpy (no sklearn/xgboost offline):

* :class:`MonotoneSVM` — Eq. 5: hinge loss with an RBF feature map on h
  (random Fourier features stand in for the kernel trick) and a *linear*
  term w_p·p constrained to w_p ≤ 0 by projection after every step.
* :class:`MonotoneGBDT` — XGBoost-style gradient boosting where splits on
  the parallelism feature that violate monotonicity get gain −∞ and leaf
  values are clipped to bound intervals propagated down the tree.
* :class:`PlainNN` — an unconstrained MLP, the ablation's NN baseline
  (Fig. 11a): it can (and does) learn locally non-monotone responses.

:func:`min_safe_parallelism` is Algorithm 2 line 8: the smallest p whose
prediction is non-bottleneck, read off one batched prediction over
p = 1..p_max.
"""
from __future__ import annotations

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def _stack(h, p) -> np.ndarray:
    """Model input rows [h, p]; a single row of ``h`` broadcasts over ``p``."""
    h, p = np.atleast_2d(h), np.atleast_1d(p)
    n = max(len(h), len(p))
    return np.column_stack([np.broadcast_to(h, (n, h.shape[1])), np.broadcast_to(p, (n,))])


def _balanced_weights(y: np.ndarray, sample_weight: np.ndarray | None) -> np.ndarray:
    """Class-balanced per-sample weights (optionally composed with caller
    weights). Bottleneck labels are heavily imbalanced — most historical
    deployments are over-provisioned — so unweighted fits collapse to the
    majority 'never a bottleneck' answer."""
    w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, float).copy()
    n_pos = max(1, int((y > 0).sum()))
    n_neg = max(1, int((y <= 0).sum()))
    n = len(y)
    w = w * np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return w


class MonotoneSVM:
    """Linear-in-p, RFF-kernelised-in-h SVM with w_p ≤ 0 (Eq. 5)."""

    def __init__(
        self,
        d: int,
        *,
        rff_dim: int = 128,
        gamma: float | None = None,
        lam: float = 1e-3,
        epochs: int = 100,
        lr: float = 0.05,
        p_scale: float = 16.0,
        seed: int = 0,
    ) -> None:
        self.d = d
        self.gamma = gamma  # None → sharpened median heuristic at fit time
        #: Internal magnification of the parallelism feature. The scaled
        #: p lives in [0, ~0.6]; without magnification the hinge
        #: subgradient on w_p is tiny and the learned slope is too flat,
        #: which inflates the predicted bottleneck boundary.
        self.p_scale = p_scale
        self.rff_dim, self.lam, self.epochs, self.lr = rff_dim, lam, epochs, lr
        self.omega = np.zeros((d, rff_dim))
        self.beta = np.zeros(rff_dim)
        self.mu = np.zeros(d)
        self.sd = np.ones(d)
        self.w_e = np.zeros(rff_dim)
        self.w_p = 0.0
        self.b = 0.0
        self._seed = seed

    def _phi(self, h: np.ndarray) -> np.ndarray:
        z = (h - self.mu) / self.sd
        return np.sqrt(2.0 / self.rff_dim) * np.cos(z @ self.omega + self.beta)

    def _prepare(self, h: np.ndarray) -> None:
        """Standardise the embedding space and pick the RBF bandwidth by
        the median-distance heuristic, then draw the Fourier features."""
        self.mu = h.mean(axis=0)
        self.sd = h.std(axis=0)
        self.sd[self.sd < 1e-8] = 1.0
        z = (h - self.mu) / self.sd
        rng = np.random.default_rng(self._seed)
        if self.gamma is None:
            n = len(z)
            idx = rng.choice(n, size=min(128, n), replace=False)
            sub = z[idx]
            d2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(-1)
            med = float(np.median(d2[d2 > 0])) if (d2 > 0).any() else 1.0
            # Sharper than the plain median heuristic: bottleneck
            # boundaries are local in embedding space.
            gamma = 10.0 / max(med, 1e-6)
        else:
            gamma = self.gamma
        self.omega = rng.normal(0, np.sqrt(2 * gamma), size=(self.d, self.rff_dim))
        self.beta = rng.uniform(0, 2 * np.pi, size=self.rff_dim)

    def fit(
        self,
        h: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MonotoneSVM":
        """Projected subgradient descent on the (class-balanced, weighted)
        hinge objective; the projection w_p ← min(w_p, 0) enforces the
        monotonic constraint."""
        self._prepare(np.asarray(h))
        phi = self._phi(h)
        p = np.asarray(p) * self.p_scale
        t = np.where(np.asarray(y) > 0, 1.0, -1.0)
        w = _balanced_weights(np.asarray(y), sample_weight)
        rng = np.random.default_rng(self._seed + 1)
        n = len(t)
        idx = np.arange(n)
        for ep in range(self.epochs):
            rng.shuffle(idx)
            lr = self.lr / (1.0 + 0.01 * ep)
            for i in idx:
                margin = t[i] * (phi[i] @ self.w_e + self.w_p * p[i] + self.b)
                # regularisation subgradient
                gw = self.lam * self.w_e
                gp = self.lam * self.w_p
                gb = 0.0
                if margin < 1.0:
                    gw = gw - w[i] * t[i] * phi[i]
                    gp = gp - w[i] * t[i] * p[i]
                    gb = -w[i] * t[i]
                self.w_e -= lr * gw
                self.w_p -= lr * gp
                self.b -= lr * gb
                self.w_p = min(self.w_p, 0.0)  # monotonic projection
        return self

    def decision(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(h)
        return (
            self._phi(h) @ self.w_e
            + self.w_p * np.asarray(p) * self.p_scale
            + self.b
        )

    def predict_proba(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _sigmoid(2.0 * self.decision(h, p))

    def predict(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return (self.decision(h, p) > 0).astype(int)


#: Quantile levels of the split candidates kept per feature and node when
#: a feature has more than 8 distinct midpoints.
_CUT_Q = np.linspace(0.05, 0.95, 8)


def _cut_points(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split candidates of each row of ``V`` (every row sorted), padded to
    ``(len(V), 8)`` with NaN, and how many values of its row each one has
    at or below it.

    A row's candidates are the midpoints between its consecutive distinct
    values or, when there are more than 8, the 8 cut points
    ``np.quantile(midpoints, _CUT_Q)`` — numpy's ``linear`` method
    reproduced bit for bit: virtual index ``(n-1)*q``, then the two-sided
    lerp ``a + (b-a)*t`` below ``t = 0.5`` and ``b - (b-a)*(1-t)`` above."""
    D = V[:, 1:] != V[:, :-1]
    mids = ((V[:, :-1] + V[:, 1:]) / 2.0)[D]  # row after row
    if not len(mids):
        T = np.full((len(V), 8), np.nan)
    else:
        k = D.sum(axis=1)[:, None]  # midpoints per row
        many = k > 8
        # few midpoints: take them in order (t = 0); many: quantile cuts
        vi = np.where(many, (k - 1) * _CUT_Q, np.arange(8))
        prev = np.floor(vi).astype(np.intp)
        t = vi - prev
        at = np.cumsum(k) - k.ravel()  # each row's first midpoint in mids
        a = mids.take(np.minimum(at[:, None] + prev, len(mids) - 1))
        b = mids.take(np.minimum(at[:, None] + prev + 1, len(mids) - 1))
        diff = b - a
        lerp = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
        T = np.where(many, lerp, np.where(np.arange(8) < k, a, np.nan))
    return T, np.array([v.searchsorted(t, "right") for v, t in zip(V, T)])


class MonotoneGBDT:
    """Gradient-boosted trees with a decreasing-monotone constraint on
    the parallelism feature (the last column), XGBoost-style.

    The fitted ensemble is flat: node ``i`` of any tree splits on column
    ``feat[i]`` at ``thr[i]`` (``x <= thr`` goes to ``left[i]``, else
    ``right[i]``); a leaf points to itself and carries ``value[i]``;
    ``roots`` holds each tree's first node."""

    def __init__(
        self,
        *,
        n_rounds: int = 40,
        max_depth: int = 4,
        eta: float = 0.3,
        lam: float = 1.0,
        min_child: float = 1e-3,
        colsample: float = 0.35,
        seed: int = 0,
    ) -> None:
        self.n_rounds, self.max_depth, self.eta = n_rounds, max_depth, eta
        self.lam, self.min_child = lam, min_child
        #: Fraction of embedding features examined per tree (the
        #: parallelism feature is always included) — XGBoost's
        #: colsample_bytree, which also keeps the split search small.
        self.colsample = colsample
        self._rng = np.random.default_rng(seed)
        self.base = 0.0
        self.roots = self.feat = self.left = self.right = np.zeros(0, dtype=np.intp)
        self.thr = self.value = np.zeros(0)

    # -- tree construction -------------------------------------------------
    def _leaf_value(self, g, hs, lo, hi):
        # np.clip's result, signed zeros included, at a third of its cost
        return np.minimum(np.maximum(-g / (hs + self.lam), lo), hi)

    def _best_split(self, XT, XF, g, h, rows, lo, hi, feats):
        """The split the exhaustive scan picks at one node: the first
        ``(feature, threshold)`` in scan order with the largest gain above
        1e-6, or None. ``XT`` is the training matrix transposed and ``XF``
        its rows ``feats``; ``rows[0]`` lists the node's rows in training
        order and ``rows[1 + k]`` the same rows sorted by ``feats[k]``.

        Every candidate is scored at once from prefix sums over the sorted
        rows. Those sums differ from per-candidate masked sums in the last
        bits, so each score gets an upper bound on that error, and the
        candidates whose bound reaches the best exact gain are re-scored
        with masked sums — the scan's own arithmetic, which decides ties
        and near-ties exactly as the scan does."""
        lam, p_idx = self.lam, len(XT) - 1
        r0, srt = rows[0], rows[1:]
        F, m = srt.shape
        gn, hn = g.take(r0), h.take(r0)
        G, H = gn.sum(), hn.sum()
        parent_score = G**2 / (H + lam)
        V = XF.take(srt + np.arange(0, XF.size, XF.shape[1])[:, None])
        T, n_left = _cut_points(V)
        Gc, Hc = np.zeros((F, m + 1)), np.zeros((F, m + 1))  # prefix sums
        np.cumsum(g.take(srt), axis=1, out=Gc[:, 1:])
        np.cumsum(h.take(srt), axis=1, out=Hc[:, 1:])
        at = n_left + np.arange(0, Gc.size, m + 1)[:, None]
        GL, HL = Gc.take(at), Hc.take(at)
        GR, HR = Gc[:, -1:] - GL, Hc[:, -1:] - HL
        # Prefix sums and masked sums of m terms each err by at most
        # m·eps·Σ|g| (m·eps·H for hessians). With |G·| ≤ Σ|g| and H· + lam
        # ≥ lam, that bounds every approximate gain's and leaf value's
        # distance from the masked-sum one; ``rel`` carries a 2× margin.
        rel, A = 4.0 * m * np.finfo(float).eps, np.abs(gn).sum()
        eH = rel * H
        tol = rel * A * A / lam * (8.0 + 2.0 * H / lam)
        gain_ub = GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent_score + tol
        ok = ~np.isnan(T) & (HL + eH >= self.min_child) & (HR + eH >= self.min_child)
        wl, wr = self._leaf_value(GL[-1], HL[-1], lo, hi), self._leaf_value(GR[-1], HR[-1], lo, hi)
        ok[-1] &= wl + rel * (3.0 * A * (1.0 + H / lam) / lam + 8.0) >= wr  # feats[-1] is p
        gain_ub = np.where(ok, gain_ub, -np.inf).ravel()
        best_gain, best = 1e-6, None
        for c in np.argsort(-gain_ub, kind="stable"):
            if gain_ub[c] < best_gain:
                break
            f, thr = feats[c // 8], T.flat[c]
            mask = XT[f].take(r0) <= thr
            gl, hl = gn[mask].sum(), hn[mask].sum()
            gr, hr = gn[~mask].sum(), hn[~mask].sum()
            if hl < self.min_child or hr < self.min_child:
                continue
            if f == p_idx and self._leaf_value(gl, hl, lo, hi) < self._leaf_value(gr, hr, lo, hi):
                continue
            gain = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent_score
            if gain > best_gain or (best is not None and gain == best_gain and c < best[0]):
                best_gain, best = gain, (c, f, thr, gl, hl, gr, hr)
        return None if best is None else best[1:]

    def _grow(self, XT, g, h, order, feats, nodes: list) -> np.ndarray:
        """Append one tree to ``nodes`` (rows ``[feat, thr, left, right,
        value]``, numbered across the ensemble) and return the leaf value
        each training row reached.

        Pending nodes sit on an explicit stack. A recursive builder written
        as a closure that calls itself is a reference cycle: it keeps every
        round's row arrays alive until the next garbage-collector pass,
        which raised the sweeps' peak RSS by 8–11 % when measured."""
        p_idx = len(XT) - 1
        XF = XT[feats]
        reached = np.empty(len(g))
        stack = [(len(nodes), np.vstack([np.arange(len(g)), order[feats]]), 0, -4.0, 4.0)]
        nodes.append([0, 0.0, 0, 0, 0.0])
        while stack:
            i, rows, depth, lo, hi = stack.pop()
            node = nodes[i]
            node[4] = float(self._leaf_value(g.take(rows[0]).sum(), h.take(rows[0]).sum(), lo, hi))
            split = None
            if depth < self.max_depth and rows.shape[1] >= 4:
                split = self._best_split(XT, XF, g, h, rows, lo, hi, feats)
            if split is None:
                node[2] = node[3] = i
                reached[rows[0]] = node[4]
                continue
            f, t, gl, hl, gr, hr = split
            go_left = XT[f].take(rows) <= t
            node[:4] = [f, float(t), len(nodes), len(nodes) + 1]
            nodes += [[0, 0.0, 0, 0, 0.0], [0, 0.0, 0, 0, 0.0]]
            lb = rb = (lo, hi)
            if f == p_idx:
                mid = 0.5 * (self._leaf_value(gl, hl, lo, hi) + self._leaf_value(gr, hr, lo, hi))
                lb, rb = (mid, hi), (lo, mid)
            stack.append((node[3], rows[~go_left].reshape(len(rows), -1), depth + 1) + rb)
            stack.append((node[2], rows[go_left].reshape(len(rows), -1), depth + 1) + lb)
            del rows, go_left
        return reached

    # -- boosting ------------------------------------------------------------
    def fit(
        self,
        h: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MonotoneGBDT":
        """Boost ``n_rounds`` trees. Fitting creates no reference cycles,
        so each round's arrays are freed as soon as the round ends."""
        X = np.column_stack([h, p])
        y = np.asarray(y, dtype=float)
        w = _balanced_weights(y, sample_weight)
        pos = float(np.clip((w * y).sum() / w.sum(), 1e-3, 1 - 1e-3))
        self.base = float(np.log(pos / (1 - pos)))
        f = np.full(len(y), self.base)
        p_idx = X.shape[1] - 1
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1, kind="stable")  # every column, once
        n_emb = X.shape[1] - 1
        n_take = max(4, int(np.ceil(self.colsample * n_emb)))
        nodes: list = []
        roots = []
        for _ in range(self.n_rounds):
            prob = _sigmoid(f)
            grad = w * (prob - y)
            hess = np.maximum(w * prob * (1 - prob), 1e-6)
            feats = list(self._rng.choice(n_emb, size=min(n_take, n_emb), replace=False))
            feats.append(p_idx)  # the constrained feature is always in
            roots.append(len(nodes))
            f = f + self.eta * self._grow(XT, grad, hess, order, np.array(feats), nodes)
        table = np.array(nodes, dtype=float).reshape(-1, 5)
        self.roots = np.array(roots, dtype=np.intp)
        self.feat, self.left, self.right = (table[:, k].astype(np.intp) for k in (0, 2, 3))
        self.thr, self.value = table[:, 1], table[:, 4]
        return self

    def decision(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Log-odds of a bottleneck; one row of ``h`` broadcasts over ``p``.
        Every row descends all trees at once, one level per step."""
        X = _stack(h, p)
        node = np.tile(self.roots, (len(X), 1))
        at = np.arange(len(X))[:, None]
        for _ in range(self.max_depth):
            node = np.where(
                X[at, self.feat[node]] <= self.thr[node], self.left[node], self.right[node]
            )
        # base + eta·v_1 + eta·v_2 + …, added in tree order
        terms = np.column_stack([np.full(len(X), self.base), self.eta * self.value[node]])
        return np.cumsum(terms, axis=1)[:, -1]

    def predict_proba(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision(h, p))

    def predict(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return (self.decision(h, p) > 0).astype(int)


class PlainNN:
    """Unconstrained 2-layer MLP on [h, p] — the Fig. 11a NN ablation.
    Nothing enforces monotonicity in p, so its bottleneck-boundary search
    can (and in the ablation does) stop at unsafe parallelisms."""

    def __init__(self, d: int, *, hidden: int = 32, epochs: int = 200, lr: float = 1e-2, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.W1 = rng.normal(0, np.sqrt(2.0 / (d + 1)), (d + 1, hidden))
        self.b1 = np.zeros(hidden)
        self.W2 = rng.normal(0, np.sqrt(2.0 / hidden), (hidden, 1))
        self.b2 = np.zeros(1)
        self.epochs, self.lr = epochs, lr

    def _forward(self, X):
        pre1 = X @ self.W1 + self.b1
        u = np.maximum(pre1, 0)
        out = u @ self.W2 + self.b2
        return pre1, u, out.ravel()

    def fit(
        self,
        h: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "PlainNN":
        X = np.column_stack([h, p])
        y = np.asarray(y, dtype=float)
        w = _balanced_weights(y, sample_weight)
        w = w / w.sum()
        m = {k: 0.0 for k in ("W1", "b1", "W2", "b2")}
        v = {k: 0.0 for k in ("W1", "b1", "W2", "b2")}
        t = 0
        for _ in range(self.epochs):
            pre1, u, logit = self._forward(X)
            prob = _sigmoid(logit)
            dlogit = (w * (prob - y)).reshape(-1, 1)
            grads = {
                "W2": u.T @ dlogit,
                "b2": dlogit.sum(axis=0),
            }
            du = dlogit @ self.W2.T
            dpre1 = du * (pre1 > 0)
            grads["W1"] = X.T @ dpre1
            grads["b1"] = dpre1.sum(axis=0)
            t += 1
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + 0.1 * g
                v[k] = 0.999 * v[k] + 0.001 * g * g
                mh = m[k] / (1 - 0.9**t)
                vh = v[k] / (1 - 0.999**t)
                setattr(self, k, getattr(self, k) - self.lr * mh / (np.sqrt(vh) + 1e-8))
        return self

    def decision(self, h: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._forward(_stack(h, p))[2]

    def predict_proba(self, h, p):
        return _sigmoid(self.decision(h, p))

    def predict(self, h, p):
        return (self.decision(h, p) > 0).astype(int)


def make_model(kind: str, d: int, *, seed: int = 0):
    """Factory for the fine-tuning model M_f."""
    if kind == "svm":
        return MonotoneSVM(d, seed=seed)
    if kind == "xgboost":
        return MonotoneGBDT(seed=seed)
    if kind == "nn":
        return PlainNN(d, seed=seed)
    raise ValueError(f"unknown fine-tune model {kind!r}")


def min_safe_parallelism(
    model, h: np.ndarray, p_max: int, scale, *, threshold: float = 0.5
) -> int:
    """Algorithm 2, line 8: min{p ≤ p_max | M_f(h, p) = 0}.

    Scores p = 1..p_max for the one operator embedding ``h`` in a single
    ``predict_proba`` call and returns the first p predicted safe, or
    p_max when none is. For a monotone model that is the bottleneck
    boundary itself; for the unconstrained NN it is the first hole in the
    predicted-bottleneck region, which is how the ablation's NN
    under-provisions. ``scale`` maps an array of raw p to the model's
    feature space.
    """
    ps = np.arange(1, p_max + 1)
    safe = model.predict_proba(np.atleast_2d(h), scale(ps)) <= threshold
    return int(ps[safe.argmax()]) if safe.any() else p_max
