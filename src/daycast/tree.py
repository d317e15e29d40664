"""Binary regression trees with pruning and periodic prototypes.

Leaves carry the mean of the training targets routed to them, so a tree
is a piecewise-constant fit over axis-aligned rectangles. Splits are
chosen greedily by exhaustive scan; candidate thresholds are midpoints
between consecutive distinct values of each input variable. For
forecasting periodic signals a tree over one base period doubles as a
prototype: queries are mapped into the base period before evaluation.
"""

import copy
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .series import Series


@dataclass
class Node:
    """Tree node; a leaf until split_var is set.

    n, mean and sse describe the training samples routed here; sse is
    the cost of serving them from this node as a single leaf.
    """

    n: int
    mean: float
    sse: float
    split_var: int | None = None
    split_point: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split_var is None


@dataclass(frozen=True)
class BestSplit:
    var: int
    point: float
    left_cost: float
    right_cost: float


@dataclass(frozen=True)
class GrowConfig:
    """Stopping rules for greedy growth.

    A node is split only while it holds at least min_node_size samples;
    max_leaves, when set, caps the leaf count with the largest
    error-reduction splits applied first.
    """

    min_node_size: int = 1
    max_leaves: int | None = None

    def __post_init__(self):
        if self.min_node_size < 1:
            raise ValueError(f"min_node_size must be >= 1, got {self.min_node_size}")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ValueError(f"max_leaves must be >= 1, got {self.max_leaves}")


def _as_table(train) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(train, Series):
        return train.times[:, None], train.values.copy()
    X, y = train
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows of X but {y.shape[0]} targets")
    return X, y


def best_split(X, y) -> BestSplit | None:
    """Exhaustive scan over all variables and midpoint thresholds.

    X is an (n, n_vars) array, or a length-n vector for one variable, as
    grow takes it. Ties in total cost keep the lowest variable index, then
    the lowest threshold; returns None when no split strictly reduces the
    cost.
    """
    X, y = _as_table((X, y))
    n = len(y)
    if n == 0:
        raise ValueError("best_split needs a nonempty training set")
    if n < 2:
        return None
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    tie = 1e-12 * max(1.0, parent_sse)  # closer costs tie; the first seen wins
    best: BestSplit | None = None
    best_cost = np.inf
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        cum = np.cumsum(ys)
        cum2 = np.cumsum(ys * ys)
        total, total2 = cum[-1], cum2[-1]
        # Split after position k (1-based count on the left), allowed only
        # between distinct x values.
        for k in range(1, n):
            if xs[k] == xs[k - 1]:
                continue
            left = cum2[k - 1] - cum[k - 1] ** 2 / k
            right = (total2 - cum2[k - 1]) - (total - cum[k - 1]) ** 2 / (n - k)
            cost = left + right
            if cost < best_cost - tie:
                best_cost = cost
                best = BestSplit(j, 0.5 * (xs[k - 1] + xs[k]), float(left), float(right))
    if best is None or best_cost >= parent_sse - tie:
        return None
    return best


def _make_node(y: np.ndarray, idx: np.ndarray) -> Node:
    vals = y[idx]
    mean = float(vals.mean())
    return Node(n=len(idx), mean=mean, sse=float(np.sum((vals - mean) ** 2)))


@dataclass
class Tree:
    """A grown regression tree over n_vars input variables."""

    root: Node
    n_vars: int = 1

    def predict(self, x):
        """Evaluate at a single point (scalar or feature vector) or a batch.

        A batch is an array of scalars for a one-variable tree, or an
        (m, n_vars) array with one point per row.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self._route(x[None])
        if x.ndim == 1 and self.n_vars > 1:
            return self._route(x)
        return np.array([self._route(row) for row in (x[:, None] if x.ndim == 1 else x)])

    def _route(self, x: np.ndarray) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.split_var] <= node.split_point else node.right
        return node.mean

    @property
    def n_leaves(self) -> int:
        return sum(1 for n in self.walk() if n.is_leaf)

    def walk(self):
        """Preorder iteration over all nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def leaf_sse(self) -> float:
        return sum(n.sse for n in self.walk() if n.is_leaf)


def grow(train, config: GrowConfig = GrowConfig()) -> Tree:
    """Greedy best-first growth until the stopping rules bind.

    Candidate node splits are expanded in order of decreasing error
    reduction, so a max_leaves cap keeps the most valuable splits; with
    no cap the result is the fixpoint of splitting every eligible node,
    independent of expansion order.
    """
    X, y = _as_table(train)
    if len(y) == 0:
        raise ValueError("training set must be nonempty")
    root = _make_node(y, np.arange(len(y)))
    ticket = itertools.count()
    heap: list = []

    def push(node: Node, idx: np.ndarray):
        if len(idx) < max(2, config.min_node_size):
            return
        bs = best_split(X[idx], y[idx])
        if bs is None:
            return
        gain = node.sse - (bs.left_cost + bs.right_cost)
        heapq.heappush(heap, (-gain, next(ticket), node, idx, bs))

    push(root, np.arange(len(y)))
    leaves = 1
    while heap and (config.max_leaves is None or leaves < config.max_leaves):
        _, _, node, idx, bs = heapq.heappop(heap)
        mask = X[idx, bs.var] <= bs.point
        node.split_var, node.split_point = bs.var, float(bs.point)
        node.left = _make_node(y, idx[mask])
        node.right = _make_node(y, idx[~mask])
        push(node.left, idx[mask])
        push(node.right, idx[~mask])
        leaves += 1
    return Tree(root, n_vars=X.shape[1])


def _weakest_link(node: Node, out: list, path_id: list):
    """Collect (g, id, node) for every internal node, children first;
    return the leaf sse and leaf count of the subtree at node."""
    if node.is_leaf:
        return node.sse, 1
    left_sse, left_leaves = _weakest_link(node.left, out, path_id)
    right_sse, right_leaves = _weakest_link(node.right, out, path_id)
    sub_sse, sub_leaves = left_sse + right_sse, left_leaves + right_leaves
    g = (node.sse - sub_sse) / (sub_leaves - 1)
    path_id[0] += 1
    out.append((g, path_id[0], node))
    return sub_sse, sub_leaves


def prune(tree: Tree, alpha: float) -> Tree:
    """Cost-complexity pruning: total leaf error plus alpha per leaf.

    Weakest-link collapsing: while the internal node whose removal costs
    the least error per removed leaf has a per-leaf increase <= alpha,
    collapse it. Collapsing on equality prefers the smaller tree, which
    is the unique minimizer of the criterion.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    pruned = Tree(copy.deepcopy(tree.root), n_vars=tree.n_vars)
    while not pruned.root.is_leaf:
        links: list = []
        _weakest_link(pruned.root, links, [0])
        g, _, node = min(links, key=lambda item: (item[0], item[1]))
        if g > alpha:
            break
        node.split_var = node.split_point = None
        node.left = node.right = None
    return pruned


@dataclass(frozen=True)
class BagEnsemble:
    """Average of the predictions of several trees."""

    trees: tuple

    def predict(self, x):
        preds = [t.predict(x) for t in self.trees]
        return float(np.mean(preds)) if np.isscalar(preds[0]) else np.mean(preds, axis=0)


@dataclass(frozen=True)
class PeriodicWrapper:
    """Treat a predictor over one base period as a prototype for all periods.

    A query at time t is answered by the inner predictor at
    ((t - t0) mod period) + t0.
    """

    inner: object
    period: int
    t0: int = 1

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def base_time(self, t):
        return (t - self.t0) % self.period + self.t0

    def predict(self, t):
        base = self.base_time(np.asarray(t, dtype=float))
        return self.inner.predict(base if base.ndim else float(base))


def fit_periodic_ensemble(series: Series, period: int,
                          config: GrowConfig = GrowConfig()) -> PeriodicWrapper:
    """One tree per full period, all on base-period coordinates, averaged.

    Supports training a periodic prototype on several consecutive
    periods of a signal; predictions are the ensemble mean evaluated
    after the modulo mapping. The full periods are counted back from the
    end of the series, so the samples right before a forecast window are
    always trained on; when period does not divide the series, its
    first len(series) % period samples are left out.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    n_periods, skip = divmod(len(series), period)
    if n_periods < 1:
        raise ValueError(f"series of length {len(series)} holds no full period of {period}")
    t0, values = series.t0 + skip, series.values[skip:]
    base_times = np.arange(t0, t0 + period, dtype=float)[:, None]
    trees = tuple(
        grow((base_times, values[k * period:(k + 1) * period]), config)
        for k in range(n_periods)
    )
    return PeriodicWrapper(BagEnsemble(trees), period, t0)
