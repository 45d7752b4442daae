"""CART core predictor: Gini-split decision tree over profiled features.

The estimator fits and predicts in the scikit-learn style (fit/predict),
but the tree itself is built here: greedy binary splits over midpoint
thresholds, scored by weighted Gini impurity, fully deterministic under fixed
tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ENCODING, ConfigError, System, read_input
from .constraints import Constraint
from .engine import PowerModel, exhaustive_sweep
from .features import FeatureVector
from .trace import Trace


def gini(class_counts) -> float:
    """Impurity 1 - sum(p_i^2) of a count vector."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be non-negative, got {counts}")
    total = sum(counts)
    if total <= 0:
        raise ValueError("counts sum to zero")
    return 1.0 - sum((c / total) ** 2 for c in counts)


class _Leaf:
    __slots__ = ("label", "counts")

    def __init__(self, label, counts):
        self.label = label
        self.counts = counts  # dict label -> training rows routed here


class _Split:
    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(self, feature, threshold, left, right, counts):
        self.feature = feature  # column index
        self.threshold = threshold
        self.left = left  # x[feature] <= threshold
        self.right = right
        self.counts = counts


class CorePredictor:
    """Decision-tree classifier mapping feature vectors to core labels.

    Parameters mirror common tree estimators: `max_depth` bounds the tree,
    `min_samples_leaf` keeps degenerate splits out. `feature_names` names the
    input columns; `label_order` fixes the class universe and the tie-break
    order used by predictions and rankings (lower index wins ties).
    """

    def __init__(self, max_depth=5, min_samples_leaf=1, feature_names=None,
                 label_order=None):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature_names = feature_names
        self.label_order = label_order

    # -- fitting -------------------------------------------------------------

    def fit(self, X, y):
        X, y = self._validate_training(X, y)
        order = list(self.label_order) if self.label_order else sorted(set(y))
        missing = set(y) - set(order)
        if missing:
            raise ValueError(f"labels {sorted(missing)} not in label_order")
        self.classes_ = tuple(order)
        self._rank = {lab: i for i, lab in enumerate(order)}
        self.n_features_in_ = len(X[0])
        self.root_ = self._build(X, y, list(range(len(y))), depth=0)
        return self

    def _validate_training(self, X, y):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        X = [[float(v) for v in row] for row in X]
        y = [str(lab) for lab in y]
        if not X:
            raise ValueError("training set is empty")
        if len(X) != len(y):
            raise ValueError(f"{len(X)} rows but {len(y)} labels")
        width = len(X[0])
        if width == 0:
            raise ValueError("rows have no features")
        if any(len(r) != width for r in X):
            raise ValueError("ragged feature rows")
        if self.feature_names is not None and len(self.feature_names) != width:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {width} columns")
        return X, y

    def _counts(self, y, idx):
        counts: dict[str, int] = {}
        for i in idx:
            counts[y[i]] = counts.get(y[i], 0) + 1
        return counts

    def _by_mass(self, counts):
        """The labels of `counts` by descending count, ties to the lower
        `label_order` index; a leaf's label is the first."""
        return sorted(counts, key=lambda lab: (-counts[lab], self._rank[lab]))

    def _build(self, X, y, idx, depth):
        counts = self._counts(y, idx)
        split = (None if len(counts) == 1 or depth >= self.max_depth
                 else self._best_split(X, y, idx, counts))
        if split is None:
            return _Leaf(self._by_mass(counts)[0], counts)
        feature, threshold, _ = split
        left_idx = [i for i in idx if X[i][feature] <= threshold]
        right_idx = [i for i in idx if X[i][feature] > threshold]
        return _Split(feature, threshold,
                      self._build(X, y, left_idx, depth + 1),
                      self._build(X, y, right_idx, depth + 1),
                      counts)

    def _best_split(self, X, y, idx, parent_counts):
        """Lowest weighted child Gini over all feature/midpoint candidates.

        Ties keep the first candidate scanned: lowest feature index, then
        lowest threshold, which pins the tree for identical inputs.
        """
        n = len(idx)
        parent = gini(parent_counts.values())
        labels = sorted(parent_counts, key=self._rank.__getitem__)
        pos = {lab: j for j, lab in enumerate(labels)}
        best = None  # (weighted_gini, feature, threshold, gain)
        for feature in range(self.n_features_in_):
            ordered = sorted(idx, key=lambda i: X[i][feature])
            left = [0] * len(labels)
            right = [parent_counts[lab] for lab in labels]
            n_left = 0
            for a, b in zip(ordered, ordered[1:]):
                j = pos[y[a]]
                left[j] += 1
                right[j] -= 1
                n_left += 1
                va, vb = X[a][feature], X[b][feature]
                if va == vb:
                    continue
                if n_left < self.min_samples_leaf or n - n_left < self.min_samples_leaf:
                    continue
                weighted = (n_left * gini(left) + (n - n_left) * gini(right)) / n
                if best is None or weighted < best[0] - 1e-15:
                    best = (weighted, feature, (va + vb) / 2.0, parent - weighted)
        if best is None or best[3] <= 1e-15:
            return None
        return best[1], best[2], best[3]

    # -- prediction ----------------------------------------------------------

    def _validate_row(self, x):
        if isinstance(x, FeatureVector):
            if self.feature_names is None:
                raise ValueError("estimator has no feature_names; pass a row")
            x = x.row(self.feature_names)
        row = [float(v) for v in x]
        if len(row) != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {len(row)}")
        return row

    def predict_one(self, x) -> str:
        return self.rank_labels(x)[0]

    def predict(self, X) -> list[str]:
        return [self.predict_one(x) for x in X]

    def rank_labels(self, x) -> list[str]:
        """All class labels, most plausible first.

        Starts with the reached leaf's classes by descending count, then
        walks back up adding each ancestor's other-branch classes by
        descending mass (nearest ancestors first); remaining classes follow
        in label order. The first element is the reached leaf's label.
        """
        row = self._validate_row(x)
        node = self.root_
        siblings = []
        while isinstance(node, _Split):
            if row[node.feature] <= node.threshold:
                siblings.append(node.right)
                node = node.left
            else:
                siblings.append(node.left)
                node = node.right
        ranking = []
        for counts in (node.counts, *(sib.counts for sib in reversed(siblings)),
                       dict.fromkeys(self.classes_, 0)):
            ranking += [lab for lab in self._by_mass(counts) if lab not in ranking]
        return ranking

    def _walk(self):
        """(node, depth) of every node in preorder, kept on an explicit stack
        so no depth of tree can exhaust the call stack."""
        stack = [(self.root_, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if isinstance(node, _Split):
                stack += [(node.right, depth + 1), (node.left, depth + 1)]

    def leaf_count(self) -> int:
        return sum(isinstance(node, _Leaf) for node, _ in self._walk())

    def depth(self) -> int:
        return max(depth for _, depth in self._walk())


@dataclass(frozen=True)
class TrainingSet:
    """Feature vectors labelled with the best core under one constraint."""

    rows: tuple[tuple[FeatureVector, str], ...]
    constraint: Constraint
    label_order: tuple[str, ...]

    def __post_init__(self):
        bad = {lab for _, lab in self.rows} - set(self.label_order)
        if bad:
            raise ValueError(f"labels {sorted(bad)} not in label_order")

    def matrix(self):
        X = [fv.row(self.constraint.feature_names) for fv, _ in self.rows]
        y = [lab for _, lab in self.rows]
        return X, y


def train_tree(data: TrainingSet, max_depth: int = 5,
               min_samples_leaf: int = 1) -> CorePredictor:
    model = CorePredictor(max_depth=max_depth,
                          min_samples_leaf=min_samples_leaf,
                          feature_names=tuple(data.constraint.feature_names),
                          label_order=tuple(data.label_order))
    X, y = data.matrix()
    return model.fit(X, y)


def label_oracle(trace: Trace, system: System, power: PowerModel,
                 constraint: Constraint) -> str:
    """Ground-truth best core: the exhaustive sweep's pick."""
    return exhaustive_sweep(trace, system, power, constraint).best.core_id


# -- model files -------------------------------------------------------------

FORMAT_TAG = "sttsim-tree"
FORMAT_VERSION = 1


def dump_tree(model: CorePredictor, constraint: Constraint) -> str:
    """Versioned plain-text serialization; exact round-trip via load_tree."""
    lines = [
        f"{FORMAT_TAG} v{FORMAT_VERSION}",
        f"constraint {constraint.kind}",
        f"hyper max_depth={model.max_depth} min_samples_leaf={model.min_samples_leaf}",
        "features " + " ".join(model.feature_names),
        "labels " + " ".join(model.classes_),
    ]

    for node, _ in model._walk():
        if isinstance(node, _Leaf):
            counts = ",".join(f"{lab}={node.counts[lab]}"
                              for lab in sorted(node.counts,
                                                key=model._rank.__getitem__))
            lines.append(f"node leaf {node.label} {counts}")
        else:
            lines.append(
                f"node split {model.feature_names[node.feature]} {node.threshold!r}")
    return "\n".join(lines) + "\n"


def load_tree(text: str) -> tuple[CorePredictor, Constraint]:
    """Inverse of dump_tree. A malformed file raises ConfigError naming the
    missing header key or the offending line by its number."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith(f"{FORMAT_TAG} v"):
        raise ConfigError(None, "not a model file")
    version = lines[0][1].split("v", 1)[1]
    if version != str(FORMAT_VERSION):
        raise ConfigError(None, f"unsupported model version {version}")

    def bad(i, why):
        no, ln = lines[i]
        return ConfigError(no, f"{why}: {ln!r}")

    header = {}
    body_at = len(lines)
    for i, (_, ln) in enumerate(lines[1:], start=1):
        key, _, rest = ln.partition(" ")
        if key == "node":
            body_at = i
            break
        if key in header:
            raise bad(i, f"a second {key!r} line")
        header[key] = (i, rest)

    def field(key):
        if key not in header:
            raise ConfigError(None, f"model file has no {key!r} line")
        return header.pop(key)

    def names(key):
        at, text = field(key)
        words = tuple(text.split())
        if len(set(words)) != len(words):
            raise bad(at, f"a {key[:-1]} is listed twice")
        return words

    at, kind = field("constraint")
    try:
        constraint = Constraint(kind)
    except ValueError as exc:
        raise bad(at, str(exc)) from None
    feature_names, labels = names("features"), names("labels")
    at, hyper_text = field("hyper")
    try:
        hyper = dict(kv.split("=") for kv in hyper_text.split())
        max_depth = int(hyper["max_depth"])
        min_samples_leaf = int(hyper["min_samples_leaf"])
    except (KeyError, ValueError):
        raise bad(at, "bad hyper line") from None
    if len(hyper_text.split()) != 2:
        raise bad(at, "hyper sets max_depth and min_samples_leaf, once each")
    if max_depth < 1 or min_samples_leaf < 1:
        raise bad(at, "max_depth and min_samples_leaf must be >= 1")
    for key, (at, _) in header.items():  # the lines that no field read
        raise bad(at, f"unknown header key {key!r}")

    model = CorePredictor(max_depth=max_depth,
                          min_samples_leaf=min_samples_leaf,
                          feature_names=feature_names, label_order=labels)
    model.classes_ = labels
    model._rank = {lab: i for i, lab in enumerate(labels)}
    model.n_features_in_ = len(feature_names)
    col = {name: i for i, name in enumerate(feature_names)}

    # Nodes come in preorder: check them in one loop, then link them from the
    # end, so no depth of tree can exhaust the stack.
    nodes, depths, pos = [], [0], body_at
    while depths:
        if pos >= len(lines):
            raise ConfigError(None, "model file truncated")
        depth = depths.pop()
        parts = lines[pos][1].split()
        if parts[:2] == ["node", "leaf"] and len(parts) == 4:
            label = parts[2]
            counts = {}
            try:
                for kv in parts[3].split(","):
                    lab, _, c = kv.partition("=")
                    counts[lab] = int(c)
            except ValueError:
                raise bad(pos, "bad leaf counts") from None
            if not {label, *counts} <= set(labels):
                raise bad(pos, "leaf label is not in the labels line")
            if min(counts.values()) < 1:
                raise bad(pos, "leaf counts must be >= 1")
            if label != model._by_mass(counts)[0]:
                raise bad(pos, "leaf label is not the majority of its counts")
            nodes.append(_Leaf(label, counts))
        elif parts[:2] == ["node", "split"] and len(parts) == 4:
            if parts[2] not in col:
                raise bad(pos, f"split feature {parts[2]!r} is not in the "
                               "features line")
            if depth >= max_depth:
                raise bad(pos, f"split deeper than max_depth={max_depth}")
            try:
                threshold = float(parts[3])
            except ValueError:
                raise bad(pos, "bad split threshold") from None
            nodes.append((col[parts[2]], threshold))
            depths += [depth + 1, depth + 1]
        else:
            raise bad(pos, "bad node line")
        pos += 1
    if pos != len(lines):
        raise bad(pos, "trailing content after tree")
    built = []
    for node in reversed(nodes):
        if isinstance(node, tuple):
            left, right = built.pop(), built.pop()
            counts = {}
            for child in (left, right):
                for lab, c in child.counts.items():
                    counts[lab] = counts.get(lab, 0) + c
            node = _Split(*node, left, right, counts)
        built.append(node)
    model.root_ = built.pop()
    return model, constraint


def save_model(model: CorePredictor, constraint: Constraint, path) -> None:
    with open(path, "w", **ENCODING) as fh:
        fh.write(dump_tree(model, constraint))


def load_model(path) -> tuple[CorePredictor, Constraint]:
    """`load_tree` of a model file by `read_input`; an error names the file."""
    return read_input(path, lambda fh: load_tree(fh.read()))


def check_model(model: CorePredictor, system: System, path=None) -> None:
    """Reject, before any work, a model that predicts a label that is not a
    core of `system` or reads a feature that profiling does not make; the
    error names `path`, the model's file, when given."""
    alien = sorted(set(model.classes_) - set(system.labels()))
    if alien:
        raise ConfigError(None, f"labels {alien} are not cores of the system "
                                f"({' '.join(system.labels())})", path)
    alien = sorted(set(model.feature_names or ()) - set(FeatureVector.names()))
    if alien:
        raise ConfigError(None, f"unknown features {alien}", path)
