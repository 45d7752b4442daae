import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sttsim import (ConfigError, Constraint, CorePredictor, FeatureVector,
                    TrainingSet, dump_tree, features_from_run, gini,
                    label_oracle, load_tree, simulate_run, train_tree)
from sttsim.constraints import FEATURE_SETS, KINDS


def fv(**kw):
    base = {name: 0.0 for name in FeatureVector.names()}
    base.update(kw)
    return FeatureVector(**base)


def fit(X, y, **kw):
    return CorePredictor(**kw).fit(X, y)


class TestGini:
    def test_exact_values(self):
        assert gini((8, 0)) == 0.0
        assert gini((5, 5)) == 0.5
        assert gini((2, 1, 1)) == 0.625

    def test_equal_classes(self):
        for m in range(2, 7):
            assert gini([3] * m) == pytest.approx(1 - 1 / m, rel=1e-12)

    def test_bounds(self):
        rng = random.Random(0)
        for _ in range(200):
            counts = [rng.randrange(0, 20) for _ in range(rng.randrange(1, 6))]
            if sum(counts) == 0:
                counts[0] = 1
            assert 0.0 <= gini(counts) < 1.0

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            gini((0, 0))
        with pytest.raises(ValueError):
            gini((-1, 2))


class TestFit:
    def test_linearly_separable_single_split(self):
        X = [[0.1], [0.2], [0.3], [1.1], [1.2], [1.3]]
        y = ["a", "a", "a", "b", "b", "b"]
        model = fit(X, y)
        assert model.depth() == 1
        assert model.predict(X) == y

    def test_pure_data_gives_leaf_tree(self):
        model = fit([[1.0], [2.0], [3.0]], ["a", "a", "a"])
        assert model.depth() == 0
        assert model.predict_one([99.0]) == "a"

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit([], [])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit([[1.0], [2.0, 3.0]], ["a", "b"])
        with pytest.raises(ValueError):
            fit([[1.0]], ["a", "b"])
        with pytest.raises(ValueError):
            CorePredictor(max_depth=0).fit([[1.0]], ["a"])

    def test_training_rows_reproduced_when_separable(self):
        rng = random.Random(1)
        X = [[rng.random(), rng.random()] for _ in range(40)]
        y = ["lo" if a + b < 1 else "hi" for a, b in X]
        model = fit(X, y, max_depth=8)
        assert model.predict(X) == y

    def test_min_samples_leaf_respected(self):
        X = [[float(i)] for i in range(8)]
        y = ["a", "b", "a", "b", "a", "b", "a", "b"]
        model = fit(X, y, min_samples_leaf=4)
        assert model.depth() <= 1

    def test_label_order_governs_ties(self):
        X = [[0.0], [1.0]]
        model_ab = fit(X, ["a", "b"], max_depth=1, min_samples_leaf=2,
                       label_order=("a", "b"))
        model_ba = fit(X, ["a", "b"], max_depth=1, min_samples_leaf=2,
                       label_order=("b", "a"))
        # One mixed leaf: the majority tie resolves toward the earlier label.
        assert model_ab.predict_one([0.5]) == "a"
        assert model_ba.predict_one([0.5]) == "b"

    def test_monotone_feature_transform_preserves_predictions(self):
        rng = random.Random(2)
        X = [[rng.uniform(0, 4), rng.uniform(0, 4)] for _ in range(60)]
        y = ["a" if a * 2 + b < 4 else "b" for a, b in X]
        model = fit(X, y, max_depth=6)
        warped = [[x ** 3, z] for x, z in X]
        warped_model = fit(warped, y, max_depth=6)
        assert warped_model.predict(warped) == model.predict(X)

    def test_deterministic_serialization(self):
        rng = random.Random(3)
        X = [[rng.random(), rng.random(), rng.random()] for _ in range(30)]
        y = [rng.choice(["a", "b", "c"]) for _ in range(30)]
        con = Constraint("none")
        names = ("f0", "f1", "f2")
        a = dump_tree(fit(X, y, feature_names=names), con)
        b = dump_tree(fit(X, y, feature_names=names), con)
        assert a == b


class TestPredict:
    def test_feature_count_checked(self):
        model = fit([[1.0], [2.0]], ["a", "b"])
        with pytest.raises(ValueError):
            model.predict_one([1.0, 2.0])

    def test_feature_vector_input_uses_names(self):
        model = fit([[0.0], [100.0]], ["cold", "hot"],
                    feature_names=("l1d_total_misses",))
        assert model.predict_one(fv(l1d_total_misses=90.0)) == "hot"


class TestRanking:
    def test_leaf_counts_order_first(self):
        # Force one leaf with a 5:2 class mix.
        X = [[0.0]] * 5 + [[0.0]] * 2 + [[10.0]] * 3
        y = ["core3"] * 5 + ["core4"] * 2 + ["core1"] * 3
        model = fit(X, y, max_depth=1, min_samples_leaf=1,
                    label_order=("core1", "core2", "core3", "core4"))
        ranking = model.rank_labels([0.0])
        assert ranking[:2] == ["core3", "core4"]
        assert sorted(ranking) == ["core1", "core2", "core3", "core4"]

    def test_depth_zero_tree_ranks_remaining_by_label_order(self):
        model = fit([[1.0]], ["core3"],
                    label_order=("core1", "core2", "core3", "core4"))
        assert model.rank_labels([5.0]) == ["core3", "core1", "core2", "core4"]

    def test_ranking_is_permutation_and_head_matches_predict(self):
        rng = random.Random(4)
        labels = ("core1", "core2", "core3", "core4")
        X = [[rng.random(), rng.random()] for _ in range(60)]
        y = [labels[min(3, int((a + b) * 2))] for a, b in X]
        model = fit(X, y, max_depth=5, label_order=labels)
        for _ in range(40):
            x = [rng.random(), rng.random()]
            ranking = model.rank_labels(x)
            assert sorted(ranking) == sorted(labels)
            assert ranking[0] == model.predict_one(x)

    def test_sibling_proximity_orders_middle_of_ranking(self):
        # Tree: split f0<=0.5 -> leaf(a) ; else split f1<=0.5 -> leaf(b)/leaf(c)
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        y = ["a", "a", "b", "b", "c"]
        model = fit(X, y, max_depth=3, label_order=("a", "b", "c"))
        ranking = model.rank_labels([1.0, 0.0])  # lands in the b leaf
        assert ranking == ["b", "c", "a"]  # sibling c before the far branch a


class TestSerialization:
    def _model(self):
        rng = random.Random(5)
        X = [[rng.random(), rng.random(), rng.random()] for _ in range(50)]
        y = [rng.choice(["core1", "core3", "core4"]) for _ in range(50)]
        return fit(X, y, max_depth=6,
                   feature_names=("fa", "fb", "fc"),
                   label_order=("core1", "core2", "core3", "core4"))

    def test_round_trip_exact(self):
        model = self._model()
        text = dump_tree(model, Constraint("slack10"))
        loaded, constraint = load_tree(text)
        assert constraint.kind == "slack10"
        assert dump_tree(loaded, constraint) == text
        rng = random.Random(6)
        for _ in range(50):
            x = [rng.random() * 2, rng.random(), rng.random()]
            assert loaded.predict_one(x) == model.predict_one(x)
            assert loaded.rank_labels(x) == model.rank_labels(x)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_tree("not a model\n")
        with pytest.raises(ValueError):
            load_tree("sttsim-tree v99\nconstraint none\n")
        good = dump_tree(self._model(), Constraint("none"))
        with pytest.raises(ValueError):
            load_tree(good + "node leaf alien a=1\n")

    def test_deep_tree_is_rejected_at_its_line(self):
        depth = 3000
        head = ("sttsim-tree v1\nconstraint none\n"
                "hyper max_depth={} min_samples_leaf=1\n"
                "features fa fb\nlabels core1 core2\n")
        body = ("node split fa 0.5\nnode leaf core1 core1=1\n" * depth
                + "node leaf core2 core2=1\n")
        with pytest.raises(ValueError, match=r"^line 16: split deeper than "
                                             r"max_depth=5: 'node split fa 0.5'$"):
            load_tree(head.format(5) + body)
        # Parsing is not recursive: a tree that deep loads when allowed.
        model, _ = load_tree(head.format(depth) + body)
        assert model.predict_one([1.0, 0.0]) == "core2"
        assert model.rank_labels([0.0, 0.0]) == ["core1", "core2"]

    def test_deep_tree_measures_and_redumps(self):
        depth = 3000
        text = ("sttsim-tree v1\nconstraint none\n"
                f"hyper max_depth={depth} min_samples_leaf=1\n"
                "features fa fb\nlabels core1 core2\n"
                + "node split fa 0.5\nnode leaf core1 core1=1\n" * depth
                + "node leaf core2 core2=1\n")
        model, constraint = load_tree(text)
        assert model.depth() == depth
        assert model.leaf_count() == depth + 1
        assert dump_tree(model, constraint) == text

    @pytest.mark.parametrize("leaf", ["node leaf core1 core2=1",
                                      "node leaf core1 core1=0",
                                      "node leaf core1 core1=-2,core2=1",
                                      "node leaf core2 core1=1,core2=1"])
    def test_leaf_disagreeing_with_its_counts_is_rejected(self, leaf):
        text = ("sttsim-tree v1\nconstraint none\n"
                "hyper max_depth=5 min_samples_leaf=1\n"
                f"features fa fb\nlabels core1 core2\n{leaf}\n")
        with pytest.raises(ValueError, match=r"^line 6: leaf "):
            load_tree(text)

    @pytest.mark.parametrize("hyper", ["max_depth=-1 min_samples_leaf=1",
                                       "max_depth=0 min_samples_leaf=1",
                                       "max_depth=3 min_samples_leaf=0"])
    def test_hyper_values_below_one_are_rejected(self, hyper):
        text = dump_tree(self._model(), Constraint("none"))
        text = text.replace("max_depth=6 min_samples_leaf=1", hyper)
        with pytest.raises(ValueError, match=r"^line 3: "):
            load_tree(text)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1e400"])
    def test_a_non_finite_split_threshold_is_rejected_at_its_line(
            self, threshold):
        # `fit` never writes one; `nan` would send every row right, and
        # `1e400` would be written back as `inf`.
        text = ("sttsim-tree v1\nconstraint none\n"
                "hyper max_depth=5 min_samples_leaf=1\n"
                "features fa fb\nlabels core1 core2\n"
                f"node split fa {threshold}\n"
                "node leaf core1 core1=1\nnode leaf core2 core2=1\n")
        with pytest.raises(ConfigError, match=r"^line 6: bad split threshold: "
                                              rf"'node split fa {threshold}'$"):
            load_tree(text)

    def test_models_are_independent(self):
        model = self._model()
        before = dump_tree(model, Constraint("none"))
        self._model().fit([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], ["core1", "core3"])
        assert dump_tree(model, Constraint("none")) == before


class TestFeatures:
    def test_per_million_normalization(self, system, power):
        from workloads import archetype_params
        from sttsim import gen_synthetic
        tr = gen_synthetic(archetype_params("A", 123, False), name="t")
        run = simulate_run(tr, system.core("core1"), 1.6, power, limit=20_000)
        feats = features_from_run(run)
        st = run.stats
        scale = 1e6 / run.instructions
        assert feats.l1d_hits == pytest.approx(st.hits * scale)
        assert feats.l1d_total_misses == pytest.approx(st.misses * scale)
        assert feats.l1d_read_accesses == pytest.approx(
            (st.read_hits + st.read_misses) * scale)
        assert feats.l1i_total_misses == 0.0
        assert 0.0 <= feats.mem_bus_util_read <= 1.0
        assert 0.0 <= feats.mem_bus_util_write <= 1.0

    def test_table_feature_sets(self):
        assert FEATURE_SETS["none"] == (
            "l1d_hits", "l1d_read_misses", "l1d_total_misses",
            "l1i_total_misses", "mem_bus_util_read")
        assert FEATURE_SETS["best-perf"] == FEATURE_SETS["slack10"] == (
            "l1d_read_misses", "mem_idle_time", "mem_read_hits")
        assert FEATURE_SETS["slack20"] == (
            "l1d_hits", "l1d_read_accesses", "l1d_read_misses",
            "mem_idle_time", "mem_bus_util_write")
        assert set(KINDS) == set(FEATURE_SETS)

    def test_feature_sets_name_feature_vector_fields(self):
        for kind, names in FEATURE_SETS.items():
            assert set(names) <= set(FeatureVector.names()), kind


class TestOracleTraining:
    def test_sixteen_workload_oracle_set(self, system, power, train_oracle):
        # Four-class-style set labeled by the exhaustive oracle: a modest
        # tree reproduces the labels exactly and stays small.
        subset = train_oracle[:4] + train_oracle[8:12] + train_oracle[16:20] + train_oracle[24:28]
        assert len(subset) == 16
        con = Constraint("none")
        rows = tuple((o.features, o.label("none")) for o in subset)
        data = TrainingSet(rows=rows, constraint=con,
                           label_order=tuple(system.labels()))
        model = train_tree(data, max_depth=3)
        X, y = data.matrix()
        assert model.predict(X) == y
        assert model.leaf_count() <= 16

    def test_single_class_training_set_is_a_leaf(self, system, train_oracle):
        con = Constraint("none")
        rows = tuple((o.features, "core2") for o in train_oracle[:5])
        data = TrainingSet(rows=rows, constraint=con,
                           label_order=tuple(system.labels()))
        model = train_tree(data)
        assert model.depth() == 0
        assert model.predict_one(train_oracle[9].features) == "core2"

    def test_label_oracle_matches_sweep(self, system, power, train_oracle):
        o = train_oracle[0]
        assert label_oracle(o.app.trace, system, power,
                            Constraint("none")) == o.label("none")


def _dumps():
    rng = random.Random(8)
    X = [[rng.random(), rng.random()] for _ in range(40)]
    y = [rng.choice(["core1", "core2", "core3"]) for _ in range(40)]
    deep = fit(X, y, max_depth=4, feature_names=("fa", "fb"),
               label_order=("core1", "core2", "core3"))
    leaf = fit([[0.0, 1.0]], ["core2"], feature_names=("fa", "fb"),
               label_order=("core1", "core2"))
    return [dump_tree(deep, Constraint("slack10")),
            dump_tree(leaf, Constraint("none"))]


DUMPS = _dumps()
TOKENS = st.one_of(st.sampled_from(
    ["node", "leaf", "split", "fa", "fb", "fz", "core1", "core9", "0.5", "nan",
     "-1", "x", "=", "core1=2", "core1=x,core2=1", "max_depth=-1", "v1", ""]),
    st.text(max_size=8))


@st.composite
def mutated_dumps(draw):
    """A valid model file with a few lines dropped, repeated, swapped,
    inserted or given a changed token."""
    lines = draw(st.sampled_from(DUMPS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "insert", "token"]))
        if op == "insert" or not lines:
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=5))))
            continue
        i = min(i, len(lines) - 1)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


class TestModelFuzz:
    """load_tree raises only ConfigError, and whatever it loads predicts."""

    def _load(self, text):
        try:
            model, _ = load_tree(text)
        except ConfigError:
            return
        row = [0.0] * model.n_features_in_
        assert model.rank_labels(row)[0] == model.predict_one(row)

    @settings(max_examples=400, deadline=None)
    @given(mutated_dumps())
    @example("sttsim-tree v1\nconstraint none\n"
             "hyper max_depth=5 min_samples_leaf=1\n"
             "features fa fb\nlabels core1 core2\nnode leaf core1 core2=1\n")
    def test_mutated_dumps(self, text):
        self._load(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=30),
                              st.lists(TOKENS, max_size=5).map(" ".join)),
                    max_size=12),
           st.sampled_from(["", "sttsim-tree v1\n"]))
    def test_arbitrary_lines(self, lines, head):
        self._load(head + "\n".join(lines))
