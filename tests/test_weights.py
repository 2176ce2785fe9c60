"""Packed label rows: the `Weights` dict's second view, one integer per
feature holding its weight under every label, against the dict rows it
replaced; and the decoders that score through it against brute force on
sparse weights."""

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from eqparse.learning import (
    ExhaustiveDecoder,
    PackedTable,
    Weights,
    add_scaled,
    dot,
    packed_of,
    tagged,
)
from eqparse.quantities import sentence_quantities
from eqparse.relevance import (
    RelevanceDecoder,
    enumerate_assignments,
    hamming_cost,
)
from eqparse.treeparse import CkyDecoder, enumerate_projective_trees
from eqparse.variables import (
    VariableDecoder,
    candidate_cost,
    enumerate_variable_candidates,
)

from helpers import (
    LABELS,
    HashWeights,
    crosses_np_chunk,
    draw_weights,
    label_rows,
    label_scores,
    random_np_instance,
    random_relevance_instance,
    random_tree_instance,
    shared_location_instance,
    sparse_weights,
    tree_cost,
    with_extra_chunks,
)


def reference_rows(flat: dict) -> dict:
    """Label rows by index arithmetic: the label follows the last bar."""
    rows: dict = {}
    for name, value in flat.items():
        if "|" in name:
            cut = name.rindex("|")
            rows.setdefault(name[:cut], {})[name[cut + 1:]] = value
    return rows


def unpacked(packed: PackedTable, labels) -> dict:
    """The table read back as label rows over `labels`, zeros left out."""
    rows: dict = {}
    for feature, total in packed.items():
        for label in labels:
            weight = packed.score(total, label)
            if weight:
                rows.setdefault(feature, {})[label] = weight
    return rows


def nonzero(rows: dict) -> dict:
    return {feature: {label: w for label, w in row.items() if w}
            for feature, row in rows.items() if any(row.values())}


def assert_packs(weights, multisets=()) -> None:
    """The packed table of the weights reads, under every label it has and
    one it has not, what their dict rows give: for each feature, and for
    the total of each multiset of names. Their `slots` read the same, in
    their order."""
    packed = packed_of(weights)
    rows = label_rows(dict(weights))
    labels = sorted({label for row in rows.values() for label in row}
                    | {"unseen"})
    assert unpacked(packed, labels) == nonzero(rows)
    bias, mask, half, *shifts = packed.slots(labels)
    for names in multisets:
        total = packed.total(names)
        expected = label_scores(rows, names)
        for label in labels:
            assert packed.score(total, label) == expected.get(label, 0)
        assert [(((total + bias) >> shift) & mask) - half
                for shift in shifts] == [expected.get(label, 0)
                                         for label in labels]


class TestWeights:
    def test_rows_of_a_plain_dict(self):
        flat = {"qn_u=a|r=1": 2, "qn_u=a|r=0": -1, "qg_count=1/2": 5,
                "tn_u=a|b|o=+": 3}
        for weights in (flat, Weights(flat)):
            packed = packed_of(weights)
            assert set(packed) == {"qn_u=a", "tn_u=a|b"}
            assert unpacked(packed, ["r=0", "r=1", "o=+", "o=-lr"]) == {
                "qn_u=a": {"r=1": 2, "r=0": -1}, "tn_u=a|b": {"o=+": 3}}
        assert Weights(flat).packed == PackedTable(flat)

    def test_flat_view_is_the_dict(self):
        weights = Weights({"a|x": 1})
        weights["b|y"] = 2
        assert weights == {"a|x": 1, "b|y": 2}
        assert dot(weights, {"a|x": 3, "b|y": 1}) == 5

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda w: pickle.loads(pickle.dumps(w))])
    def test_a_copy_keeps_its_own_rows(self, copier):
        weights = Weights({"a|x": 1})
        packed = weights.packed
        other = copier(weights)
        assert type(other) is Weights and other == weights
        other["a|y"] = 2
        assert unpacked(other.packed, "xy") == {"a": {"x": 1, "y": 2}}
        assert weights.packed is packed
        assert unpacked(packed, "xy") == {"a": {"x": 1}}

    def test_width_is_the_widest_weight_plus_41_bits(self):
        assert PackedTable({}).width == 41
        assert PackedTable({"a|x": -8, "b|y": 7, "wide": 2 ** 90}).width \
            == 4 + 41
        weights = Weights({"a|x": 3})
        packed = weights.packed
        weights["b|x"] = -3  # fits: the table is kept
        assert weights.packed is packed and packed.width == 43
        weights["a|y"] = -(2 ** 64)  # outgrows it: laid out again
        assert weights.packed is not packed
        assert weights.packed.width == 65 + 41
        assert_packs(weights, [["a", "b", "a"]])

    def test_a_slot_reads_through_negative_lower_slots(self):
        # the bias holds the half offset of every slot: with only the read
        # slot's, a negative field below borrows one from the read one
        flat = {"f|a": -5, "f|b": -7, "f|c": 4, "g|a": -1, "g|c": 9}
        packed = PackedTable(flat)
        assert list(packed.shifts) == ["a", "b", "c"]
        for names in (["f"], ["f", "g"], ["f"] * 1000 + ["g"] * 3):
            total = packed.total(names)
            expected = label_scores(label_rows(flat), names)
            for label in "abc":
                assert packed.score(total, label) == expected[label]
            shift = packed.shift("c")
            own_half = ((total + (packed.half << shift)) >> shift
                        & packed.mask) - packed.half
            assert own_half == expected["c"] - 1

    def test_a_label_without_a_slot_reads_zero(self):
        packed = PackedTable({"f|a": -(2 ** 70), "f|b": 2 ** 70 - 1})
        total = packed.total(["f", "f", "missing"])
        assert packed.score(total, "a") == -(2 ** 71)
        assert packed.score(total, "b") == 2 ** 71 - 2
        assert packed.score(total, "c") == 0
        assert packed.score(packed.total([]), "a") == 0
        bias, mask, half, *shifts = packed.slots(["c", "b", "a", "b"])
        assert [(((total + bias) >> shift) & mask) - half
                for shift in shifts] == [0, 2 ** 71 - 2, -(2 ** 71),
                                         2 ** 71 - 2]
        assert packed.slots([]) == (packed.bias, packed.mask, packed.half)


names = st.text(alphabet="ab|", max_size=4)
values = st.integers(-3, 3)
operations = st.lists(st.one_of(
    st.tuples(st.just("set"), names, values),
    st.tuples(st.just("add_scaled"), st.dictionaries(names, values, max_size=4),
              st.integers(-2, 2)),
    st.tuples(st.just("rows")),
    st.tuples(st.just("other"), st.sampled_from(
        ["pop", "popitem", "clear", "update", "setdefault", "delitem",
         "ior"]), names, values),
), max_size=30)


def other_mutator(weights, which, name, value):
    if which == "pop":
        weights.pop(name)
    elif which == "popitem":
        weights.popitem()
    elif which == "clear":
        weights.clear()
    elif which == "update":
        weights.update({name: value})
    elif which == "setdefault":
        weights.setdefault(name, value)
    elif which == "delitem":
        del weights[name]
    else:
        weights |= {name: value}


@given(st.dictionaries(names, values, max_size=6), operations)
def test_rows_stay_in_step(initial, ops):
    # item assignment (add_scaled's too) updates a built table in place,
    # or lays it out again wider; any other mutator raises and changes
    # neither view
    weights = Weights(initial)
    packed = None
    for op, *args in ops:
        if op == "set":
            weights[args[0]] = args[1]
        elif op == "add_scaled":
            add_scaled(weights, *args)
        elif op == "rows":
            packed = weights.packed
        else:
            before = dict(weights)
            with pytest.raises(TypeError):
                other_mutator(weights, *args)
            assert weights == before
        if packed is not None:
            # replaced only by a wider layout
            assert (weights.packed is packed
                    or weights.packed.width > packed.width)
            packed = weights.packed
            labels = set(packed.shifts) | {"unseen"}
            assert unpacked(packed, labels) == nonzero(
                reference_rows(dict(weights)))
    assert_packs(weights)


features = st.sampled_from(["a", "b", "a|b", "c"])
labels = st.sampled_from(["x", "y", "z", "w"])
wide = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
labeled = st.builds("{}|{}".format, features, labels)
multisets = st.lists(st.lists(st.one_of(features, st.just("none")),
                              max_size=8), max_size=3)


@given(st.dictionaries(labeled, wide, max_size=4), st.lists(st.one_of(
    st.tuples(st.just("set"), labeled, wide, multisets),
    st.tuples(st.just("add_scaled"), st.dictionaries(labeled, wide,
                                                     max_size=3),
              st.integers(-3, 3), multisets)), max_size=12))
def test_packed_totals_match_label_rows(initial, ops):
    # the table is built first, so labels are first seen midway, and a
    # wide weight makes it lay itself out again; after each change, the
    # total of a multiset of names reads under every label what the dict
    # rows sum, many copies of a name included
    weights = Weights(initial)
    assert_packs(weights, [["a", "a", "b"]])
    for op, *args, sets in ops:
        if op == "set":
            weights[args[0]] = args[1]
        else:
            add_scaled(weights, *args)
        assert_packs(weights, [*sets, ["a"] * 5000 + ["c"] * 77])


def test_tagged_counts_each_occurrence_under_its_label():
    feats = tagged([(["a", "b", "a"], "x"), (["a"], "y"), (["a"], "x"),
                    ([], "z")])
    assert feats == {"a|x": 3, "b|x": 1, "a|y": 1}
    assert label_rows(feats) == {"a": {"x": 3, "y": 1}, "b": {"x": 1}}


class _PackedReads(PackedTable):
    """An empty packed table that records each feature looked up."""

    def __init__(self):
        super().__init__({})
        self.read = []

    def get(self, feature, default=None):
        self.read.append(feature)
        return super().get(feature, default)


class FlatReads(Weights):
    """Empty weights that record each flat lookup and each packed one."""

    def __init__(self):
        super().__init__()
        self.read = []
        self._packed = _PackedReads()

    def get(self, name, default=None):
        self.read.append(name)
        return super().get(name, default)


def test_decoders_read_labeled_names_only_through_rows():
    # a flat lookup is left only for the untagged relevance count feature;
    # the lex_agree features of the lexicon-as-features mode are read
    # through the packed table too
    rng = random.Random(71)
    sentence, triggers = random_tree_instance(rng, 4)
    weights = FlatReads()
    RelevanceDecoder().decode(
        (sentence, tuple(sentence_quantities(sentence))), weights)
    VariableDecoder().decode(random_np_instance(rng, 3), weights)
    for kwargs in ({}, {"use_lexicon": False}, {"lexicon_as_features": True}):
        CkyDecoder(**kwargs).decode((sentence, triggers), weights)
    assert weights.read
    assert all("|" not in name for name in weights.read)
    assert {"lex_agree=0", "lex_agree=1"} <= set(weights.packed.read)


def test_hash_weights_rows_agree_with_get():
    # the dense test weights give a decoder through their packed table
    # what they give `dot` through `get`
    rng = random.Random(72)
    hashed = HashWeights(salt=72)
    packed = hashed.packed
    total = packed.total(["tn_u=sum"])
    assert [packed.score(total, label) for label in LABELS] == [
        hashed.get(f"tn_u=sum|{label}") for label in LABELS]
    decoder = CkyDecoder(use_lexicon=False)
    for _ in range(20):
        sentence, triggers = random_tree_instance(rng, 3)
        x = (sentence, triggers)
        space = enumerate_projective_trees(sentence, triggers,
                                           use_lexicon=False)
        flat = {name: hashed.get(name) for tree in space
                for name in decoder.features(x, tree)}
        for gold in (None, rng.choice(space)):
            assert decoder.decode(x, hashed, gold=gold) == decoder.decode(
                x, flat, gold=gold)


class TestSparseWeights:
    """Each decoder against brute force on weights drawn over the features
    of its enumerated outputs, many with no row or a partial one, with and
    without a gold output; a plain dict and a `Weights` decode alike."""

    @staticmethod
    def both(decoder, x, flat, gold=None, cost_unit=1):
        got = decoder.decode(x, flat, gold=gold, cost_unit=cost_unit)
        assert decoder.decode(x, Weights(flat), gold=gold,
                              cost_unit=cost_unit) == got
        return got

    def test_relevance(self):
        rng = random.Random(61)
        decoder = RelevanceDecoder()
        oracle = ExhaustiveDecoder(
            lambda x: enumerate_assignments(len(x[1])), decoder.features,
            hamming_cost)
        for trial in range(150):
            sentence = random_relevance_instance(rng, rng.randint(0, 6))
            x = (sentence, tuple(sentence_quantities(sentence)))
            space = list(enumerate_assignments(len(x[1])))
            flat = draw_weights(rng, {name for y in space
                                        for name in decoder.features(x, y)})
            for gold in (None, rng.choice(space)):
                for cost_unit in (1, 10):
                    assert self.both(decoder, x, flat, gold, cost_unit) \
                        == oracle.decode(x, flat, gold, cost_unit)

    def test_variables(self):
        rng = random.Random(62)
        decoder = VariableDecoder()
        oracle = ExhaustiveDecoder(enumerate_variable_candidates,
                                   decoder.features, candidate_cost)
        for trial in range(200):
            sentence = random_np_instance(rng, rng.randint(1, 5))
            space = enumerate_variable_candidates(sentence)
            flat = draw_weights(rng, {name for y in space for name in
                                        decoder.features(sentence, y)})
            for gold in (None, rng.choice(space)):
                for cost_unit in (1, 10):
                    assert self.both(decoder, sentence, flat, gold,
                                     cost_unit) \
                        == oracle.decode(sentence, flat, gold, cost_unit)

    def test_cky_in_every_mode(self):
        # the oracle scores every tree of the mode's space; the syntactic
        # mode's keeps the trees crossing no NP chunk, or all when none is
        # left. Weights are drawn over the features of every mode's trees,
        # lex_agree included
        rng = random.Random(63)
        modes = (({}, True), ({"use_lexicon": False}, False),
                 ({"lexicon_as_features": True}, False),
                 ({"conform_syntactic": True}, True))
        for trial in range(90):
            make = random_tree_instance if trial % 3 else shared_location_instance
            sentence, triggers = make(rng, 2 + trial % 3)
            sentence = with_extra_chunks(rng, sentence)
            x = (sentence, triggers)
            spaces = []
            for kwargs, lexicon_space in modes:
                decoder = CkyDecoder(**kwargs)
                space = enumerate_projective_trees(sentence, triggers,
                                                   use_lexicon=lexicon_space)
                if decoder.conform_syntactic:
                    space = ([t for t in space
                              if not crosses_np_chunk(sentence, t)] or space)
                spaces.append((decoder, space))
            flat = draw_weights(rng, {
                name for decoder, space in spaces for tree in space
                for name in decoder.features(x, tree)})
            for decoder, space in spaces:
                scores = [dot(flat, decoder.features(x, t)) for t in space]
                gold = rng.choice(space)
                for g, cost_unit in ((None, 1), (gold, 1), (gold, 10)):
                    def objective(i):
                        cost = 0 if g is None else tree_cost(g, space[i])
                        return scores[i] + cost_unit * cost

                    got = self.both(decoder, x, flat, g, cost_unit)
                    assert got in space
                    assert objective(space.index(got)) == max(
                        map(objective, range(len(space))))

    def test_rows_are_sparse(self):
        # the draw leaves features with no row and rows with missing labels
        rng = random.Random(64)
        sentence, triggers = random_tree_instance(rng, 4)
        decoder = CkyDecoder(use_lexicon=False)
        space = enumerate_projective_trees(sentence, triggers,
                                           use_lexicon=False)
        names = {name for tree in space
                 for name in decoder.features((sentence, triggers), tree)}
        rows = label_rows(sparse_weights(rng, names))
        features = {name.rpartition("|")[0] for name in names}
        labels = {name.rpartition("|")[2] for name in names}
        assert 0.5 < len(rows) / len(features) < 0.9
        assert any(len(row) < len(labels) for row in rows.values())
