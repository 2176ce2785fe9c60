"""Equation tree parsing: node contexts, the lexicon, features, CKY."""

import importlib.util
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from eqparse.core import (
    Leaf,
    Node,
    Op,
    Order,
    QuantityTrigger,
    Span,
    VariableTrigger,
    format_tree,
    is_projective,
    sort_triggers,
    validate_tree,
)
from eqparse.corpus import AnnotatedSentence
from eqparse.evaluation import gold_tree_instance
from eqparse.learning import TrainConfig, dot, train_structured
from eqparse import treeparse
from eqparse.quantities import sentence_quantities
from eqparse.treeparse import (
    CkyDecoder,
    DEFAULT_LEXICON,
    NodeContext,
    TreeInput,
    enumerate_projective_trees,
    gold_node_set,
    lexicon_match,
    node_context_spans,
    parse_lexicon,
    tree_features,
    tree_node_features,
    tree_nodes,
    _node_parts,
    _padded,
)

from helpers import (
    CKY_MODE_IDS,
    CKY_MODES,
    LEXICON_WORDS,
    NON_ASCII_WORDS,
    HashWeights,
    _DensePacked,
    crosses_np_chunk,
    malformed_trigger_lists,
    random_tree_instance,
    shared_location_instance,
    tree_cost,
    with_extra_chunks,
)


def twice_triple_triggers(sentence):
    quantities = sentence_quantities(sentence)
    np1, np2 = sentence.np_chunks
    return sort_triggers(list(quantities) + [
        VariableTrigger("V1", np1), VariableTrigger("V1", np2)])


def twice_triple_gold(triggers):
    # (= (* 2 V1) (- (* 3 V1) 25)) with the subtraction written right-to-left
    two, v1a, c25, three, v1b = map(Leaf, triggers)
    return Node(Op.EQ, Order.LR,
                Node(Op.MUL, Order.LR, two, v1a),
                Node(Op.SUB, Order.RL, c25,
                     Node(Op.MUL, Order.LR, three, v1b)))


class TestNodeContext:
    def test_mid_span_between_subtrees(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        ctx = node_context_spans(twice_triple_sentence, triggers, 2, 3, 5)
        assert ctx.mid == "25 less than "
        assert "less than" in ctx.mid

    def test_self_pair_mid_is_empty(self, sum_example):
        sentence, triggers, _ = gold_tree_instance(sum_example)
        # V1 and V2 ground to the same NP, so their locations coincide
        ctx = node_context_spans(sentence, triggers, 0, 1, 2)
        assert ctx.mid == ""
        assert ctx.left == "The sum of "

    def test_left_token_for_leaf_left_child(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        ctx = node_context_spans(twice_triple_sentence, triggers, 0, 1, 2)
        assert ctx.left_token == "Twice"

    def test_left_token_absent_for_internal_left_child(
            self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        ctx = node_context_spans(twice_triple_sentence, triggers, 0, 2, 5)
        assert ctx.left_token is None

    def test_outer_spans_reach_sentence_boundaries(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        ctx = node_context_spans(twice_triple_sentence, triggers, 0, 2, 5)
        assert ctx.left == ""
        assert ctx.right.endswith("number.")


class TestLexiconMatch:
    def test_less_than_is_reversed_subtraction(self):
        ctx = NodeContext(mid=" less than ", left="", right="", left_token=None)
        assert lexicon_match(ctx) == (Op.SUB, Order.RL)

    def test_sum_of_with_and(self):
        ctx = NodeContext(mid=" and ", left="the sum of ", right="",
                          left_token=None)
        assert lexicon_match(ctx) == (Op.ADD, Order.LR)

    def test_no_match(self):
        ctx = NodeContext(mid=" is ", left="", right="", left_token=None)
        assert lexicon_match(ctx) is None

    def test_more_than_with_right_by_prefers_subtraction(self):
        # both the addition and subtraction rules match; the later wins
        ctx = NodeContext(mid=" more than ", left="", right=" by ",
                          left_token=None)
        assert lexicon_match(ctx) == (Op.SUB, Order.LR)

    def test_token_boundary_matching(self):
        ctx = NodeContext(mid="bless thanks", left="", right="",
                          left_token=None)
        assert lexicon_match(ctx) is None

    def test_punctuation_ignored_in_match(self):
        ctx = NodeContext(mid=", less than:", left="", right="",
                          left_token=None)
        assert lexicon_match(ctx) == (Op.SUB, Order.RL)

    @pytest.mark.parametrize("mid, left", [
        (" plusé ", ""), (" ñand ", "the sum of "), (" and ", "the ßsum of "),
        (" plus٣ ", ""), (" иplus ", "")],
        ids=["latin-suffix", "latin-prefix", "in-left", "digit-suffix",
             "cyrillic-prefix"])
    def test_terms_match_whole_words_of_any_script(self, mid, left):
        # a letter or digit of any script stays inside its word
        ctx = NodeContext(mid=mid, left=left, right="", left_token=None)
        assert lexicon_match(ctx) is None

    def test_ascii_term_still_matches_among_other_scripts(self):
        ctx = NodeContext(mid=" plus ", left="ñ ß ", right=" é",
                          left_token=None)
        assert lexicon_match(ctx) == (Op.ADD, Order.LR)


def context_clause_bits(context: NodeContext) -> int:
    """The clause bits a reference context meets, one bit per clause of
    each rule, highest precedence first; each clause is tested as a
    one-clause rule by `LexiconRule.matches` on the fields that
    `lexicon_match` builds."""
    fields = {"left": _padded(context.left), "mid": _padded(context.mid),
              "right": _padded(context.right),
              "token": _padded(context.left_token)}
    mid_empty = not context.mid.strip()
    met, bit = 0, 1
    for rule in reversed(DEFAULT_LEXICON):
        for clause in rule.clauses:
            if replace(rule, clauses=(clause,)).matches(fields, mid_empty):
                met |= bit
            bit <<= 1
    return met


class TestTreeInputMatch:
    @pytest.mark.parametrize("make, kwargs", [
        (random_tree_instance, {}),
        (shared_location_instance, {}),
        (random_tree_instance, {"filler": LEXICON_WORDS, "multipliers": True}),
        (shared_location_instance,
         {"filler": LEXICON_WORDS, "multipliers": True}),
        (random_tree_instance, {"filler": NON_ASCII_WORDS}),
        (shared_location_instance, {"filler": NON_ASCII_WORDS}),
    ], ids=["random", "shared-location", "lexicon-words",
            "lexicon-words-shared-location", "non-ascii",
            "non-ascii-shared-location"])
    def test_matches_reference(self, make, kwargs):
        # every split of every interval, the root's included: the input's
        # met clause bits equal those of the node_context_spans fields,
        # tested clause by clause, and its match
        # equals lexicon_match. Shared locations give empty mid spans and
        # left/right fields that skip the tied location; fillers from the
        # lexicon's words and quantities such as "twice" make most splits
        # meet a rule, through every field; with non-ASCII letters joined
        # to those words, both must still read the same words
        rng = random.Random(41)
        for trial in range(400):
            sentence, triggers = make(rng, 2 + trial % 6, **kwargs)
            x = TreeInput(sentence, triggers, 3)
            n = len(triggers)
            for i, k, j in ((i, k, j) for i in range(n)
                            for j in range(i + 2, n + 1)
                            for k in range(i + 1, j)):
                context = node_context_spans(sentence, triggers, i, k, j)
                where = (sentence.text, i, k, j)
                assert x.met(i, k, j) == context_clause_bits(context), where
                assert x.match(i, k, j) == lexicon_match(context), where

    def test_met_skip_equals_full_scan(self):
        # `_met` returns 0, without normalizing the text, when no term's
        # first word is one of its words; else it scans every `_padded`
        # word. Both equal the full scan on random substrings of lexicon
        # words in three cases, words of other scripts, combining marks,
        # underscores, and characters whose lowercase differs in length
        # ("İ") or script ("K", the Kelvin sign), for a scan of every
        # field and for each one-field scan
        def full_scan(text, terms):
            padded = _padded(text)
            met = 0
            for word in padded.split():
                for term, bits in terms.get(word, ()):
                    if term in padded:
                        met |= bits
            return met

        fields = ("left", "mid", "right", "token")
        scans = [treeparse._scan(fields),
                 *(treeparse._scan((field,)) for field in fields)]
        rng = random.Random(43)
        pieces = (*NON_ASCII_WORDS, *(w.upper() for w in LEXICON_WORDS),
                  *(w.title() for w in LEXICON_WORDS), "\u0301", "_", "-",
                  ",", "İ", "\u212a", "ſ", "\t", "\xa0")
        skipped = 0
        for trial in range(4000):
            text = "".join(rng.choice(pieces) + rng.choice(("", " ", " "))
                           for _ in range(rng.randrange(8)))
            a = rng.randrange(len(text) + 1)
            text = text[a:rng.randrange(a, len(text) + 1)]
            for search, terms in scans:
                assert treeparse._met(text, (search, terms)) \
                    == full_scan(text, terms), text
            skipped += scans[0][0](text.lower()) is None
        assert 500 < skipped < 3500
        for scan in scans:
            assert treeparse._met(None, scan) == full_scan(None, scan[1]) == 0

    def test_role_scans_equal_the_all_field_scan(self):
        # `_field_bits` scans the head gap for `left` terms alone, the tail
        # gap for `right` terms and trigger surfaces for `token` terms:
        # its fields equal those read out of one scan of every field's
        # terms, and its matches `lexicon_match`. Gaps hold terms of every
        # field (a head "more than", a tail "sum of"), locations tie, sit
        # at 0 and at len(text), and gaps hold non-ASCII text ("İas", a
        # combining mark)
        all_fields = treeparse._scan(("left", "mid", "right", "token"))
        w = treeparse._WIDTH
        clauses = (1 << w) - 1

        def reference_fields(x):
            text, locs = x.sentence.text, x.locs

            def field(gap, f):
                return treeparse._met(gap, all_fields) >> f * w & clauses
            n = len(locs)
            left = [field(text[max([p for p in locs if p < locs[i]],
                                   default=0):locs[i]], 0)
                    for i in range(n)]
            mid = [0] + [field(text[locs[k - 1]:locs[k]], 1)
                         | (0 if text[locs[k - 1]:locs[k]].strip()
                            else treeparse._EMPTY_MID)
                         for k in range(1, n)]
            right = [0] + [field(text[locs[j - 1]:min(
                [p for p in locs if p > locs[j - 1]], default=len(text))], 2)
                for j in range(1, n + 1)]
            token = [field(t.span.text(text), 3) for t in x.triggers[:-1]]
            return left, token, mid, right

        # texts whose digits are quantities; "twice" stands for a 2
        gap_words = ("more than", "sum of", "by", "as", "and", "twice",
                     "İas", "as\u0301", "difference of", "times",
                     "less than")
        texts = ["more than 3 and 4 sum of", "3 and 4 and sum of",
                 "The sum of 3 and 4", "İas twice 3 times İas 4 by as"]
        rng = random.Random(47)
        for _ in range(300):
            tokens = [rng.choice(gap_words) for _ in range(rng.randrange(5))]
            for _ in range(rng.randrange(2, 5)):
                tokens.insert(rng.randrange(len(tokens) + 1),
                              str(rng.randrange(1, 9)))
            texts.append(" ".join(tokens))
        for trial, text in enumerate(texts):
            tokens = tuple(text.split())
            sentence = AnnotatedSentence(text, tokens, ("NN",) * len(tokens),
                                         ())
            triggers = [QuantityTrigger(2 if token == "twice" else int(token),
                                        Span(start, end))
                        for token, start, end in zip(
                            tokens, sentence.token_starts, sentence.token_ends)
                        if token.isdigit() or token == "twice"]
            # a variable tied with a quantity, and one at the end of the
            # text, an empty tail gap
            if trial % 3 == 1:
                tied = rng.choice(triggers).span
                triggers.append(VariableTrigger("V1", tied))
            if trial % 4 == 2:
                triggers.append(VariableTrigger("V1",
                                                Span(len(text), len(text))))
            triggers = sort_triggers(triggers)
            x = TreeInput(sentence, triggers, 3)
            assert x.fields == reference_fields(x), text
            n = len(triggers)
            for i, k, j in ((i, k, j) for i in range(n)
                            for j in range(i + 2, n + 1)
                            for k in range(i + 1, j)):
                assert x.match(i, k, j) == lexicon_match(
                    node_context_spans(sentence, triggers, i, k, j)), (
                        text, i, k, j)

    def test_rejects_out_of_order_locations(self, twice_triple_sentence):
        # the input checks its trigger list when it is built: an
        # out-of-order list, a one-trigger list and V2 without V1 are
        # refused before any lexicon use
        for triggers, message in malformed_trigger_lists(
                twice_triple_sentence):
            with pytest.raises(ValueError, match=f"^{message}$"):
                TreeInput(twice_triple_sentence, triggers, 3)

    def test_op_precision_on_shipped_corpora(self, synthetic_corpus,
                                             multiplier_corpus):
        # the paper's "high precision" lexicon, on the gold internal nodes
        # below the root: (nodes, nodes a rule pins, pins with the gold
        # (op, order)), read through the input's clause bits and the
        # reference. Precision 1.0 and coverage 60 of 65
        def pins(corpus):
            counts = [0, 0, 0]
            for example in corpus:
                sentence, triggers, tree = gold_tree_instance(example)
                x = TreeInput(sentence, triggers, 3)
                for i, k, j, node in tree_nodes(tree)[1]:
                    if (i, j) == (0, len(triggers)):
                        continue
                    match = x.match(i, k, j)
                    assert match == lexicon_match(node_context_spans(
                        sentence, triggers, i, k, j)), (sentence.text, i, k, j)
                    counts[0] += 1
                    counts[1] += match is not None
                    counts[2] += match == (node.op, node.order)
            return tuple(counts)

        assert pins(synthetic_corpus) == (50, 45, 45)
        assert pins(multiplier_corpus) == (15, 15, 15)


class TestParseLexicon:
    def test_default_table_shape(self):
        assert len(DEFAULT_LEXICON) == 11
        assert [r.rule_id for r in DEFAULT_LEXICON] == list(range(1, 12))
        assert [r.precedence for r in DEFAULT_LEXICON] == list(range(11))

    def test_order_parsing(self):
        (rule,) = parse_lexicon("4\t-,rl\tmid:foo\n")
        assert rule.op is Op.SUB
        assert rule.order is Order.RL

    def test_comments_and_blanks_skipped(self):
        rules = parse_lexicon("# header\n\n2\t+\tmid:plus\n")
        assert len(rules) == 1

    def test_short_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_lexicon("5\t+\n")

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError, match="bad field"):
            parse_lexicon("7\t*\tfoo:bar\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_lexicon("1\t+\tmid:a\n1\t-\tmid:b\n")


class TestNodeFeatures:
    def test_connecting_text_bigram(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        feats = tree_node_features(twice_triple_sentence, triggers,
                                   2, 3, 5, Op.SUB, Order.RL)
        assert feats["tc_b=less than|o=-rl"] == 1.0

    def test_order_tag_only_for_noncommutative(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        feats = tree_node_features(twice_triple_sentence, triggers,
                                   0, 1, 2, Op.MUL, Order.LR)
        assert all("|o=*" in name for name in feats)
        assert not any("|o=*lr" in name for name in feats)

    def test_left_smaller_number_indicator(self, notes_sentence):
        quantities = sentence_quantities(notes_sentence)  # 54, 5, 10
        feats = tree_node_features(notes_sentence, quantities,
                                   1, 2, 3, Op.SUB, Order.LR)
        assert feats["tnum_left_smaller=1|o=-lr"] == 1.0
        feats = tree_node_features(notes_sentence, quantities,
                                   0, 1, 2, Op.ADD, Order.LR)
        assert feats["tnum_left_smaller=0|o=+"] == 1.0

    def test_no_number_indicator_with_variable_leaf(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        feats = tree_node_features(twice_triple_sentence, triggers,
                                   0, 1, 2, Op.MUL, Order.LR)
        assert not any(name.startswith("tnum") for name in feats)


class TestTreeFeatures:
    def test_sum_over_internal_nodes(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = twice_triple_gold(triggers)
        total = tree_features(twice_triple_sentence, triggers, tree)
        expected = {}
        for i, k, j, op, order in [(0, 1, 2, Op.MUL, Order.LR),
                                   (3, 4, 5, Op.MUL, Order.LR),
                                   (2, 3, 5, Op.SUB, Order.RL),
                                   (0, 2, 5, Op.EQ, Order.LR)]:
            for name, value in tree_node_features(
                    twice_triple_sentence, triggers, i, k, j, op, order).items():
                expected[name] = expected.get(name, 0.0) + value
        assert total == expected

    def test_leaf_mismatch_rejected(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = twice_triple_gold(triggers)
        with pytest.raises(ValueError, match="leaves"):
            tree_features(twice_triple_sentence, triggers[:4], tree)


class TestTreeCost:
    def test_gold_node_set(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = twice_triple_gold(triggers)
        assert gold_node_set(tree) == frozenset({
            (0, 2, Op.MUL, Order.LR), (3, 5, Op.MUL, Order.LR),
            (2, 5, Op.SUB, Order.RL), (0, 5, Op.EQ, Order.LR)})

    def test_zero_against_itself(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = twice_triple_gold(triggers)
        assert tree_cost(tree, tree) == 0.0

    def test_counts_wrong_nodes_one_sided(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        gold = twice_triple_gold(triggers)
        altered = Node(Op.EQ, Order.LR,
                       Node(Op.ADD, Order.LR, gold.left.left, gold.left.right),
                       gold.right)
        assert tree_cost(gold, altered) == 1.0


def crossing_sentence():
    """Three quantities with an NP chunk that straddles every binary split."""
    return AnnotatedSentence(
        "5 plus 3 is 8 .",
        ("5", "plus", "3", "is", "8", "."),
        ("CD", "IN", "CD", "VBZ", "CD", "."),
        (Span(2, 10),))


class TestCkyDecoder:
    def test_recovers_gold_tree_with_trained_weights(
            self, bundle, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = bundle.decode_tree(twice_triple_sentence, triggers)
        assert format_tree(tree) == "(= (* 2 V1) (- (* 3 V1) 25))"

    def test_two_triggers_give_bare_equation(self, sum_sentence):
        np = sum_sentence.np_chunks[1]
        triggers = sort_triggers([
            VariableTrigger("V1", np),
            QuantityTrigger(Fraction(80), Span(26, 28))])
        decoder = CkyDecoder()
        tree = decoder.decode((sum_sentence, triggers), {})
        assert format_tree(tree) == "(= V1 80)"

    def test_rejects_single_trigger(self, sum_sentence):
        triggers = (QuantityTrigger(Fraction(80), Span(26, 28)),)
        with pytest.raises(ValueError, match="at least 2"):
            CkyDecoder().decode((sum_sentence, triggers), {})

    def test_rejects_out_of_order_triggers(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        with pytest.raises(ValueError, match="out of order"):
            CkyDecoder().decode(
                (twice_triple_sentence, triggers[::-1]), {})

    def test_rejects_v2_without_v1(self, sum_sentence):
        triggers = sort_triggers([
            VariableTrigger("V2", sum_sentence.np_chunks[1]),
            QuantityTrigger(Fraction(80), Span(26, 28))])
        with pytest.raises(ValueError, match="V2 used without V1"):
            CkyDecoder().decode((sum_sentence, triggers), {})

    def test_cost_augmented_decode_matches_enumeration(self):
        # the training decode maximizes score + wrong-node count to the gold;
        # in lexicon-as-features mode every op is explored and the score
        # includes the lex_agree features
        rng = random.Random(31)
        modes = (({}, True), ({"use_lexicon": False}, False),
                 ({"lexicon_as_features": True}, False))
        for trial in range(120):
            sentence, triggers = random_tree_instance(rng, 2 + trial % 3)
            x = (sentence, triggers)
            weights = HashWeights(salt=4000 + trial)
            for kwargs, lexicon_space in modes:
                decoder = CkyDecoder(**kwargs)
                space = enumerate_projective_trees(sentence, triggers,
                                                   use_lexicon=lexicon_space)
                for gold in (rng.choice(space), None):
                    def objective(tree):
                        cost = 0.0 if gold is None else tree_cost(gold, tree)
                        return dot(weights, decoder.features(x, tree)) + cost

                    got = decoder.decode(x, weights, gold=gold)
                    assert decoder.contains(x, got)
                    assert objective(got) == pytest.approx(
                        max(map(objective, space)), abs=1e-9)

    def test_by_parts_decode_matches_enumeration_in_every_mode(self):
        # the decode sums memoized part scores; the oracle scores every
        # tree's whole feature dict, in each of the six configurations.
        # Extra multi-token NP chunks make the syntactic modes prune, and its oracle keeps the trees with no
        # node crossing a chunk, or every tree when none is left. The last
        # 30 instances have a quantity and an NP at one location.
        rng = random.Random(37)
        modes = (({}, True), ({"use_lexicon": False}, False),
                 ({"lexicon_as_features": True}, False),
                 ({"conform_syntactic": True}, True),
                 ({"use_lexicon": False, "conform_syntactic": True}, False),
                 ({"lexicon_as_features": True, "conform_syntactic": True},
                  False))
        for trial in range(90):
            make = random_tree_instance if trial < 60 else shared_location_instance
            sentence, triggers = make(rng, 2 + trial % 3)
            sentence = with_extra_chunks(rng, sentence)
            x = (sentence, triggers)
            weights = HashWeights(salt=7000 + trial)
            for kwargs, lexicon_space in modes:
                decoder = CkyDecoder(**kwargs)
                space = enumerate_projective_trees(sentence, triggers,
                                                   use_lexicon=lexicon_space)
                if decoder.conform_syntactic:
                    space = ([t for t in space
                              if not crosses_np_chunk(sentence, t)] or space)
                scores = [dot(weights, decoder.features(x, t)) for t in space]
                gold = rng.choice(space)
                for g, cost_unit in ((None, 1), (gold, 1), (gold, 10)):
                    def objective(i):
                        cost = 0 if g is None else tree_cost(g, space[i])
                        return scores[i] + cost_unit * cost

                    got = decoder.decode(x, weights, gold=g,
                                         cost_unit=cost_unit)
                    assert got in space
                    assert objective(space.index(got)) == max(
                        map(objective, range(len(space))))

    def test_contains_gold_tree(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = twice_triple_gold(triggers)
        assert CkyDecoder().contains((twice_triple_sentence, triggers), tree)

    def test_contains_rejects_lexicon_violations(self, twice_triple_sentence):
        # "less than" between the subtrees forces reversed subtraction, so
        # an addition node there is outside the constrained space
        triggers = twice_triple_triggers(twice_triple_sentence)
        gold = twice_triple_gold(triggers)
        altered = Node(Op.EQ, Order.LR, gold.left,
                       Node(Op.ADD, Order.LR, gold.right.left,
                            gold.right.right))
        x = (twice_triple_sentence, triggers)
        assert not CkyDecoder().contains(x, altered)
        assert CkyDecoder(use_lexicon=False).contains(x, altered)

    def test_contains_requires_eq_root(self, twice_triple_sentence):
        # the root cell (0, n) explores EQ only, and EQ nowhere else
        triggers = twice_triple_triggers(twice_triple_sentence)
        gold = twice_triple_gold(triggers)
        x = (twice_triple_sentence, triggers)
        decoder = CkyDecoder(use_lexicon=False)
        assert not decoder.contains(x, Node(Op.ADD, Order.LR, gold.left, gold.right))
        assert not decoder.contains(x, Node(Op.EQ, Order.LR, gold.left, Node(
            Op.EQ, Order.LR, gold.right.left, gold.right.right)))

    def test_contains_rejects_more_leaves_than_triggers(
            self, twice_triple_sentence):
        # the leaf list is compared before any node context is built, so
        # a tree wider than the trigger list is rejected, not an IndexError
        triggers = twice_triple_triggers(twice_triple_sentence)
        x = (twice_triple_sentence, triggers[:4])
        gold = twice_triple_gold(triggers)
        assert not CkyDecoder().contains(x, gold)
        with pytest.raises(ValueError, match="candidate space"):
            train_structured([(x, gold)], CkyDecoder(), TrainConfig())

    def test_syntactic_conformance_falls_back(self):
        sentence = crossing_sentence()
        triggers = tuple(sentence_quantities(sentence))
        decoder = CkyDecoder(use_lexicon=False, conform_syntactic=True)
        tree = decoder.decode((sentence, triggers), {})
        validate_tree(tree)
        assert is_projective(tree)
        plain = CkyDecoder(use_lexicon=False).decode((sentence, triggers), {})
        assert tree == plain

    def test_syntactic_conformance_steers_when_possible(self, notes_sentence):
        # the single NP covers both denominations; a nested interval is fine
        quantities = tuple(sentence_quantities(notes_sentence))
        decoder = CkyDecoder(use_lexicon=False, conform_syntactic=True)
        tree = decoder.decode((notes_sentence, quantities), {})
        validate_tree(tree)

    def test_lexicon_as_features_decoder_features(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        tree = twice_triple_gold(triggers)
        decoder = CkyDecoder(lexicon_as_features=True)
        feats = decoder.features((twice_triple_sentence, triggers), tree)
        assert feats["lex_agree=1|o=-rl"] == 1.0
        assert feats["lex_agree=1|o=*"] == 2.0
        plain = tree_features(twice_triple_sentence, triggers, tree)
        assert all(feats[name] == value for name, value in plain.items())

    def test_lexicon_as_features_explores_all_ops(self, twice_triple_sentence):
        triggers = twice_triple_triggers(twice_triple_sentence)
        gold = twice_triple_gold(triggers)
        altered = Node(Op.EQ, Order.LR, gold.left,
                       Node(Op.ADD, Order.LR, gold.right.left,
                            gold.right.right))
        x = (twice_triple_sentence, triggers)
        assert CkyDecoder(lexicon_as_features=True).contains(x, altered)


class _Logged(int):
    """An int that stays one through addition and logs its value when
    shifted: a packed total the chart reads a label's field of."""

    log: list = []

    def __add__(self, other):
        return _Logged(int(self) + int(other))

    __radd__ = __add__

    def __rshift__(self, shift):
        _Logged.log.append(int(self))
        return int(self) >> shift


class _LoggedPacked(_DensePacked):
    """A `HashWeights` table whose part totals are `_Logged`."""

    def total(self, names):
        return _Logged(super().total(names))


def _nested_examples(seed: str, sizes):
    """One example per trigger count from the benchmark's nested-sentence
    generator, each checked as the benchmark checks it."""
    path = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(seed)
    return [workloads._checked(workloads.nested_example, rng, CkyDecoder(), n)
            for n in sizes]


def _space_tree(rng, decoder, x, i, j):
    """A random tree over triggers[i:j) that `decoder.contains`."""
    if j - i == 1:
        return Leaf(x.triggers[i])
    k = rng.randrange(i + 1, j)
    op, order, _ = rng.choice(decoder.node_ops(x, i, k, j)[1])
    return Node(op, order, _space_tree(rng, decoder, x, i, k),
                _space_tree(rng, decoder, x, k, j))


def test_schedule_lists_every_split_once_shorter_cells_first():
    # the chart's walk: each (i, k, j) with 0 <= i < k < j <= n once, a
    # cell's splits together, cells by length, and each index the flat
    # list entry of its cell
    for n in range(2, 13):
        schedule = treeparse._schedule(n)
        width = n + 1
        triples = [(i, k, j) for i, j, _, splits in schedule
                   for k, _, _ in splits]
        assert sorted(triples) == [(i, k, j) for i in range(n)
                                   for k in range(i + 1, n)
                                   for j in range(k + 1, n + 1)]
        lengths = [j - i for i, j, _, _ in schedule]
        assert lengths == sorted(lengths)
        assert len(set((i, j) for i, j, _, _ in schedule)) == len(schedule)
        for i, j, cell, splits in schedule:
            assert cell == i * width + j
            assert [k for k, _, _ in splits] == list(range(i + 1, j))
            assert all((left, right) == (i * width + k, k * width + j)
                       for k, left, right in splits)


class TestChartOracles:
    @pytest.mark.parametrize("kwargs", CKY_MODES[:3], ids=CKY_MODE_IDS[:3])
    def test_node_totals_equal_node_parts(self, kwargs):
        # the chart reads each explored op's field of a split's packed
        # total, summed from per-location and per-split totals; each total
        # it reads, in chart order (by length, then i, then k, then op),
        # equals the bias plus the packed total of the split's
        # `_node_parts` names, plus lex_agree's in feature mode. Random
        # instances, half with lexicon fillers, and shared locations, at
        # n <= 8; some have a trigger at offset 0. The syntactic mode reads
        # the same totals over fewer cells
        rng = random.Random(59)
        decoder = CkyDecoder(**kwargs)
        at_zero = 0
        for trial in range(120):
            make = (random_tree_instance, shared_location_instance)[trial % 2]
            filler = {"filler": LEXICON_WORDS, "multipliers": True} \
                if trial % 4 >= 2 else {}
            sentence, triggers = make(rng, 2 + trial % 7, **filler)
            x = decoder.prepare((sentence, triggers))
            at_zero += x.locs[0] == 0
            weights = HashWeights(salt=trial)
            weights.packed = packed = _LoggedPacked(weights)
            agree = [int(packed.total([f"lex_agree={b}"])) for b in (0, 1)]
            n = len(triggers)
            expected = []
            for length in range(2, n + 1):
                for i in range(n - length + 1):
                    j = i + length
                    for k in range(i + 1, j):
                        total = packed.bias + sum(
                            int(packed.total(x.part_names(part)))
                            for part in _node_parts(x.locs, x.values, i, k, j))
                        match, ops = decoder.node_ops(x, i, k, j)
                        for op, order, _ in ops:
                            bonus = agree[(op, order) == match] \
                                if decoder.lexicon_as_features \
                                and match is not None else 0
                            expected.append(total + bonus)
            _Logged.log.clear()
            decoder.decode(x, weights)
            assert _Logged.log == expected, (sentence.text, triggers)
        assert at_zero >= 10

    @pytest.mark.parametrize("kwargs", CKY_MODES, ids=CKY_MODE_IDS)
    def test_long_decodes_beat_gold_and_random_trees(self, kwargs):
        # beyond enumeration: at n = 12..20 the decoded tree is in the
        # space, and its objective (score, plus the cost to the gold tree
        # when decoding against it) is at least the gold tree's and that
        # of 20 random trees in the space. In the syntactic mode those
        # are the trees crossing no NP chunk, unless the decode fell back
        decoder = CkyDecoder(**kwargs)
        rng = random.Random(61)
        for n, example in zip(range(12, 21), _nested_examples(
                "nested:oracle", range(12, 21))):
            sentence, triggers, gold = gold_tree_instance(example)
            x = decoder.prepare((sentence, triggers))
            weights = HashWeights(salt=n)
            others = [gold, *(_space_tree(rng, decoder, x, 0, n)
                              for _ in range(20))]
            for target, cost_unit in ((None, 1), (gold, 1), (gold, 10)):
                def objective(tree):
                    cost = 0 if target is None else tree_cost(target, tree)
                    return (dot(weights, decoder.features(x, tree))
                            + cost_unit * cost)

                got = decoder.decode(x, weights, gold=target,
                                     cost_unit=cost_unit)
                assert decoder.contains(x, got)
                rivals = others
                if (decoder.conform_syntactic
                        and not crosses_np_chunk(sentence, got)):
                    rivals = [t for t in others
                              if not crosses_np_chunk(sentence, t)]
                best = objective(got)
                assert all(best >= objective(t) for t in rivals), (n, target)


class TestEnumeration:
    def test_unconstrained_count_three_leaves(self):
        sentence = crossing_sentence()
        triggers = tuple(sentence_quantities(sentence))
        trees = enumerate_projective_trees(sentence, triggers,
                                           use_lexicon=False)
        # 2 bracketings x 6 (op, order) choices for the non-root node
        assert len(trees) == 12
        assert len(set(map(format_tree, trees))) == 12
        for tree in trees:
            validate_tree(tree)
            assert is_projective(tree)

    def test_lexicon_prunes_enumeration(self):
        sentence = crossing_sentence()
        triggers = tuple(sentence_quantities(sentence))
        constrained = enumerate_projective_trees(sentence, triggers)
        # "plus" forces addition at the (0,2) node; the (1,3) node is free
        assert len(constrained) < 12
        for tree in constrained:
            assert CkyDecoder().contains((sentence, triggers), tree)
