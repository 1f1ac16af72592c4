import itertools
import pickle
import random

import pytest

from wordeq import (
    LengthType,
    Morphism,
    Word,
    combinatorial_rank,
    commute_check,
    encode_ratfun,
    is_periodic,
    parse_morphism,
    parse_word,
    primitive_root,
)

from wordeq import words
from wordeq.words import _minimal_factor_cover, default_names

from conftest import morphism
from rank_reference import factor_subset_rank


def words_over(alphabet, max_len):
    for k in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=k):
            yield Word(tup)


class TestWord:
    def test_letters_must_be_positive(self):
        with pytest.raises(ValueError):
            Word((0, 1))
        with pytest.raises(ValueError):
            Word((-3,))

    def test_empty_word_is_valid(self):
        assert len(Word()) == 0
        assert Word() == ()

    def test_concat_and_power(self):
        w = Word((1, 2))
        assert (w + w).letters == (1, 2, 1, 2)
        assert (w * 3).letters == (1, 2) * 3
        assert w * 0 == ()

    def test_parse_and_render(self):
        assert parse_word("1212").letters == (1, 2, 1, 2)
        assert parse_word("[10,2,3]").letters == (10, 2, 3)
        assert parse_word("eps") == ()
        assert parse_word("[10,2,3]").to_text() == "[10,2,3]"
        assert parse_word("1212").to_text() == "1212"
        assert Word().to_text() == "eps"

    def test_text_matches_the_per_letter_rendering(self):
        def per_letter(w):
            if not w:
                return "eps"
            if max(w) <= 9:
                return "".join(str(a) for a in w)
            return "[" + ",".join(str(a) for a in w) + "]"

        rng = random.Random(17)
        cases = [(), *((a,) for a in range(1, 10)), tuple(range(1, 10)), (9, 10), (10, 9),
                 (255,), (256,), (255, 256), (1, 255), (1, 256), (10,)]
        cases += [tuple(rng.randint(1, top) for _ in range(rng.randint(1, 12)))
                  for top in (2, 9, 10, 300) for _ in range(50)]
        for letters in cases:
            assert Word(letters).to_text() == per_letter(letters), letters
        assert Word((9, 10)).to_text() == "[9,10]" and Word((255, 256)).to_text() == "[255,256]"
        assert Word(range(1, 10)).to_text() == "123456789"

    def test_parse_rejects_zero_letter(self):
        with pytest.raises(ValueError):
            parse_word("102")

    def test_word_is_its_letter_tuple(self):
        w = Word((1, 2, 1))
        assert isinstance(w, tuple) and w == (1, 2, 1) and hash(w) == hash((1, 2, 1))
        assert w.letters is w
        assert w[1] == 2 and w[1:] == (2, 1) and type(w[1:]) is tuple
        assert type(w + w) is Word and type(w * 2) is Word and type(2 * w) is Word
        assert type(pickle.loads(pickle.dumps(w))) is Word
        with pytest.raises(ValueError, match="letters must be positive integers"):
            Word((1, True))
        with pytest.raises(ValueError, match="negative powers"):
            w * -1


class TestMorphism:
    def test_morphism_is_its_image_tuple(self):
        h = morphism((1,), (), (2, 1))
        assert isinstance(h, tuple) and h == (Word((1,)), Word(), Word((2, 1)))
        assert h.images is h and h.n == 3 and h.image(3) == (2, 1)
        assert hash(h) == hash(tuple(h)) and type(pickle.loads(pickle.dumps(h))) is Morphism

    def test_set_keeps_solutions_distinct(self):
        same = [morphism((1,), (), (2, 1)), morphism((1,), (), (2, 1))]
        other = [morphism((1,), (1,), (2, 1)), morphism((1,), (2, 1), ())]
        assert len(set(same + other)) == 3

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="a morphism needs at least one unknown"):
            Morphism(())
        with pytest.raises(TypeError, match="morphism images must be Word instances"):
            Morphism(((1,),))

    def test_identity_and_composition_laws(self):
        rng = random.Random(59)

        def endo(n):
            return Morphism(
                Word(rng.randint(1, n) for _ in range(rng.randint(0, 3))) for _ in range(n)
            )

        for _ in range(200):
            n = rng.randint(1, 4)
            f, g, h = endo(n), endo(n), endo(n)
            identity = Morphism.identity(n)
            assert identity == tuple((i,) for i in range(1, n + 1))
            assert identity.compose(f) == f and f.compose(identity) == f
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
            # a plain tuple of tuples composes like the Morphism it spells
            plain = tuple(tuple(w) for w in h)
            assert type(g.compose(plain)) is Morphism and g.compose(plain) == g.compose(h)
            for x in range(1, n + 1):
                assert f.compose(g).image(x) == f.apply(g.image(x))


class TestPrimitiveRoot:
    def test_proper_power(self):
        assert primitive_root(parse_word("1212")) == parse_word("12")

    def test_single_letter(self):
        assert primitive_root(parse_word("1")) == parse_word("1")

    def test_primitive_stays(self):
        assert primitive_root(parse_word("121")) == parse_word("121")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            primitive_root(Word())

    def test_idempotent_and_exact_power(self):
        for w in words_over((1, 2), 8):
            if w == ():
                continue
            root = primitive_root(w)
            assert primitive_root(root) == root
            assert root * (len(w) // len(root)) == w


class TestCommuteCheck:
    def test_same_root(self):
        assert commute_check(parse_word("12"), parse_word("1212"))

    def test_distinct_letters(self):
        assert not commute_check(parse_word("1"), parse_word("2"))

    def test_against_direct_concatenation(self):
        # direct oracle: 12.121 = 12121 but 121.12 = 12112
        u, v = parse_word("12"), parse_word("121")
        assert (u + v).letters == (1, 2, 1, 2, 1)
        assert (v + u).letters == (1, 2, 1, 1, 2)
        assert not commute_check(u, v)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            commute_check(Word(), parse_word("1"))

    def test_matches_concatenation_and_rational_encoding(self):
        # all nonempty binary pairs with |u| + |v| <= 10
        for total in range(2, 11):
            for a in range(1, total):
                for ut in itertools.product((1, 2), repeat=a):
                    for vt in itertools.product((1, 2), repeat=total - a):
                        u, v = Word(ut), Word(vt)
                        expected = (u + v) == (v + u)
                        assert commute_check(u, v) == expected
                        assert (encode_ratfun(u) == encode_ratfun(v)) == expected


class TestCombinatorialRank:
    def test_two_letters_and_their_product(self):
        assert combinatorial_rank(morphism((1,), (2,), (1, 2))) == 2

    def test_shared_root(self):
        assert combinatorial_rank(morphism((1, 1), (1, 1, 1, 1))) == 1

    def test_reversed_product_with_cap(self):
        assert combinatorial_rank(morphism((1,), (2,), (2, 1))) == 2

    def test_all_empty(self):
        assert combinatorial_rank(morphism((), (), ())) == 0

    def test_cap_sentinel(self):
        # three pairwise independent words over three letters
        h = morphism((1,), (2,), (3,))
        assert combinatorial_rank(h) == 3

    def test_rank_bounds_for_nonerasing(self):
        for images in itertools.product(list(itertools.product((1, 2), repeat=1)) +
                                        list(itertools.product((1, 2), repeat=2)), repeat=3):
            h = morphism(*images)
            r = combinatorial_rank(h)
            assert 1 <= r <= 3
            assert (r == 1) == is_periodic(h)

    def test_rank_cache_is_bounded(self):
        assert _minimal_factor_cover.cache_info().maxsize is not None

    def test_factor_set_witness_matches(self):
        # brute-force cross-check on mixed images
        h = morphism((1, 2, 1), (1,), (2, 1))
        assert combinatorial_rank(h) == 2

    def test_matches_the_factor_subset_search(self):
        rng = random.Random(12)
        for case in range(3000):
            letters = range(1, rng.randint(1, 3) + 1)

            def word(size):
                return Word(rng.choice(letters) for _ in range(size))

            n = rng.randint(1, 4)
            if case % 2:
                images = [word(rng.randint(0, 6)) for _ in range(n)]
            else:
                # products of two base words, so ranks below n are common
                bases = (word(rng.randint(1, 3)), word(rng.randint(1, 3)))
                images = []
                for _ in range(n):
                    w = Word()
                    for _ in range(rng.randint(0, 4)):
                        piece = rng.choice(bases)
                        if len(w) + len(piece) <= 6:
                            w += piece
                    images.append(w)
            h = morphism(*images)
            assert combinatorial_rank(h) == factor_subset_rank(h), h

    def test_full_rank_of_long_images_within_the_state_bound(self):
        # the factor-subset search took about three minutes on these images (2-CPU host)
        rng = random.Random(4)
        h = morphism(*(Word(rng.randint(1, 4) for _ in range(24)) for _ in range(4)))
        _minimal_factor_cover.cache_clear()
        assert combinatorial_rank(h) == 4

    def test_state_bound_raises(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_RANK_STATES", 5)
        _minimal_factor_cover.cache_clear()
        with pytest.raises(ValueError, match="rank search"):
            combinatorial_rank(morphism((1,), (2,), (3,), (4,)))


class TestIsPeriodic:
    def test_powers_of_common_root(self):
        assert is_periodic(morphism((1, 2), (1, 2, 1, 2)))

    def test_distinct_letters(self):
        assert not is_periodic(morphism((1,), (2,)))

    def test_all_empty_counts_as_periodic(self):
        assert is_periodic(morphism((), ()))


class TestLengthType:
    def test_of_morphism(self):
        assert tuple(morphism((1,), (2,), (1, 2)).length_type()) == (1, 1, 2)

    def test_all_empty(self):
        assert tuple(morphism((), (), ()).length_type()) == (0, 0, 0)

    def test_mixed(self):
        assert tuple(morphism((1, 1), ()).length_type()) == (2, 0)

    def test_additivity(self):
        lt = LengthType((2, 0, 3))
        for u in itertools.product((1, 2, 3), repeat=3):
            for v in itertools.product((1, 2, 3), repeat=2):
                assert lt.apply(u + v) == lt.apply(u) + lt.apply(v)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LengthType((1, -1))

    def test_length_type_is_its_length_tuple(self):
        lt = morphism((1,), (2,), (1, 2)).length_type()
        assert type(lt) is LengthType and lt == (1, 1, 2) and sum(lt) == 4
        assert lt[2] == 2 and len(lt) == 3
        with pytest.raises(ValueError, match="must be nonnegative"):
            LengthType((1, "2"))

    def test_bool_entries_rejected(self):
        for lengths in ((True, 2), (1, False)):
            with pytest.raises(ValueError, match="length type entries must be nonnegative"):
                LengthType(lengths)


def morphism_to_text(h: Morphism, names: list[str] | None = None) -> str:
    names = names or default_names(h.n)
    return "\n".join(f"{names[i]} = {h[i].to_text()}" for i in range(h.n))


class TestMorphismText:
    def test_round_trip(self):
        h = morphism((1, 2), (), (10, 2))
        text = morphism_to_text(h)
        assert parse_morphism(text) == h

    def test_named_round_trip(self):
        h = parse_morphism("x = 1\ny = eps\nz = 22", names=["x", "y", "z"])
        assert [w.to_text() for w in h.images] == ["1", "eps", "22"]

    def test_missing_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_morphism("x1 = 1", n=2)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            parse_morphism("x1 = 1\nx1 = 2")
