"""Words over positive-integer alphabets, morphisms and length types.

Letters are positive integers (0 is excluded so that the polynomial
encoding of words stays injective).  Unknowns are indexed 1..n and a
morphism assigns a word to every unknown.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from .errors import InputFormatError


# byte k -> the digit k, for the letters 1-9 of a word's text
_DIGITS = bytes.maketrans(bytes(range(1, 10)), b"123456789")


class Word(tuple):
    """Immutable word over an alphabet of positive integers: its letter tuple.

    Indexing, slicing, comparison and hashing are the tuple's own, so a
    slice is a plain tuple; ``+`` and ``*`` give Words.
    """

    __slots__ = ()

    def __new__(cls, letters=()):
        self = super().__new__(cls, letters)
        for a in self:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"letters must be positive integers, got {a!r}")
        return self

    @classmethod
    def _trusted(cls, letters) -> "Word":
        """Wrap letters already known to be positive integers, skipping the check."""
        return tuple.__new__(cls, letters)

    @property
    def letters(self) -> "Word":
        """The word itself, for callers written against the letter field."""
        return self

    def __add__(self, other) -> "Word":
        return Word(tuple.__add__(self, other))

    def __mul__(self, k: int) -> "Word":
        if k < 0:
            raise ValueError("negative powers of words are undefined")
        return Word(tuple.__mul__(self, k))

    __rmul__ = __mul__

    def to_text(self) -> str:
        if not self:
            return "eps"
        if max(self) <= 9:
            return bytes(self).translate(_DIGITS).decode()
        return "[" + ",".join(map(str, self)) + "]"

    def __str__(self):
        return self.to_text()


EMPTY_WORD = Word()


class LengthType(tuple):
    """Vector of image lengths; induces the additive length map on unknowns."""

    __slots__ = ()

    def __new__(cls, lengths):
        self = super().__new__(cls, lengths)
        for v in self:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"length type entries must be nonnegative, got {v!r}")
        return self

    def apply(self, unknowns) -> int:
        """Length of the image of a word over unknowns, computed from lengths only."""
        return sum(self[x - 1] for x in unknowns)


class Morphism(tuple):
    """Assignment of a word to each of the unknowns x_1..x_n: its image tuple."""

    __slots__ = ()

    def __new__(cls, images):
        self = super().__new__(cls, images)
        if not self:
            raise ValueError("a morphism needs at least one unknown")
        for w in self:
            if not isinstance(w, Word):
                raise TypeError(f"morphism images must be Word instances, got {w!r}")
        return self

    @classmethod
    def _trusted(cls, images: tuple[Word, ...]) -> "Morphism":
        """Wrap a nonempty tuple of Words, skipping the checks of ``__new__``."""
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> "Morphism":
        """The endomorphism x_i -> x_i of the unknowns x_1..x_n."""
        return cls(Word._trusted((i,)) for i in range(1, n + 1))

    @property
    def images(self) -> "Morphism":
        """The morphism itself, for callers written against the image field."""
        return self

    @property
    def n(self) -> int:
        return len(self)

    def image(self, x: int) -> Word:
        return self[x - 1]

    def apply(self, unknowns) -> Word:
        """Concatenation of the images along a word over unknowns."""
        letters = []
        for x in unknowns:
            letters.extend(self[x - 1])
        return Word._trusted(letters)

    def compose(self, inner) -> "Morphism":
        """The map x -> self(inner(x)); inner is any tuple of words over the unknowns."""
        return Morphism(self.apply(w) for w in inner)

    def length_type(self) -> LengthType:
        return LengthType(len(w) for w in self)

    @property
    def is_nonerasing(self) -> bool:
        return all(self)


def _divisors(num: int):
    for d in range(1, num + 1):
        if num % d == 0:
            yield d


def primitive_root(w: Word) -> Word:
    """Shortest word u with w = u^k; the input must be nonempty."""
    if not w:
        raise ValueError("the empty word has no primitive root")
    size = len(w)
    for p in _divisors(size):
        if all(w[i] == w[i % p] for i in range(p, size)):
            return Word(w[:p])
    return w


def commute_check(u: Word, v: Word) -> bool:
    """Whether two nonempty words share a primitive root.

    Computed from the roots and cross-checked against the direct test
    uv = vu, which must agree.
    """
    if not u or not v:
        raise ValueError("commutation is only defined for nonempty words")
    by_root = primitive_root(u) == primitive_root(v)
    direct = (u + v) == (v + u)
    if by_root != direct:
        raise AssertionError("primitive-root and direct commutation tests disagree")
    return by_root


def is_periodic(h: Morphism) -> bool:
    """True when all nonempty images are powers of one common primitive word."""
    roots = {primitive_root(w) for w in h if w}
    return len(roots) <= 1


# reaching it takes about 0.6 s and 45 MB (Python 3.11, 2-CPU host); full rank 5
# on random 24-letter images expands about 65,000 states
MAX_RANK_STATES = 10**5

# the length-type walks (oracle.compositions, oracle.balanced_length_types)
# recurse once per unknown, and Python's default recursion limit is 1000
MAX_UNKNOWNS = 500


@lru_cache(maxsize=1 << 16)
def _minimal_factor_cover(images: tuple[Word, ...]) -> int:
    """Least r such that some r-word set A has every image in A*.

    The images are distinct, nonempty and sorted, and they cover
    themselves, so r is at most their number.  Level r reads the images
    left to right: at the first unread position the next factor is a word
    already in A, or a new word starting there while A holds fewer than r.
    A failed (A, position) state is not expanded twice in one level.
    Deciding whether the rank equals the number of images is
    co-NP-complete, so the search raises ValueError once it has expanded
    more than MAX_RANK_STATES states over all levels.
    """
    text = tuple(itertools.chain.from_iterable(images))
    stop = []  # stop[p]: end of the image holding position p
    for w in images:
        stop += [len(stop) + len(w)] * len(w)
    expanded = 0

    def parses(chosen: frozenset, p: int) -> bool:
        nonlocal expanded
        todo = [p]
        while todo:
            p = todo.pop()
            if p == len(text):
                return True
            if (chosen, p) in failed:
                continue
            failed.add((chosen, p))
            expanded += 1
            if expanded > MAX_RANK_STATES:
                raise ValueError(f"the combinatorial rank search passed {MAX_RANK_STATES} states")
            for a in chosen:
                end = p + len(a)
                if end <= stop[p] and text[p:end] == a:
                    todo.append(end)
            if len(chosen) < r:
                for end in range(p + 1, stop[p] + 1):
                    a = text[p:end]
                    if a not in chosen and parses(chosen | {a}, end):
                        return True
        return False

    for r in range(1, len(images)):
        failed = set()
        if parses(frozenset(), 0):
            return r
    return len(images)


def combinatorial_rank(h: Morphism) -> int:
    """Least r with all images inside A* for some set A of r nonempty words.

    The everywhere-empty morphism has rank 0, and no rank exceeds the
    number of unknowns.  Raises ValueError past MAX_RANK_STATES search
    states.
    """
    return _minimal_factor_cover(tuple(sorted({w for w in h if w})))


# --- text formats ---------------------------------------------------------

# every reader matches ASCII digits only: \d and str.isdigit also accept digits no writer writes
_DIGITS_RUN = re.compile(r"[0-9]+")
_WORD_BRACKET = re.compile(r"\[\s*(?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?\]")
_INDEXED = re.compile(r"x([0-9]+)")


def parse_digits(text: str) -> int:
    """The integer a run of ASCII digits writes.

    Raises InputFormatError for anything else, and for a run longer than
    int() reads (``sys.get_int_max_str_digits``, 4300 digits by default).
    """
    if not _DIGITS_RUN.fullmatch(text):
        raise InputFormatError("expected decimal digits")
    try:
        return int(text)
    except ValueError:
        raise InputFormatError(f"a run of {len(text)} digits is too long to read") from None


def parse_word(text: str) -> Word:
    """Parse "1212", "[10,2,3]" or "eps"."""
    text = text.strip()
    if text in ("eps", "[]", ""):
        return EMPTY_WORD
    if _WORD_BRACKET.fullmatch(text):
        inner = text[1:-1].strip()
        if not inner:
            return EMPTY_WORD
        return Word(parse_digits(p.strip()) for p in inner.split(","))
    if _DIGITS_RUN.fullmatch(text):
        if "0" in text:
            raise InputFormatError(f"word {text!r} contains the letter 0")
        return Word(int(c) for c in text)
    raise InputFormatError(f"cannot parse word {text!r}")


def default_names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def resolve_unknown(token: str, names: list[str] | None) -> int:
    """Map an unknown token to its 1-based index: a name, or xi for 1 <= i <= MAX_UNKNOWNS."""
    if names and token in names:
        return names.index(token) + 1
    m = _INDEXED.fullmatch(token)
    if m:
        idx = parse_digits(m.group(1))
        if idx > MAX_UNKNOWNS:
            raise InputFormatError(f"unknown {token[:20]!r} is past the bound of {MAX_UNKNOWNS} unknowns")
        if idx >= 1:
            return idx
    raise InputFormatError(f"unknown token {token!r}")


def parse_morphism(text: str, names: list[str] | None = None, n: int | None = None) -> Morphism:
    """Parse lines of the form "x1 = 1212" or "y = eps"."""
    entries: dict[int, Word] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"line {lineno}: expected 'unknown = word', got {raw!r}")
        left, right = line.split("=", 1)
        try:
            idx = resolve_unknown(left.strip(), names)
            word = parse_word(right.strip())
        except InputFormatError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
        if idx in entries:
            raise InputFormatError(f"line {lineno}: duplicate definition for unknown {idx}")
        entries[idx] = word
    if not entries:
        raise InputFormatError("morphism file defines no unknowns")
    size = n or (len(names) if names else max(entries))
    missing = [i for i in range(1, size + 1) if i not in entries]
    if missing:
        raise InputFormatError(f"morphism leaves unknowns {missing} undefined")
    extra = [i for i in entries if i > size]
    if extra:
        raise InputFormatError(f"morphism defines out-of-range unknowns {extra}")
    return Morphism(entries[i] for i in range(1, size + 1))


def words_of_length(alphabet, length: int):
    """All letter tuples of a given length over the alphabet."""
    return itertools.product(alphabet, repeat=length)
