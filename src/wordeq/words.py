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

    @property
    def is_empty(self) -> bool:
        return not self

    def to_text(self) -> str:
        if not self:
            return "eps"
        if all(a <= 9 for a in self):
            return "".join(str(a) for a in self)
        return "[" + ",".join(str(a) for a in self) + "]"

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

    @property
    def total(self) -> int:
        return sum(self)

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
        return Word(letters)

    def length_type(self) -> LengthType:
        return LengthType(len(w) for w in self)

    @property
    def is_nonerasing(self) -> bool:
        return all(self)

    @property
    def all_empty(self) -> bool:
        return not any(self)


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


def _factors(letters: tuple[int, ...]):
    out = set()
    size = len(letters)
    for i in range(size):
        for j in range(i + 1, size + 1):
            out.add(letters[i:j])
    return out


def _in_star(word: tuple[int, ...], pieces) -> bool:
    size = len(word)
    reach = [False] * (size + 1)
    reach[0] = True
    for i in range(size):
        if not reach[i]:
            continue
        for p in pieces:
            end = i + len(p)
            if end <= size and word[i:end] == p:
                reach[end] = True
    return reach[size]


@lru_cache(maxsize=1 << 16)
def _minimal_factor_cover(images: tuple[Word, ...]) -> int:
    """Least r such that some r-word set A has every image in A*.

    The images are distinct, nonempty and sorted.  A minimal A can always
    be drawn from the factors of the images (unused elements of A can be
    dropped), so the search is exhaustive over factor subsets.
    """
    if not images:
        return 0
    roots = {primitive_root(w) for w in images}
    if len(roots) == 1:
        return 1
    upper = len(images)
    candidates = set()
    for w in images:
        candidates |= _factors(w)
    candidates = sorted(candidates, key=lambda f: (len(f), f))
    prefixes = {images[0][:i] for i in range(1, len(images[0]) + 1)}
    for r in range(2, upper):
        for combo in itertools.combinations(candidates, r):
            if not any(p in prefixes for p in combo):
                continue
            if all(_in_star(w, combo) for w in images):
                return r
    return upper


def combinatorial_rank(h: Morphism, cap: int | None = None) -> int | None:
    """Least r with all images inside A* for some set A of r nonempty words.

    Returns None when the rank exceeds ``cap`` (default: the number of
    unknowns, which the rank can never exceed).  The everywhere-empty
    morphism has rank 0.
    """
    if cap is None:
        cap = h.n
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    rank = _minimal_factor_cover(tuple(sorted({w for w in h if w})))
    return rank if rank <= cap else None


# --- text formats ---------------------------------------------------------

_WORD_BRACKET = re.compile(r"^\[\s*(?:\d+\s*(?:,\s*\d+\s*)*)?\]$")


def parse_word(text: str) -> Word:
    """Parse "1212", "[10,2,3]" or "eps"."""
    text = text.strip()
    if text in ("eps", "[]", ""):
        return EMPTY_WORD
    if _WORD_BRACKET.match(text):
        inner = text[1:-1].strip()
        if not inner:
            return EMPTY_WORD
        return Word(int(p) for p in inner.split(","))
    if text.isdigit():
        if "0" in text:
            raise InputFormatError(f"word {text!r} contains the letter 0")
        return Word(int(c) for c in text)
    raise InputFormatError(f"cannot parse word {text!r}")


def default_names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def resolve_unknown(token: str, names: list[str] | None) -> int:
    """Map an unknown token to its 1-based index."""
    if names and token in names:
        return names.index(token) + 1
    m = re.fullmatch(r"x(\d+)", token)
    if m:
        idx = int(m.group(1))
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


def morphism_to_text(h: Morphism, names: list[str] | None = None) -> str:
    names = names or default_names(h.n)
    return "\n".join(f"{names[i]} = {h[i].to_text()}" for i in range(h.n))


def words_of_length(alphabet, length: int):
    """All letter tuples of a given length over the alphabet."""
    return itertools.product(alphabet, repeat=length)
