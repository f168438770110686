"""Base-group oracles: finite cyclic, finite multiplication table, Z^n, free.

Every oracle works on :class:`~treegroups.words.Word` values over its own
generators and exposes a canonical form with an O(length) identity test:
residue (cyclic), table index (finite table), exponent vector (free abelian),
freely reduced word (free).  Exponents are plain Python integers, so powers
never overflow.  Free words stay (generator, exponent) letters, so the
cost of a free factor grows at most with the logarithm of an exponent.  What
scales further: a free-cyclic ``conjugator_cosets`` scans up to |c| rotations
of the edge word's cyclic core c, and table oracles multiply out powers mod
the element order.

This module holds the base classes and the cyclic and free kinds.  The
table and free abelian kinds (``TableOracle``, ``FreeAbelianOracle`` and
their subgroups) live in :mod:`treegroups.table_lattice`, which only
``make_table`` and ``make_free_abelian`` import.  A CLI call without a
bytecode cache compiles every module it imports, so keeping those kinds
here would make each classify, tau, fix or axis call on cyclic and free
factors pay for compiling them too.

Designated subgroups carry the extra structure amalgams need.  One query,
``split(x) -> (rep, cw)``, writes x = rep * embed(cw) with rep the canonical
representative of the left coset xH (empty exactly when x lies in H) and cw
a word over the subgroup generators.  Callers read membership (an empty
rep) and coset representatives off it; there is no separate query for
either.  Each kind lists its canonical coset representatives
lazily, in one fixed order, through ``cosets()``, and solves "which
conjugators push this element into the subgroup", which fixed-point sets on
the coset tree use.  ``_capped`` is the one place a coset or conjugator list
is cut at a cap and flagged incomplete; ``transversal(cap)`` caps
``cosets()`` (at ``NEIGHBOR_CAP`` when the index is infinite and no cap is
given), so a huge finite index costs no more than the cap.

Words are checked where they enter: every public oracle and subgroup method
rejects a foreign generator with a ``WordError``.  Each kind implements the
unchecked ``_reduce`` and ``_split``, which internal code and ``embed`` use.
"""

from __future__ import annotations

import itertools
from math import gcd, inf
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from .words import Word, WordError, shortlex, valid_gen_name

if TYPE_CHECKING:
    from .table_lattice import FreeAbelianOracle, TableOracle

# A subgroup element expressed over the subgroup's abstract generators.
CWord = Tuple[Tuple[int, int], ...]


# longest coset list an infinite-index transversal returns when no cap is
# given, and the fixed-set walks' default cap
NEIGHBOR_CAP = 16


class OracleError(ValueError):
    """Invalid oracle construction or misuse."""


def _capped(items: Iterable, cap: Optional[int]) -> Tuple[list, bool]:
    """The first ``cap`` items (all when cap is None) and whether that is all
    of them; reads at most one item past the cap."""
    head = list(itertools.islice(items, None if cap is None else cap + 1))
    return head[:cap], cap is None or len(head) <= cap


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


# ---------------------------------------------------------------------------
# free-word utilities
# ---------------------------------------------------------------------------


def cyclic_decompose(w: Word) -> Tuple[Word, Word]:
    """Split a reduced word as p * c * p^-1 with c cyclically reduced: w w
    cancels the 2|p| letters of p^-1 p and no more, as c c cancels none."""
    n = w.letter_length() - (w * w).letter_length() // 2
    head = []
    for g, e in w.letters:
        if n <= 0:
            break
        head.append((g, max(-n, min(e, n))))
        n -= abs(e)
    p = Word(tuple(head))
    return p, p.inverse() * w * p


def _cancelled(y: Word, c: Word) -> int:
    """The length L of the longest suffix of y that is also a suffix of
    ... c^-1 c^-1 (c nonempty, cyclically reduced): y c^m cancels
    min(L, m|c|) letters of y.

    Read backwards, ... c^-1 c^-1 is c read forwards with every letter
    inverted, over and over.  As merged letters that is c's first letter,
    then a period of c's other letters followed by its first, the last two
    merged when they share a generator (one endless letter when c has one
    generator).  Both words are merged, so once a letter of y matches only
    in part the next letters differ: the walk reads the letters that cancel
    and one more.
    """
    (g0, e0), *period = [(g, -e) for g, e in c.letters]
    if not period:  # c = g^e: one letter, repeated without end
        e0 *= inf
    if period and period[-1][0] == g0:
        period[-1] = (g0, period[-1][1] + e0)
    else:
        period.append((g0, e0))
    stream = itertools.chain([(g0, e0)], itertools.cycle(period))
    cut = 0
    for (g, e), (h, f) in zip(reversed(y.letters), stream):
        if g != h or (e > 0) != (f > 0):
            break
        cut += min(abs(e), abs(f))
        if e != f:
            break
    return cut


# ---------------------------------------------------------------------------
# designated subgroups
# ---------------------------------------------------------------------------


class DesignatedSubgroup:
    """A subgroup H of an oracle, queried through :meth:`split`.

    ``image_words`` are the canonical images of the abstract subgroup
    generators inside the ambient oracle.  Each kind implements only
    ``_split``; callers read membership (x lies in H exactly when
    ``split(x)[0]`` is empty) and the coset representative ``split(x)[0]``
    off ``split``.
    """

    def __init__(self, oracle: "GroupOracle", image_words: Sequence[Word]):
        self.oracle = oracle
        self.image_words = tuple(oracle.canonical(w) for w in image_words)

    def split(self, x: Word) -> Tuple[Word, CWord]:
        """Return (rep, cw) with x = rep * embed(cw).

        rep is the canonical representative of the left coset xH and is
        empty exactly when x lies in H; cw, over the subgroup generators, is
        how amalgam tails cross sides.  One normal-form step is one split.
        """
        return self._split(self.oracle._check(x))

    def _split(self, x: Word) -> Tuple[Word, CWord]:
        """``split`` for any word over the ambient generators, unchecked."""
        raise NotImplementedError

    def index(self) -> Optional[int]:
        """Subgroup index, or None when infinite."""
        raise NotImplementedError

    def cosets(self) -> Iterator[Word]:
        """The canonical coset reps, one per coset, in this kind's order."""
        raise NotImplementedError

    def transversal(self, cap: Optional[int] = None) -> Tuple[List[Word], bool]:
        """The first ``cap`` coset reps, and whether they are all of them.

        With no cap an infinite index lists ``NEIGHBOR_CAP`` reps.
        """
        if cap is None and self.index() is None:
            cap = NEIGHBOR_CAP
        return _capped(self.cosets(), cap)

    def conjugator_cosets(self, x: Word, cap: Optional[int] = None) -> Tuple[List[Word], bool]:
        """All transversal reps t with t^-1 x t in the subgroup.

        Returns (reps, complete).  Default implementation, for finite index:
        scans the whole transversal and keeps at most ``cap`` hits.
        """
        self.oracle._check(x)
        return _capped((t for t in self.transversal()[0]
                        if self._split(x.conjugated_by(t))[0].is_empty), cap)

    def embed(self, cw: CWord) -> Word:
        """Image in the ambient oracle of an abstract subgroup word."""
        if not cw:
            return Word()
        if len(cw) == 1:
            (idx, exp), = cw
            return self.oracle._reduce(self.image_words[idx] ** exp)
        return self.oracle._reduce(Word.of(
            letter for idx, exp in cw for letter in (self.image_words[idx] ** exp).letters))


class _ResidueSubgroup(DesignatedSubgroup):
    """Subgroup of Z/n (n >= 1) or Z (n = 0), generated by exponent residues."""

    def __init__(self, oracle: "GroupOracle", image_words: Sequence[Word], modulus: int):
        super().__init__(oracle, image_words)
        self.modulus = modulus  # 0 means the infinite cyclic ambient group
        self.residues = [oracle._exponent(w) for w in self.image_words]
        d = modulus
        for r in self.residues:
            d = gcd(d, r)
        self.d = d  # subgroup = <g^d>; d == 0 means the trivial subgroup of Z
        # Bezout coefficients: d = c0*modulus + sum(c_i * residues_i)
        coeffs = [0] * len(self.residues)
        g = modulus
        for i, r in enumerate(self.residues):
            g2, u, v = _xgcd(g, r)
            for j in range(i):
                coeffs[j] *= u
            coeffs[i] = v
            g = g2
        self._coeffs = coeffs

    def _split(self, x: Word) -> Tuple[Word, CWord]:
        if self.d == 0:  # the trivial subgroup: each element is its own coset
            return self.oracle._reduce(x), ()
        e = self.oracle._exponent(x)
        m = e // self.d
        cw = tuple((i, c * m) for i, c in enumerate(self._coeffs) if c * m != 0)
        return self.oracle._from_exponent(e % self.d), cw

    def index(self) -> Optional[int]:
        if self.d == 0:
            return None if self.modulus == 0 else self.modulus
        return self.d

    def cosets(self) -> Iterator[Word]:
        idx = self.index()
        # the trivial subgroup of Z: 0, 1, -1, 2, -2, ...
        es = range(idx) if idx is not None else (
            (j + 1) // 2 if j % 2 else -(j // 2) for j in itertools.count())
        return map(self.oracle._from_exponent, es)

    def conjugator_cosets(self, x: Word, cap: Optional[int] = None) -> Tuple[List[Word], bool]:
        # abelian ambient group: t^-1 x t = x for every t
        if self.split(x)[0].is_empty:
            return self.transversal(cap)
        return [], True


class _FreeCyclicSubgroup(DesignatedSubgroup):
    """Cyclic subgroup <w> of a free group of rank >= 2."""

    def __init__(self, oracle: "FreeOracle", image_words: Sequence[Word]):
        super().__init__(oracle, image_words)
        if len(self.image_words) > 1:
            raise OracleError(
                "designated subgroups of free factors must be cyclic "
                f"(got {len(self.image_words)} generators)")
        self.w = self.image_words[0] if self.image_words else Word()
        self.prefix, self.core = cyclic_decompose(self.w)
        self._memo: dict = {}

    def _split(self, x: Word) -> Tuple[Word, CWord]:
        """Return (x w^k, ((0, -k),)) with x w^k the shortlex-least element
        of x<w>; the tail is () when k = 0.

        Write w = p c p^-1 with c cyclically reduced and let y = x p, so
        x w^k = y c^k p^-1.  In the Cayley tree the points q_k = y c^k lie
        |c| apart on one line, and p^-1 leaves that line at once (w is
        reduced).  So |x w^k| = d(1, pi) + d(pi, q_k) + |p| whenever q_k is
        not the projection pi of 1 onto the line, and is smaller when it is.
        Reading y backwards, the path to 1 follows the line for L steps in
        direction s: L is the length of the longest suffix of y that is also
        a suffix of ... c^-s c^-s, for the one s in {+1, -1} where it is
        nonzero (both cannot be, as c is cyclically reduced).  The points
        nearest pi, hence every element of least length, are at
        k = s*floor(L/|c|) and s*ceil(L/|c|); for L = 0 only k = 0 remains.
        The memo holds the split per x.
        """
        hit = self._memo.get(x.letters)
        if hit is not None:
            return hit
        ks = {0}
        if not self.w.is_empty:  # s*L, with L = 0 along the other direction
            y, n = x * self.prefix, self.core.letter_length()
            sl = _cancelled(y, self.core) - _cancelled(y, self.core.inverse())
            ks = {sl // n, -(-sl // n)}
        k, rep = min(((k, x * self.w ** k) for k in ks),
                     key=lambda kr: self.oracle._shortlex_key(kr[1]))
        hit = self._memo[x.letters] = (rep, ((0, -k),) if k else ())
        return hit

    def index(self) -> Optional[int]:
        return None

    def cosets(self) -> Iterator[Word]:
        words = map(Word.of, shortlex(self.oracle.gen_names))
        return (w for w in words if self._split(w)[0] == w)

    def conjugator_cosets(self, x: Word, cap: Optional[int] = None) -> Tuple[List[Word], bool]:
        """Reps t with t^-1 x t in <w>, at most ``cap`` of them.

        With x = u r u^-1, r cyclically reduced, t^-1 x t is w^{+-k} exactly
        when t<w> = u q p^-1 <w> for a prefix q of r whose rotation q^-1 r q
        is c^{+-k}.  With c = rho^s for the root rho, the prefixes shorter
        than |c| give each such coset once, as q0 rho^{+-m} for m < s; the
        c^-k ones are listed as m = 0, s-1, ..., 1, i.e. q0 rho^m mod c.
        """
        x = self.oracle.canonical(x)
        if x.is_empty:
            return self.transversal(cap)
        u, r = cyclic_decompose(x)
        n, lc = r.letter_length(), self.core.letter_length()
        if self.w.is_empty or n % lc:
            return [], True
        up, down, q = [], [], Word()  # cosets whose rotation is c^k, is c^-k
        for _ in range(lc):  # rotate r by one single letter at a time
            for hits, c in ((up, self.core.inverse()), (down, self.core)):
                if _cancelled(r, c) == n:
                    hits.append(self._split(u * q * self.prefix.inverse())[0])
            g, e = r.letters[0]
            step = Word.gen(g, 1 if e > 0 else -1)
            q, r = q * step, step.inverse() * r * step
        return _capped(up + down[:1] + down[:0:-1], cap)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class GroupOracle:
    kind: str

    def __init__(self, gens: Sequence[str], group_id: str = "G"):
        for g in gens:
            if not valid_gen_name(g):
                raise OracleError(f"invalid generator name: {g!r}")
        if len(set(gens)) != len(gens):
            raise OracleError(f"duplicate generator names: {gens}")
        self.gen_names = tuple(gens)
        self.group_id = group_id

    def _check(self, w: Word) -> Word:
        for name in w.gen_names():
            if name not in self.gen_names:
                raise WordError(
                    f"generator {name!r} is foreign to {self.kind} group {self.group_id!r}")
        return w

    # interface -------------------------------------------------------------
    def canonical(self, w: Word) -> Word:
        return self._reduce(self._check(w))

    def _reduce(self, w: Word) -> Word:
        """``canonical`` for a word over this group's generators, unchecked."""
        raise NotImplementedError

    def order(self) -> Optional[int]:
        """Group order; None when infinite."""
        return None

    def element_order(self, w: Word) -> Optional[int]:
        """Order of w; None when infinite.  This default is for torsion-free
        kinds, where only the identity has finite order."""
        return 1 if self.canonical(w).is_empty else None

    def designated_subgroup(self, image_words: Sequence[Word]) -> DesignatedSubgroup:
        raise NotImplementedError


class CyclicOracle(GroupOracle):
    kind = "cyclic"

    def __init__(self, n: int, gen: str, group_id: str = "G"):
        if n < 1:
            raise OracleError(f"cyclic order must be >= 1, got {n}")
        super().__init__([gen], group_id)
        self.n = n

    def _exponent(self, w: Word) -> int:
        return sum(e for _, e in w.letters) % self.n

    def _from_exponent(self, e: int) -> Word:
        e %= self.n
        return Word.gen(self.gen_names[0], e) if e else Word()

    def _reduce(self, w: Word) -> Word:
        return self._from_exponent(self._exponent(w))

    def order(self) -> int:
        return self.n

    def element_order(self, w: Word) -> int:
        e = self._exponent(self._check(w))
        return self.n // gcd(self.n, e) if e else 1

    def designated_subgroup(self, image_words: Sequence[Word]) -> DesignatedSubgroup:
        return _ResidueSubgroup(self, image_words, self.n)


class FreeOracle(GroupOracle):
    kind = "free"

    def __init__(self, rank: int, gens: Sequence[str], group_id: str = "G"):
        if rank < 1 or len(gens) != rank:
            raise OracleError(f"free rank {rank} needs exactly {rank} generators")
        super().__init__(gens, group_id)
        self.rank = rank
        self._pos = {g: i for i, g in enumerate(gens)}

    def _reduce(self, w: Word) -> Word:
        return w  # Word construction already freely reduces

    def _exponent(self, w: Word) -> int:
        # rank-1 helper: total exponent
        return sum(e for _, e in w.letters)

    def _from_exponent(self, e: int) -> Word:
        return Word.gen(self.gen_names[0], e)

    def _shortlex_key(self, w: Word):
        """Shortlex order of the spelled-out words, one entry per letter.

        Symbols run g0, g0^-1, g1, g1^-1, ...  Equal-length words that first
        differ inside a run of symbol s are ordered by the shorter run's
        successor against s, hence the entry (s, 0, |e|) when the next
        letter's symbol is smaller than s and (s, 1, -|e|) otherwise.
        """
        syms = [2 * self._pos[g] + (e < 0) for g, e in w.letters]
        return (w.letter_length(),
                tuple((s, 0, abs(e)) if nxt < s else (s, 1, -abs(e))
                      for s, (_, e), nxt in zip(syms, w.letters, syms[1:] + [2 * self.rank])))

    def designated_subgroup(self, image_words: Sequence[Word]) -> DesignatedSubgroup:
        if self.rank == 1:
            return _ResidueSubgroup(self, image_words, 0)
        return _FreeCyclicSubgroup(self, image_words)


# ---------------------------------------------------------------------------
# factories (the spec's constructor surface)
# ---------------------------------------------------------------------------


def make_cyclic(n: int, gen: str, group_id: str = "G") -> CyclicOracle:
    return CyclicOracle(n, gen, group_id)


def make_free_abelian(rank: int, gens: Sequence[str], group_id: str = "G") -> FreeAbelianOracle:
    from .table_lattice import FreeAbelianOracle
    return FreeAbelianOracle(rank, gens, group_id)


def make_free(rank: int, gens: Sequence[str], group_id: str = "G") -> FreeOracle:
    return FreeOracle(rank, gens, group_id)


def make_table(elements: Sequence[str], table: Sequence[Sequence[int]],
               group_id: str = "G") -> TableOracle:
    from .table_lattice import TableOracle
    return TableOracle(elements, table, group_id)
