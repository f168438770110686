"""Finite multiplication-table and free abelian (Z^n) oracles.

These kinds live apart from :mod:`treegroups.oracles` so that a call whose
spec has only cyclic and free factors never compiles or imports them;
``make_table`` and ``make_free_abelian`` import this module on first use.
A table oracle's canonical form is an element index; its subgroups are
closed sets of indices.  A free abelian oracle's canonical form is an
exponent vector; its subgroups are lattices in row echelon form.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from .oracles import (CWord, DesignatedSubgroup, GroupOracle, OracleError,
                      _ResidueSubgroup)
from .words import Word


def _echelon(rows: List[List[int]], n: int) -> List[Tuple[int, int]]:
    """Bring integer ``rows`` to row echelon (Hermite-style) form on their
    first n columns, in place, and return the (row, col) pivots.  Each row
    gets a unit vector appended first, so the trailing columns track the
    unimodular transform: the rows past the pivots vanish on the first n
    columns, and their trailing parts generate the kernel of the input rows."""
    k = len(rows)
    for i, row in enumerate(rows):
        row += [int(i == j) for j in range(k)]
    pivots: List[Tuple[int, int]] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, k) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, k):
            while rows[i][col] != 0:
                q = rows[r][col] // rows[i][col]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][col] < 0:
            rows[r] = [-a for a in rows[r]]
        pivots.append((r, col))
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# designated subgroups
# ---------------------------------------------------------------------------


class _TableSubgroup(DesignatedSubgroup):
    def __init__(self, oracle: "TableOracle", image_words: Sequence[Word]):
        super().__init__(oracle, image_words)
        gens = [oracle._index_of(w) for w in self.image_words]
        table = oracle.table
        inv = oracle._inv
        decomp: dict[int, CWord] = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for gi, g in enumerate(gens):
                    for step, tgt in ((1, table[a][g]), (-1, table[a][inv[g]])):
                        if tgt not in decomp:
                            decomp[tgt] = decomp[a] + ((gi, step),)
                            nxt.append(tgt)
            frontier = nxt
        # the least edge word of each element of H, in shortlex order
        self.words = tuple(decomp.values())
        # element x splits as (x h) h^-1 for the h in H that minimises x h
        self._splits = []
        for x in range(oracle.order()):
            h = min(decomp, key=table[x].__getitem__)
            self._splits.append((oracle._from_index(table[x][h]), decomp[inv[h]]))
        self._reps = tuple(dict.fromkeys(r for r, _ in self._splits))

    def _split(self, x: Word) -> Tuple[Word, CWord]:
        return self._splits[self.oracle._index_of(x)]

    def index(self) -> Optional[int]:
        return self.oracle.order() // len(self.words)

    def cosets(self) -> Iterator[Word]:
        return iter(self._reps)


class _LatticeSubgroup(DesignatedSubgroup):
    """Sublattice of Z^n given by generator vectors, via integer row reduction."""

    def __init__(self, oracle: "FreeAbelianOracle", image_words: Sequence[Word]):
        super().__init__(oracle, image_words)
        self.n, self.k = oracle.rank, len(self.image_words)
        self.rows = [list(oracle._vector(w)) for w in self.image_words]
        self.pivots = _echelon(self.rows, self.n)

    def _split_vector(self, vec: Sequence[int]) -> Tuple[List[int], List[int]]:
        """(remainder, coeffs) with vec = remainder + sum coeffs[j] * generator j;
        the remainder is the canonical point of vec + lattice."""
        v = list(vec)
        coeffs = [0] * self.k
        for r, c in self.pivots:
            q = v[c] // self.rows[r][c]
            if q:
                v = [a - q * b for a, b in zip(v, self.rows[r][:self.n])]
                coeffs = [a + q * b for a, b in zip(coeffs, self.rows[r][self.n:])]
        return v, coeffs

    def _split(self, x: Word) -> Tuple[Word, CWord]:
        v, coeffs = self._split_vector(self.oracle._vector(x))
        return self.oracle._from_vector(v), tuple((j, c) for j, c in enumerate(coeffs) if c)

    def index(self) -> Optional[int]:
        if len(self.pivots) < self.n:
            return None
        out = 1
        for r, c in self.pivots:
            out *= self.rows[r][c]
        return out

    def cosets(self) -> Iterator[Word]:
        """The diagonal box for a finite index, else shells of growing
        sup-norm in Z^n, each canonical point listed once."""
        if self.index() is not None:
            diag = {c: self.rows[r][c] for r, c in self.pivots}
            for combo in itertools.product(*(range(diag[c]) for c in range(self.n))):
                yield self.oracle._from_vector(self._split_vector(combo)[0])
            return
        seen = set()
        for shell in itertools.count(0):
            for combo in itertools.product(range(-shell, shell + 1), repeat=self.n):
                if max((abs(a) for a in combo), default=0) != shell:
                    continue
                key = tuple(self._split_vector(combo)[0])
                if key not in seen:
                    seen.add(key)
                    yield self.oracle._from_vector(key)

    conjugator_cosets = _ResidueSubgroup.conjugator_cosets  # Z^n is abelian too


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class TableOracle(GroupOracle):
    """Finite group by multiplication table; element 0 is the identity.

    Validated eagerly: closure, identity, inverses and associativity.  By
    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, section 1.2) the elements g with (x g) y = x (g y) for all x, y are
    closed under products, so the table is associative once each element
    of a generating set passes.  Each generator is the least element that
    the earlier ones do not reach; in a group each one at least doubles the
    subgroup they generate, so a table that needs more than log2(order) of
    them is not a group.  The check costs O(order^2 log(order)).
    """

    kind = "table"

    def __init__(self, elements: Sequence[str], table: Sequence[Sequence[int]],
                 group_id: str = "G"):
        m = len(elements)
        if m < 1 or len(set(elements)) != m:
            raise OracleError("table elements must be nonempty and distinct")
        if len(table) != m or any(len(row) != m for row in table):
            raise OracleError("multiplication table must be square of the group order")
        valid = set(range(m))
        for row in table:  # 1.0 and True are equal to 1, so the types are checked too
            if not (all(type(v) is int for v in row) and valid.issuperset(row)):
                v = next(v for v in row if type(v) is not int or v not in valid)
                raise OracleError(f"table entry {v!r} is not an element index 0..{m - 1} "
                                  "(closure fails)")
        table = [list(row) for row in table]
        if table[0] != list(range(m)) or any(row[0] != i for i, row in enumerate(table)):
            raise OracleError("element 0 is not an identity")
        inv = []
        for i, row in enumerate(table):
            j = row.index(0) if 0 in row else None
            if j is None or table[j][i] != 0:
                raise OracleError(f"element {elements[i]!r} has no inverse")
            inv.append(j)
        gens: List[int] = []
        reached = {0}
        while len(reached) < m:
            g = min(valid - reached)
            gens.append(g)
            # (x g) y == x (g y) for every row x at once, y running over the columns
            if 2 ** len(gens) > m or any(table[row[g]] != [row[z] for z in table[g]]
                                         for row in table):
                raise OracleError("multiplication table is not associative")
            stack = list(reached)
            while stack:
                a = stack.pop()
                for h in gens:
                    b = table[a][h]
                    if b not in reached:
                        reached.add(b)
                        stack.append(b)
        super().__init__(list(elements), group_id)
        self.table = table
        self._inv = inv
        self._idx = {name: i for i, name in enumerate(elements)}

    def _index_of(self, w: Word) -> int:
        acc = 0
        for name, exp in w.letters:
            i = self._idx[name]
            if exp < 0:
                i = self._inv[i]
                exp = -exp
            o = self._elt_order(i)
            for _ in range(exp % o):
                acc = self.table[acc][i]
        return acc

    def _elt_order(self, i: int) -> int:
        acc, o = i, 1
        while acc != 0:
            acc = self.table[acc][i]
            o += 1
        return o

    def _from_index(self, i: int) -> Word:
        return Word.gen(self.gen_names[i]) if i else Word()

    def _reduce(self, w: Word) -> Word:
        return self._from_index(self._index_of(w))

    def order(self) -> int:
        return len(self.gen_names)

    def element_order(self, w: Word) -> int:
        i = self._index_of(self._check(w))
        return 1 if i == 0 else self._elt_order(i)

    def designated_subgroup(self, image_words: Sequence[Word]) -> DesignatedSubgroup:
        return _TableSubgroup(self, image_words)


class FreeAbelianOracle(GroupOracle):
    kind = "free_abelian"

    def __init__(self, rank: int, gens: Sequence[str], group_id: str = "G"):
        if rank < 1 or len(gens) != rank:
            raise OracleError(f"free abelian rank {rank} needs exactly {rank} generators")
        super().__init__(gens, group_id)
        self.rank = rank
        self._pos = {g: i for i, g in enumerate(gens)}

    def _vector(self, w: Word) -> Tuple[int, ...]:
        v = [0] * self.rank
        for name, exp in w.letters:
            v[self._pos[name]] += exp
        return tuple(v)

    def _from_vector(self, v: Sequence[int]) -> Word:
        return Word.of([(g, e) for g, e in zip(self.gen_names, v) if e])

    def _reduce(self, w: Word) -> Word:
        return self._from_vector(self._vector(w))

    def designated_subgroup(self, image_words: Sequence[Word]) -> DesignatedSubgroup:
        return _LatticeSubgroup(self, image_words)
