"""Free products A*B and amalgams A*_C B with alternating-syllable normal forms.

An element is written uniquely as s_1 s_2 ... s_m * c where the s_i are
canonical coset representatives strictly alternating between the two factors
(never in the edge subgroup) and c lies in the edge subgroup C (trivial for
free products).  The transversal choice is deterministic per factor kind, so
normal forms, tree vertices and certificates are reproducible bit for bit.
The tail c, a word over the edge generators, is always the A-side split of
its image, so one element has one form and forms compare as plain records.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .oracles import (CWord, DesignatedSubgroup, GroupOracle, OracleError,
                      make_cyclic, make_free, make_free_abelian, make_table)
from .words import Word, WordError, valid_gen_name

SIDE_A = "A"
SIDE_B = "B"


def other_side(side: str) -> str:
    return SIDE_B if side == SIDE_A else SIDE_A


class SpecError(ValueError):
    """Malformed or unsupported splitting specification."""


class HnnNotSupportedError(SpecError):
    """HNN extensions are an extension point, not part of the supported core."""


def _check_kind(kind: object) -> None:
    if kind == "hnn":
        raise HnnNotSupportedError(
            "HNN extensions are not supported (Britton normal forms are an "
            "extension point); use kind 'free_product' or 'amalgam'")
    if kind not in ("free_product", "amalgam"):
        raise SpecError(f"unknown splitting kind: {kind!r}")


class Syllable(NamedTuple):
    side: str
    word: Word

    def __str__(self) -> str:
        return f"[{self.word}]"


class NormalForm(NamedTuple):
    syllables: Tuple[Syllable, ...]
    tail: CWord  # over the abstract edge generators: the A-side split of its image

    @property
    def is_trivial(self) -> bool:
        return not self.syllables and not self.tail

    def key(self) -> Tuple:
        """Hashable canonical key (for dedup tables)."""
        return (tuple((s.side, s.word.letters) for s in self.syllables), self.tail)


class SplittingSpec:
    """A free or amalgamated product of two supported base groups."""

    def __init__(self, kind: str, factor_a: GroupOracle, factor_b: GroupOracle,
                 edge_gens: Sequence[str] = (), into_a: Sequence[Word] = (),
                 into_b: Sequence[Word] = (), declared_k: Optional[int] = None):
        _check_kind(kind)
        self.kind = kind
        self.factor_a = factor_a
        self.factor_b = factor_b
        self.declared_k = declared_k
        if declared_k is not None and not (type(declared_k) is int and declared_k >= 0):
            raise SpecError(f"declared_k must be a nonnegative integer, got {declared_k!r}")

        overlap = set(factor_a.gen_names) & set(factor_b.gen_names)
        if overlap:
            raise SpecError(f"factor generator names collide: {sorted(overlap)}")

        if kind == "free_product":
            if edge_gens or into_a or into_b:
                raise SpecError("free products take no edge data")
            self.edge_gens: Tuple[str, ...] = ()
            self.sub_a = factor_a.designated_subgroup(())
            self.sub_b = factor_b.designated_subgroup(())
        else:
            if not edge_gens:
                raise SpecError("amalgams need at least one edge generator")
            if len(into_a) != len(edge_gens) or len(into_b) != len(edge_gens):
                raise SpecError("edge generator images must match the generator list")
            used = set(factor_a.gen_names) | set(factor_b.gen_names)
            for g in edge_gens:
                if not valid_gen_name(g):
                    raise SpecError(f"invalid edge generator name: {g!r}")
                if g in used:
                    raise SpecError(f"edge generator name {g!r} collides with a factor")
            self.edge_gens = tuple(edge_gens)
            self.sub_a = factor_a.designated_subgroup(into_a)
            self.sub_b = factor_b.designated_subgroup(into_b)
            self._check_edge_identification()

        self._side_of: Dict[str, str] = {}
        for g in factor_a.gen_names:
            self._side_of[g] = SIDE_A
        for g in factor_b.gen_names:
            self._side_of[g] = SIDE_B
        self._edge_index = {g: i for i, g in enumerate(self.edge_gens)}

    # -- construction helpers ------------------------------------------------

    def _check_edge_identification(self) -> None:
        """The edge maps identify isomorphic subgroups exactly when the maps
        phi_A, phi_B from the free group on the edge generators have one
        kernel: for one generator, when its images have one order."""
        a, b = self.sub_a, self.sub_b
        if len(self.edge_gens) == 1:
            same = (self.factor_a.element_order(a.image_words[0])
                    == self.factor_b.element_order(b.image_words[0]))
        elif tables := [s.oracle.order() for s in (a, b) if s.oracle.kind == "table"]:
            same = _pairs_match(a, b, tables[0])
        else:
            same = _kernel_dies(a, b) and _kernel_dies(b, a)
        if not same:
            raise SpecError("edge embeddings do not identify isomorphic subgroups "
                            "(some edge word is trivial on one side only)")

    # -- basic queries ---------------------------------------------------------

    def factor(self, side: str) -> GroupOracle:
        return self.factor_a if side == SIDE_A else self.factor_b

    def subgroup(self, side: str) -> DesignatedSubgroup:
        return self.sub_a if side == SIDE_A else self.sub_b

    @property
    def gen_names(self) -> Tuple[str, ...]:
        return self.factor_a.gen_names + self.factor_b.gen_names

    def edge_index(self, side: str) -> Optional[int]:
        """Index of the edge subgroup in the given factor (None = infinite)."""
        return self.subgroup(side).index()

    def parse_word(self, text: str) -> Word:
        """Parse a word, substituting edge-generator letters by their A-images."""
        return self.resolve_word(Word.parse(text))

    def resolve_word(self, w: Word) -> Word:
        letters: List = []
        for name, exp in w.letters:
            if name in self._edge_index:
                letters += (self.sub_a.image_words[self._edge_index[name]] ** exp).letters
            elif name in self._side_of:
                letters.append((name, exp))
            else:
                raise WordError(f"generator {name!r} is foreign to this splitting")
        return Word.of(letters)

    # -- normal form -----------------------------------------------------------

    def normal_form(self, w: Word) -> NormalForm:
        """Pushes w's maximal same-side runs, edge letters resolved."""
        syllables: List[Syllable] = []
        tail: CWord = ()
        for side, run in itertools.groupby(self.resolve_word(w).letters,
                                           lambda letter: self._side_of[letter[0]]):
            tail = self._push(syllables, tail, side, Word(tuple(run)))
        return self._form(syllables, tail)

    def extend(self, nf: NormalForm, w: NormalForm) -> NormalForm:
        """nf(u v) from nf = nf(u) and w = nf(v): each ``_push`` keeps the
        stack times the tail equal to the product so far, so w's syllables,
        then w's tail, go onto a copy of nf's stack.  A product of normal
        forms changes only at the junction (Lyndon-Schupp IV.2): once the
        tail is () and the stack does not end on the next syllable's side,
        that syllable and every later one are canonical coset reps that
        would each push to themselves with tail (), so the rest of w is
        appended as it stands, with no push.  A tail of () after the last
        push leaves w's tail as it is; otherwise the joined tail is split
        again in A, so every tail is the A-side split of its image."""
        if not nf.tail and not (nf.syllables and w.syllables
                                and nf.syllables[-1].side == w.syllables[0].side):
            return NormalForm(nf.syllables + w.syllables, w.tail)  # no junction to push
        syllables, tail = list(nf.syllables), nf.tail
        for i, (side, piece) in enumerate(w.syllables):
            if not tail and not (syllables and syllables[-1].side == side):
                return NormalForm((*syllables, *w.syllables[i:]), w.tail)
            tail = self._push(syllables, tail, side, piece)
        return self._form(syllables, tail + w.tail) if tail else NormalForm(tuple(syllables), w.tail)

    def _form(self, syllables: List[Syllable], tail: CWord) -> NormalForm:
        """The form with ``tail``, which either side may have split, split in A."""
        return NormalForm(tuple(syllables), self.sub_a._split(self.sub_a.embed(tail))[1])

    def _push(self, syllables: List[Syllable], tail: CWord, side: str,
              piece: Word) -> CWord:
        sub = self.subgroup(side)
        y = sub.embed(tail) * piece if tail else piece
        if syllables and syllables[-1].side == side:
            y = syllables.pop().word * y
        rep, tail = sub._split(y)
        if not rep.is_empty:
            syllables.append(Syllable(side, rep))
        return tail

    def is_trivial(self, w: Word) -> bool:
        return self.normal_form(w).is_trivial


def _pairs_match(a: DesignatedSubgroup, b: DesignatedSubgroup, bound: int) -> bool:
    """Whether the pairs (phi_A(w), phi_B(w)), reached by right products (a
    finite monoid in a group is a group), number at most ``bound`` and match
    each element of either side with one of the other."""
    seen = frontier = {(Word(), Word())}
    while frontier and len(seen) <= bound:
        frontier = {(a.oracle._reduce(x * ga), b.oracle._reduce(y * gb)) for x, y in frontier
                    for ga, gb in zip(a.image_words, b.image_words)} - seen
        seen = seen | frontier
    return len(seen) == len({x for x, _ in seen}) == len({y for _, y in seen}) <= bound


def _images(sub: DesignatedSubgroup) -> Tuple[List[List[int]], int]:
    """Images as exponent vectors, and their modulus (a cyclic order, else 0)."""
    if sub.oracle.kind == "free_abelian":
        return [list(sub.oracle._vector(w)) for w in sub.image_words], 0
    return [[r] for r in sub.residues], sub.modulus


def _kernel_dies(x: DesignatedSubgroup, y: DesignatedSubgroup) -> bool:
    """Whether phi_y kills the kernel of phi_x (abelian factors): row reduction
    zeroes rows of phi_x's images and modulus, whose coefficients span it."""
    from .table_lattice import _echelon
    (xs, mx), (ys, my) = _images(x), _images(y)
    n = len(xs[0])  # mx is 0 unless n is 1
    rows = xs + [[mx] * n]
    images = ([sum(c * v[i] for c, v in zip(row[n:], ys)) for i in range(len(ys[0]))]
              for row in rows[len(_echelon(rows, n)):])
    return not any(e % my if my else e for image in images for e in image)


# ---------------------------------------------------------------------------
# elementarity
# ---------------------------------------------------------------------------


class ElementarityVerdict(NamedTuple):
    verdict: str  # elliptic_action | linear_action | non_elementary
    reason: str


def classify_elementarity(spec: SplittingSpec) -> ElementarityVerdict:
    """Structural elementarity of the action on the coset tree.

    Decided from the factor-to-edge indices: any index 1 collapses the tree
    to a bounded star (elliptic); indices (2, 2) make the tree a line.
    """
    ia = spec.edge_index(SIDE_A)
    ib = spec.edge_index(SIDE_B)
    fmt = lambda i: "inf" if i is None else str(i)
    if ia == 1 or ib == 1:
        return ElementarityVerdict(
            "elliptic_action",
            f"a factor equals the edge subgroup (indices {fmt(ia)}, {fmt(ib)}): "
            "the tree is a bounded star with a fixed vertex")
    if ia == 2 and ib == 2:
        return ElementarityVerdict(
            "linear_action",
            "both factor-to-edge indices equal 2: the tree is a line")
    return ElementarityVerdict(
        "non_elementary",
        f"factor-to-edge indices ({fmt(ia)}, {fmt(ib)}): some index >= 3 "
        "and both >= 2, so no invariant point or line exists")


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def _array(doc: dict, key: str) -> list:
    if not isinstance(doc[key], list):  # a string would be read letter by letter
        raise SpecError(f"{key!r} must be a JSON array, got {doc[key]!r}")
    return doc[key]


def _oracle_from_decl(decl: dict, group_id: str) -> GroupOracle:
    if not isinstance(decl, dict) or "type" not in decl:
        raise SpecError(f"bad oracle declaration: {decl!r}")
    t = decl["type"]
    try:
        if t == "cyclic":
            (gen,) = _array(decl, "gens")
            return make_cyclic(int(decl["order"]), gen, group_id)
        if t in ("free", "free_abelian"):
            gens = _array(decl, "gens")
            make = make_free if t == "free" else make_free_abelian
            return make(int(decl.get("rank", len(gens))), gens, group_id)
        if t == "table":
            return make_table(_array(decl, "elements"), decl["table"], group_id)
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, (SpecError, OracleError)):
            raise
        raise SpecError(f"bad {t!r} oracle declaration: {exc}") from exc
    raise SpecError(f"unsupported oracle type: {t!r}")


def spec_from_dict(doc: dict) -> SplittingSpec:
    if not isinstance(doc, dict):
        raise SpecError("splitting spec must be a JSON object")
    kind = doc.get("kind")
    _check_kind(kind)
    factors = doc.get("factors")
    if not isinstance(factors, list) or len(factors) != 2:
        raise SpecError("splitting spec needs exactly two factors")
    a = _oracle_from_decl(factors[0], "A")
    b = _oracle_from_decl(factors[1], "B")
    edge = doc.get("edge")
    edge_gens, into_a, into_b = [], [], []
    if edge is not None:
        try:
            edge_gens = _array(edge, "generators")
            into_a, into_b = ([Word.parse(s) for s in _array(edge, key)]
                              for key in ("into_A", "into_B"))
        except (KeyError, TypeError) as exc:
            raise SpecError(f"bad edge declaration: {exc}") from exc
    declared_k = doc.get("declared_k")
    return SplittingSpec(kind, a, b, edge_gens, into_a, into_b, declared_k)


def load_spec(path: str) -> SplittingSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    return spec_from_dict(doc)
