"""Declarative 3-manifold decompositions and the geometric-vs-acylindrical
dichotomy decision procedure.

The tool trusts the declared decomposition (it does not check that a JSJ
graph is realizable); the verdict is the case analysis on the declaration:
spherical boundary disqualifies, a nontrivial prime decomposition is either
RP^3 # RP^3 (geometric) or a 0-acylindrical free-product splitting, and a
single irreducible piece is geometric exactly in the trivial-JSJ and
Sol/Seifert torus-bundle cases, with every remaining JSJ splitting
4-acylindrical and non-elementary.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    from .bounds import BoundsReport

BOUNDARY_KINDS = ("empty", "toral", "spherical_present", "other")
PIECE_KINDS = ("irreducible_with_jsj", "s2xs1", "rp3", "torus_bundle",
               "twisted_double", "geometric_atom")
JSJ_VERTEX_TYPES = ("seifert", "hyperbolic")


class ManifoldError(ValueError):
    """Malformed manifold description."""


class DichotomyError(ValueError):
    """The requested computation does not apply to this verdict."""


# ---------------------------------------------------------------------------
# SL2(Z)
# ---------------------------------------------------------------------------


class _SL2Fields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class SL2Matrix(_SL2Fields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ManifoldError(f"matrix {self.rows()} has determinant {det}, not 1")
        return self

    def rows(self) -> List[List[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @staticmethod
    def from_rows(rows) -> "SL2Matrix":
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError) as exc:
            raise ManifoldError(f"bad 2x2 matrix: {rows!r}") from exc
        return SL2Matrix(int(a), int(b), int(c), int(d))


SL2_IDENTITY = SL2Matrix(1, 0, 0, 1)


def sl2_trace(m: SL2Matrix) -> int:
    return m.a + m.d


def sl2_mul(m: SL2Matrix, n: SL2Matrix) -> SL2Matrix:
    return SL2Matrix(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                     m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def sl2_inverse(m: SL2Matrix) -> SL2Matrix:
    return SL2Matrix(m.d, -m.b, -m.c, m.a)


def is_anosov(m: SL2Matrix) -> bool:
    """|trace| > 2: two real eigenvalues off the unit circle."""
    return abs(sl2_trace(m)) > 2


def twisted_double_conjugate(m: SL2Matrix) -> SL2Matrix:
    """J m J m^-1 for the reflection J(x, y) = (-x, y); J m J flips the
    off-diagonal signs and has determinant 1."""
    return sl2_mul(SL2Matrix(m.a, -m.b, -m.c, m.d), sl2_inverse(m))


def twisted_double_check(m: SL2Matrix) -> bool:
    """Sol criterion for the twisted double: J m J m^-1 is Anosov."""
    return is_anosov(twisted_double_conjugate(m))


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------


class _JsjFields(NamedTuple):
    vertex_types: Tuple[str, ...]
    edges: Tuple[Tuple[int, int], ...]


class JsjGraph(_JsjFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.vertex_types:
            raise ManifoldError("JSJ graph needs at least one vertex")
        for t in self.vertex_types:
            if t not in JSJ_VERTEX_TYPES:
                raise ManifoldError(f"unknown JSJ vertex type {t!r}")
        for e in self.edges:
            if len(e) != 2 or any(not (0 <= v < len(self.vertex_types)) for v in e):
                raise ManifoldError(f"bad JSJ edge {e!r}")
        return self


class _PieceFields(NamedTuple):
    kind: str
    monodromy: Optional[SL2Matrix] = None
    gluing: Optional[SL2Matrix] = None
    jsj: Optional[JsjGraph] = None


class PieceDescription(_PieceFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in PIECE_KINDS:
            raise ManifoldError(f"unknown piece kind {self.kind!r}")
        if self.kind == "torus_bundle" and self.monodromy is None:
            raise ManifoldError("torus_bundle pieces need a monodromy matrix")
        if self.kind == "twisted_double" and self.gluing is None:
            raise ManifoldError("twisted_double pieces need a gluing matrix")
        if self.kind == "irreducible_with_jsj":
            if self.jsj is None or not self.jsj.edges:
                raise ManifoldError(
                    "irreducible_with_jsj pieces need a nonempty JSJ graph "
                    "(declare trivial-JSJ pieces as geometric_atom)")
        return self


class _ManifoldFields(NamedTuple):
    prime_pieces: Tuple[PieceDescription, ...]
    torsionless: bool = True
    boundary: str = "empty"


class ManifoldDescription(_ManifoldFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.prime_pieces:
            raise ManifoldError("a manifold description needs at least one prime piece")
        if self.boundary not in BOUNDARY_KINDS:
            raise ManifoldError(f"unknown boundary kind {self.boundary!r}")
        return self


class DichotomyVerdict(NamedTuple):
    verdict: str  # geometric | acylindrical | not_applicable
    reason: str
    k: Optional[int] = None
    non_elementary_reason: Optional[str] = None
    conflict_notes: Tuple[str, ...] = ()

    @property
    def is_acylindrical(self) -> bool:
        return self.verdict == "acylindrical"


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------

_NON_ELEM_FREE_PRODUCT = ("a nontrivial free product other than Z/2 * Z/2 "
                          "preserves no point or line of its tree")
_NON_ELEM_JSJ = "contains a rank 2 free abelian subgroup (a peripheral torus group)"


_GEOMETRIC_PRIMES = {
    "geometric_atom": "irreducible with trivial JSJ decomposition",
    "s2xs1": "S^2 x S^1 carries the S^2 x R geometry",
    "rp3": "spherical space form (S^3 geometry)",
}


def classify_manifold(desc: ManifoldDescription) -> DichotomyVerdict:
    if desc.boundary == "spherical_present":
        return DichotomyVerdict(
            "not_applicable",
            "spherical boundary components present: excising balls preserves "
            "the fundamental group, so the dichotomy does not apply")
    notes = tuple(
        f"declared JSJ graph on a {p.kind} piece is ignored: Sol-type "
        "pieces are treated as geometric despite their nontrivial JSJ"
        for p in desc.prime_pieces
        if p.kind in ("torus_bundle", "twisted_double") and p.jsj is not None)
    return DichotomyVerdict(*_case(desc.prime_pieces), conflict_notes=notes)


def _case(pieces: Tuple[PieceDescription, ...]) -> tuple:
    """The case analysis: (verdict, reason) for a geometric verdict, and
    (verdict, reason, k, non_elementary_reason) for an acylindrical one."""
    if len(pieces) >= 2:
        if len(pieces) == 2 and all(p.kind == "rp3" for p in pieces):
            return ("geometric", "RP^3 # RP^3: the unique orientable non-prime Seifert "
                                 "fibered space (S^2 x R geometry)")
        return ("acylindrical", "nontrivial prime decomposition: the fundamental group "
                                "splits as a free product with trivial edge stabilizers",
                0, _NON_ELEM_FREE_PRODUCT)
    piece = pieces[0]
    if piece.kind in _GEOMETRIC_PRIMES:
        return "geometric", _GEOMETRIC_PRIMES[piece.kind]
    if piece.kind == "torus_bundle":
        if is_anosov(piece.monodromy):
            return "geometric", "torus bundle with Anosov monodromy: Sol geometry"
        return ("geometric", "torus bundle with non-Anosov monodromy: Seifert fibered "
                             "(Nil or Euclidean geometry, trivial JSJ)")
    if piece.kind == "twisted_double":
        if twisted_double_check(piece.gluing):
            return "geometric", "twisted double with Anosov J A J A^-1: Sol geometry"
        return ("acylindrical", "twisted double outside the Sol case: graph manifold "
                                "with a nontrivial JSJ splitting", 4, _NON_ELEM_JSJ)
    # irreducible_with_jsj
    return ("acylindrical", "irreducible with nontrivial JSJ decomposition: the JSJ "
                            "splitting is 4-acylindrical", 4, _NON_ELEM_JSJ)


def systole_bound_for(desc: ManifoldDescription, E: float, D: float,
                      C_n: float = 1.0) -> BoundsReport:
    """Bounds report for a non-geometric description, with k taken from the
    verdict (0 for prime splittings, 4 for JSJ).

    The volume bound is emitted only for closed manifolds and suppressed for
    pure #(S^2 x S^1) descriptions, whose volume can collapse.
    """
    from .bounds import build_bounds_report  # a plain verdict needs no bounds
    verdict = classify_manifold(desc)
    if not verdict.is_acylindrical:
        raise DichotomyError(
            f"systole bound needs an acylindrical verdict, got {verdict.verdict} "
            f"({verdict.reason})")
    if not desc.torsionless:
        raise DichotomyError("systole bound needs a torsionless fundamental group")
    if desc.boundary not in ("empty", "toral"):
        raise DichotomyError(
            f"systole bound needs empty or toral boundary, got {desc.boundary!r}")
    closed = desc.boundary == "empty"
    pure_s2xs1 = all(p.kind == "s2xs1" for p in desc.prime_pieces)
    include_volume = closed and not pure_s2xs1
    note = None
    if not include_volume:
        note = ("volume bound suppressed: " +
                ("connected sum of S^2 x S^1 copies collapses volume"
                 if pure_s2xs1 else "manifold is not closed"))
    return build_bounds_report(E, D, verdict.k, n=3, C_n=C_n,
                               include_volume=include_volume, volume_note=note)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def _piece_from_dict(doc: dict) -> PieceDescription:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ManifoldError(f"bad piece declaration: {doc!r}")
    kind = doc["kind"]
    monodromy = gluing = jsj = None
    if "monodromy" in doc:
        monodromy = SL2Matrix.from_rows(doc["monodromy"])
    if "gluing" in doc:
        gluing = SL2Matrix.from_rows(doc["gluing"])
    if "jsj" in doc:
        j = doc["jsj"]
        try:
            vertex_types = tuple(v["type"] for v in j["vertices"])
            edges = tuple((int(e[0]), int(e[1])) for e in j.get("edges", []))
        except (KeyError, TypeError, IndexError) as exc:
            raise ManifoldError(f"bad JSJ graph: {exc}") from exc
        jsj = JsjGraph(vertex_types, edges)
    return PieceDescription(kind, monodromy, gluing, jsj)


def manifold_from_dict(doc: dict) -> ManifoldDescription:
    if not isinstance(doc, dict):
        raise ManifoldError("manifold description must be a JSON object")
    if doc.get("orientable", True) is not True:
        raise ManifoldError("only orientable manifolds are supported: the case "
                            "analysis is the orientable one")
    pieces = doc.get("prime_pieces")
    if not isinstance(pieces, list):
        raise ManifoldError("manifold description needs a prime_pieces list")
    return ManifoldDescription(
        prime_pieces=tuple(_piece_from_dict(p) for p in pieces),
        torsionless=bool(doc.get("torsionless", True)),
        boundary=doc.get("boundary", "empty"),
    )


def load_manifold(path: str) -> ManifoldDescription:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifoldError(f"{path}: not valid JSON ({exc})") from exc
    return manifold_from_dict(doc)
