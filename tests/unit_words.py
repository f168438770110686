"""Unit-letter references for the free-factor code in ``treegroups.oracles``.

Each word is spelled out one generator at a time, as ``(name, +1 | -1)``
units, and compared unit by unit: slow, but independent of the letter-level
arithmetic that the library uses.
"""

from typing import List, Sequence, Tuple

from treegroups.words import Word

Unit = Tuple[str, int]  # exponent is +1 or -1


def word_units(w: Word) -> Tuple[Unit, ...]:
    out: List[Unit] = []
    for name, exp in w.letters:
        step = 1 if exp > 0 else -1
        out.extend((name, step) for _ in range(abs(exp)))
    return tuple(out)


def invert_units(units: Sequence[Unit]) -> Tuple[Unit, ...]:
    return tuple((n, -e) for n, e in reversed(units))


def cyclic_decompose(units: Sequence[Unit]) -> Tuple[Tuple[Unit, ...], Tuple[Unit, ...]]:
    """Split a reduced unit word as prefix * core * prefix^-1 with core cyclically reduced."""
    units = tuple(units)
    lo, hi = 0, len(units)
    while hi - lo >= 2 and units[lo][0] == units[hi - 1][0] and units[lo][1] == -units[hi - 1][1]:
        lo += 1
        hi -= 1
    return units[:lo], units[lo:hi]


def primitive_root(core: Sequence[Unit]) -> Tuple[Unit, ...]:
    """Smallest unit word r with core = r^k (core must be cyclically reduced)."""
    core = tuple(core)
    n = len(core)
    for p in range(1, n + 1):
        if n % p == 0 and core[:p] * (n // p) == core:
            return core[:p]
    return core


def shortlex_key(gens: Sequence[str], w: Word):
    """Shortlex key over g0, g0^-1, g1, g1^-1, ... spelled out unit by unit."""
    units = word_units(w)
    return (len(units), tuple((gens.index(n), 0 if e > 0 else 1) for n, e in units))


def cancelled(y: Word, core: Sequence[Unit]) -> int:
    """Length of the longest suffix of y that is also a suffix of
    ... c^-1 c^-1 for the unit word c = core, matched unit by unit."""
    back = word_units(y)[::-1]
    n = len(core)
    L = 0
    while L < len(back) and back[L] == (core[L % n][0], -core[L % n][1]):
        L += 1
    return L


def split(sub, x: Word):
    """(x w^k, ((0, -k),) or ()) for the shortlex-least x w^k: the suffix of
    y = x p that runs backwards along c^s, matched unit by unit."""
    x = sub.oracle.canonical(x)
    prefix, core = cyclic_decompose(word_units(sub.w))
    ks = {0}
    if core:
        n = len(core)
        for s, c in ((1, core), (-1, invert_units(core))):
            L = cancelled(x * Word.of(prefix), c)
            if L:
                ks = {s * (L // n), s * -(-L // n)}
                break
    k, rep = min(((k, x * sub.w ** k) for k in ks),
                 key=lambda kr: shortlex_key(sub.oracle.gen_names, kr[1]))
    return rep, ((0, -k),) if k else ()


def conjugator_cosets(sub, x: Word) -> List[Word]:
    """Canonical reps t of the cosets t<w> with t^-1 x t in <w>: the first
    rotation of x's cyclic core equal to c^k or c^-k gives t0, and the root
    rho of c = rho^s gives t0 rho^m for m = 0 .. s-1."""
    x = sub.oracle.canonical(x)
    prefix, core = cyclic_decompose(word_units(sub.w))
    ux, cx = cyclic_decompose(word_units(x))
    if not core or not cx or len(cx) % len(core):
        return []
    k = len(cx) // len(core)
    rho = primitive_root(core)
    reps: List[Word] = []
    for target in (core * k, invert_units(core) * k):
        hit = next((i for i in range(len(cx)) if cx[i:] + cx[:i] == target), None)
        if hit is None:
            continue
        base = Word.of(ux + cx[:hit] + invert_units(prefix))
        rho_w = Word.of(prefix + rho + invert_units(prefix))
        for m in range(len(core) // len(rho)):
            t = split(sub, base * rho_w ** m)[0]
            if t not in reps:
                reps.append(t)
    return reps
