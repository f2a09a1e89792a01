"""Koszul complex of the free nilpotent Lie algebra L/L_{>k}.

Chains are wedge powers of the truncated free Lie algebra over the
Lyndon basis, with monomials kept sorted (basis order: length, then
word) and signs normalized.  The boundary takes each pair of wedge
factors to their bracket.  Everything is computed blockwise: monomials
are enumerated once per (arity, degree) and bucketed by their letter
count vector (weight), which brackets preserve, and each weight block
is small even when the degree block is not.  The boundary coefficients
are integer (`int` structure constants), computed per monomial as they
are read.  Homology dimensions and the phi rank come from fraction-free
integer ranks of those blocks.  Canonical H3 coordinates come from
echelonized kernel/image bases over `Fraction`, fixed per block; the
kernel is read off the reduced form of the integer echelon, and repeated
boundary solves reuse a cached `BlockSolver` per block.  An H3 class
stores those coordinates sparsely, keyed by (degree, index); its `parts`
is a dense view of them, one tuple per degree.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping

from .exact_linalg import (ZERO, BlockSolver, _echelon, _rref,
                           echelon_reduce, kernel_from_rref, rank_of_columns,
                           rank_of_rows, reduce_against)
from .free_lie import (Word, _letter_weight, bracket_basis, gen_count,
                       is_lyndon, letter_label, lyndon_basis)
from .sparse import SparseCombination, add_into, add_term

Monomial = tuple[Word, ...]


def _wkey(w: Word) -> tuple[int, Word]:
    return (len(w), w)


def _check_factors(mon: Monomial, n: int) -> None:
    if any(not 0 <= x < n for w in mon for x in w):
        raise ValueError("wedge factor letter out of range")
    if not all(map(is_lyndon, mon)):
        raise ValueError("wedge factor is not a Lyndon word")


def _normalize(words: Iterable[Word]) -> tuple[Monomial | None, int]:
    """Sort wedge factors by basis order; sign = permutation parity."""
    lst = list(words)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and _wkey(lst[j]) < _wkey(lst[j - 1]):
            lst[j], lst[j - 1] = lst[j - 1], lst[j]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i] == lst[i - 1]:
            return None, 1
    return tuple(lst), sign


class WedgeChain(SparseCombination):
    """Element of Lambda^n(L/L_{>k}); coords on sorted wedge monomials."""

    __slots__ = ("genus", "nilpotency_class", "arity")
    _context = ("genus", "nilpotency_class", "arity")
    _degree = staticmethod(lambda mon: sum(map(len, mon)))

    def __init__(self, genus: int, nilpotency_class: int, arity: int,
                 coords: Mapping[Monomial, Fraction] | None = None):
        if nilpotency_class < 1 or arity < 0:
            raise ValueError("bad context")
        self.genus = genus
        self.nilpotency_class = nilpotency_class
        self.arity = arity
        n = gen_count(genus)
        clean: dict[Monomial, Fraction] = {}
        for mon, c in (coords or {}).items():
            c = Fraction(c)
            if not c:
                continue
            if len(mon) != arity:
                raise ValueError("monomial arity mismatch")
            if any(len(w) > nilpotency_class for w in mon):
                raise ValueError("wedge factor above the nilpotency class")
            _check_factors(mon, n)
            if any(_wkey(a) >= _wkey(b) for a, b in zip(mon, mon[1:])):
                raise ValueError("wedge factors not strictly increasing")
            clean[mon] = c
        self.coords = clean

    @classmethod
    def _of(cls, genus: int, nilpotency_class: int, arity: int,
            coords: dict[Monomial, Fraction]) -> "WedgeChain":
        """A chain on sorted monomials with nonzero coords, unchecked."""
        out = object.__new__(cls)
        out.genus, out.nilpotency_class, out.arity = genus, nilpotency_class, arity
        out.coords = coords
        return out

    @classmethod
    def zero(cls, genus: int, nilpotency_class: int, arity: int) -> "WedgeChain":
        return cls(genus, nilpotency_class, arity)

    def reduced_to(self, k: int) -> "WedgeChain":
        """Reduction modulo L_{>k}: drop monomials with a long factor."""
        return WedgeChain._of(self.genus, k, self.arity,
                              {m: c for m, c in self.coords.items()
                               if all(len(w) <= k for w in m)})

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        bits = []
        for mon, c in sorted(self.coords.items(),
                             key=lambda t: tuple(_wkey(w) for w in t[0])):
            mtxt = " ^ ".join(".".join(letter_label(x) for x in w) for w in mon)
            bits.append(f"({c})*{mtxt}")
        return " + ".join(bits)


def wedge_chain_from_terms(genus: int, nilpotency_class: int, arity: int,
                           terms: Iterable[tuple[Monomial, Fraction]]) -> WedgeChain:
    """Build a chain from unnormalized monomials, folding signs and
    dropping factors above the nilpotency class."""
    n = gen_count(genus)
    acc: dict[Monomial, Fraction] = {}
    for mon, c in terms:
        if len(mon) != arity:
            raise ValueError("monomial arity mismatch")
        _check_factors(mon, n)
        if not c or any(len(w) > nilpotency_class for w in mon):
            continue
        norm, sign = _normalize(mon)
        if norm is not None:
            add_term(acc, norm, Fraction(c) * sign)
    return WedgeChain._of(genus, nilpotency_class, arity, acc)


def _monomial_boundary(genus: int, k: int,
                       mon: Monomial) -> dict[Monomial, int]:
    """Boundary of a single wedge monomial, over normalized monomials;
    its coefficients are the integer structure constants, signed."""
    acc: dict[Monomial, int] = {}
    n = len(mon)
    for p in range(n):
        for q in range(p + 1, n):
            size = len(mon[p]) + len(mon[q])
            if size > k:
                break               # factors are sorted by length
            rest = mon[:p] + mon[p + 1:q] + mon[q + 1:]
            # the bracket's words all have length `size`: they go between
            # the shorter and the longer factors of rest, in word order
            lo = 0
            while lo < len(rest) and len(rest[lo]) < size:
                lo += 1
            hi = lo
            while hi < len(rest) and len(rest[hi]) == size:
                hi += 1
            for u, cu in bracket_basis(mon[p], mon[q]).items():
                i = bisect_left(rest, u, lo, hi)
                if i < hi and rest[i] == u:
                    continue
                # (-1)^(p+q) for the pair, (-1)^i for moving u into place
                add_term(acc, rest[:i] + (u,) + rest[i:],
                         -cu if (p + q + i) % 2 else cu)
    return acc


def boundary(c: WedgeChain) -> WedgeChain:
    """Koszul boundary: sum over factor pairs of bracket wedge rest, with
    the (-1)^(i+j) sign of the displayed convention."""
    if c.arity < 1:
        raise ValueError("boundary needs arity >= 1")
    acc: dict[Monomial, Fraction] = {}
    for mon, coeff in c.coords.items():
        add_into(acc, _monomial_boundary(c.genus, c.nilpotency_class, mon), coeff)
    return WedgeChain._of(c.genus, c.nilpotency_class, c.arity - 1, acc)


def _check_cycle(z: WedgeChain) -> None:
    if not boundary(z).is_zero():
        raise ValueError("input chain is not a cycle")


class BlockMismatchError(RuntimeError):
    """A chain monomial outside the weight block it was filed under."""


# ---------------------------------------------------------------------------
# weight-blocked bases


@lru_cache(maxsize=None)
def _graded_basis(genus: int, k: int) -> list[Word]:
    out: list[Word] = []
    for d in range(1, k + 1):
        out.extend(lyndon_basis(genus, d))
    return out


@lru_cache(maxsize=None)
def _blocks(genus: int, k: int, arity: int,
            d: int) -> dict[tuple[int, ...], list[Monomial]]:
    """Sorted wedge monomials of degree d bucketed by weight, each bucket
    in lexicographic order of indices into the length-sorted basis."""
    basis = _graded_basis(genus, k)
    lengths = [len(w) for w in basis]
    out: dict[tuple[int, ...], list[Monomial]] = {}

    def rec(start: int, remaining: int, chosen: list[Word]):
        slots = arity - len(chosen)
        if not slots:
            if not remaining:
                mon = tuple(chosen)
                out.setdefault(_letter_weight(chain.from_iterable(mon), genus),
                               []).append(mon)
            return
        # later factors are no shorter than this one and no longer than k
        for i in range(bisect_left(lengths, remaining - k * (slots - 1), start),
                       len(basis)):
            if lengths[i] * slots > remaining:
                break
            chosen.append(basis[i])
            rec(i + 1, remaining - lengths[i], chosen)
            chosen.pop()

    rec(0, d, [])
    return out


def _monomials(genus: int, k: int, arity: int,
               mu: tuple[int, ...]) -> list[Monomial]:
    """Sorted wedge monomials of the exact letter-count vector mu."""
    return _blocks(genus, k, arity, sum(mu)).get(mu, [])


def _boundary_rows(genus: int, k: int, arity: int,
                   mu: tuple[int, ...]) -> list[dict[int, int]]:
    """Boundary matrix of the (arity, mu) block as fresh row dicts: one row
    per (arity-1)-monomial of weight mu, one column per arity-monomial."""
    index = {m: i for i, m in enumerate(_monomials(genus, k, arity - 1, mu))}
    rows: list[dict[int, int]] = [{} for _ in index]
    for j, mon in enumerate(_monomials(genus, k, arity, mu)):
        for tgt, c in _monomial_boundary(genus, k, mon).items():
            rows[index[tgt]][j] = c
    return rows


@lru_cache(maxsize=None)
def _block_rank(genus: int, k: int, arity: int, mu: tuple[int, ...]) -> int:
    """Rank of the boundary restricted to the (arity, mu) block."""
    if arity < 2:
        return 0
    return rank_of_rows(_boundary_rows(genus, k, arity, mu))


def homology_dims(genus: int, k: int, n: int) -> dict[int, int]:
    """Nonzero dimensions of H_n(L/L_{>k}) per total degree."""
    if genus < 1 or k < 1 or n < 1:
        raise ValueError("need genus >= 1, class k >= 1 and n >= 1")
    out: dict[int, int] = {}
    for d in range(n, n * k + 1):
        h = 0
        for mu, mons in sorted(_blocks(genus, k, n, d).items()):
            h += (len(mons) - _block_rank(genus, k, n, mu)
                  - _block_rank(genus, k, n + 1, mu))
        if h:
            out[d] = h
    return out


# ---------------------------------------------------------------------------
# canonical H3 coordinates


@lru_cache(maxsize=None)
def _h3_structure(genus: int, k: int, mu: tuple[int, ...]):
    """(monomial index, im-d4 echelon, quotient echelon) for one block."""
    mon3 = _monomials(genus, k, 3, mu)
    if not mon3:
        return None
    index = {m: i for i, m in enumerate(mon3)}
    length = len(mon3)
    im_vecs = [[ZERO] * length for _ in _monomials(genus, k, 4, mu)]
    for i, row in enumerate(_boundary_rows(genus, k, 4, mu)):
        for j, c in row.items():
            im_vecs[j][i] = c
    im_basis, im_pivots = echelon_reduce(im_vecs, length)

    pivots, rows = _rref(_echelon(_boundary_rows(genus, k, 3, mu)), length)
    ker = kernel_from_rref(rows, pivots, length)
    for v in ker:
        reduce_against(v, im_basis, im_pivots)
    q_basis, q_pivots = echelon_reduce(ker, length)
    return index, (im_basis, im_pivots), (q_basis, q_pivots)


@lru_cache(maxsize=None)
def _quotient_layout(genus: int, k: int,
                     d: int) -> tuple[dict[tuple[int, ...], int], int]:
    """Offset of each weight block inside the degree-d H3 coordinates, and
    the dimension of H3 in degree d."""
    offsets = {}
    total = 0
    for mu in sorted(_blocks(genus, k, 3, d)):
        offsets[mu] = total
        total += len(_h3_structure(genus, k, mu)[2][0])
    return offsets, total


class HomologyClass(SparseCombination):
    """Canonical H3 coordinates, keyed by (total degree, index).

    `parts` is a read-only dense view of the sparse coordinates: one
    tuple per degree, laid out by `_quotient_layout`, all-zero degrees
    left out.  The constructor takes the same dense form.
    """

    __slots__ = ("genus", "nilpotency_class")
    _context = ("genus", "nilpotency_class")
    _degree = staticmethod(lambda key: key[0])

    def __init__(self, genus: int, nilpotency_class: int,
                 parts: Mapping[int, tuple] | None = None):
        self.genus = genus
        self.nilpotency_class = nilpotency_class
        self.coords = {}
        for d, t in (parts or {}).items():
            dim = _quotient_layout(genus, nilpotency_class, d)[1]
            if len(t) != dim:
                raise ValueError(f"degree {d} has {len(t)} coordinates, "
                                 f"but H3 has dimension {dim} there")
            for i, c in enumerate(map(Fraction, t)):
                if c:
                    self.coords[(d, i)] = c

    @property
    def parts(self) -> dict[int, tuple]:
        dense: dict[int, list] = {}
        for (d, i), c in sorted(self.coords.items()):
            if d not in dense:
                dense[d] = [ZERO] * _quotient_layout(
                    self.genus, self.nilpotency_class, d)[1]
            dense[d][i] = c
        return {d: tuple(v) for d, v in dense.items()}

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        bits = [f"deg {d}: ({', '.join(str(c) for c in t)})"
                for d, t in self.parts.items()]
        return "; ".join(bits)


def class_of(z: WedgeChain) -> HomologyClass:
    """Canonical coordinates of a 3-cycle in ker/im."""
    if z.arity != 3:
        raise ValueError("class_of handles arity-3 chains")
    _check_cycle(z)
    genus, k = z.genus, z.nilpotency_class
    blocks: dict[tuple[int, ...], dict[Monomial, Fraction]] = {}
    for mon, c in z.coords.items():
        mu = _letter_weight(chain.from_iterable(mon), genus)
        blocks.setdefault(mu, {})[mon] = c
    coords: dict[tuple[int, int], Fraction] = {}
    for mu, block in blocks.items():
        st = _h3_structure(genus, k, mu)
        if st is None:
            raise BlockMismatchError(
                "cycle monomial outside the enumerated basis")
        index, (im_basis, im_pivots), (q_basis, q_pivots) = st
        v = [ZERO] * len(index)
        for mon, c in block.items():
            v[index[mon]] = c
        reduce_against(v, im_basis, im_pivots)
        coeffs = reduce_against(v, q_basis, q_pivots)
        if any(v):
            raise RuntimeError("cycle reduction left a nonzero remainder")
        d = sum(mu)
        offset = _quotient_layout(genus, k, d)[0][mu]
        for i, c in enumerate(coeffs, offset):
            if c:
                coords[(d, i)] = c
    return HomologyClass(genus, k)._like(coords)


@lru_cache(maxsize=None)
def _d3_solver(genus: int, k: int, mu: tuple[int, ...]):
    mon3 = _monomials(genus, k, 3, mu)
    if not mon3:
        return None
    mon2 = _monomials(genus, k, 2, mu)
    cols = [_monomial_boundary(genus, k, m) for m in mon3]
    return BlockSolver(mon2, cols), mon3


class NotABoundaryError(ValueError, RuntimeError):
    """A 2-cycle bounding no 3-chain; a RuntimeError too, for older callers."""


def solve_boundary3(z: WedgeChain) -> WedgeChain:
    """Some t with boundary(t) = z for an arity-2 cycle z; cached per block."""
    if z.arity != 2:
        raise ValueError("solve_boundary3 takes arity-2 chains")
    _check_cycle(z)
    genus, k = z.genus, z.nilpotency_class
    blocks: dict[tuple[int, ...], dict[Monomial, Fraction]] = {}
    for mon, c in z.coords.items():
        mu = _letter_weight(chain.from_iterable(mon), genus)
        blocks.setdefault(mu, {})[mon] = c
    acc: dict[Monomial, Fraction] = {}
    for mu, rhs in sorted(blocks.items()):
        pack = _d3_solver(genus, k, mu)
        sol = pack[0].solve(rhs) if pack else None
        if sol is None:
            raise NotABoundaryError("2-cycle is not a 3-boundary")
        for m, c in zip(pack[1], sol):
            if c:
                acc[m] = c
    return WedgeChain._of(genus, k, 3, acc)


def capital_phi(c, k: int) -> HomologyClass:
    """H3 class of the reduced fission of a tree combination.

    Degrees below k are rejected; degrees 2k and above are allowed and
    land in the zero class.
    """
    from .jacobi import TreeCombo, fission
    if not isinstance(c, TreeCombo):
        raise TypeError("capital_phi takes a TreeCombo")
    if k < 1:
        raise ValueError("k must be at least 1")
    degs = c.degrees()
    if degs and degs[0] < k:
        raise ValueError(f"tree degree {degs[0]} below the class bound {k}")
    if not degs:
        return HomologyClass(c.genus, k)
    z = fission(c, nilpotency_class=k)
    return class_of(z)


def phi_matrix_rank(genus: int, k: int) -> int:
    """Rank of capital_phi on the caterpillar spanning family of degrees
    [k, 2k).

    Fission preserves letter weight, so the matrix is block diagonal by
    caterpillar bucket and its rank is the sum of theirs.  A bucket of
    weight mu contributes the rank of its fission cycles modulo the
    boundaries, rank([d4 block ; cycles]) - rank(d4 block), both by
    the fraction-free integer kernel; no H3 coordinates are formed.
    """
    from . import jacobi
    if genus < 1 or k < 1:
        raise ValueError("need genus >= 1 and class k >= 1")
    total = 0
    for d in range(k, 2 * k):
        for mu, trees in jacobi._caterpillars(genus, d).items():
            block = set(_monomials(genus, k, 3, mu))
            columns = [_monomial_boundary(genus, k, m)
                       for m in _monomials(genus, k, 4, mu)]
            for tree in trees:
                z = jacobi.fission(jacobi.TreeCombo.single(tree),
                                   nilpotency_class=k)
                _check_cycle(z)
                if not z.coords.keys() <= block:
                    raise BlockMismatchError(
                        "cycle monomial outside the weight block")
                columns.append(z.coords)
            total += rank_of_columns(columns) - _block_rank(genus, k, 4, mu)
    return total
