"""Koszul complex of the free nilpotent Lie algebra L/L_{>k}.

Chains are wedge powers of L/L_{>k} over the Lyndon basis, monomials
sorted (length, then word) with signs normalized; the boundary brackets
pairs of factors.  It preserves the letter count vector (weight), so
everything runs one weight block at a time, each block enumerated alone
by a walk of the graded basis pruned by the weight left to fill.
Boundary coefficients are `int` structure constants, computed per
monomial as read.  Homology dimensions and the phi rank are
fraction-free integer ranks, taken once per orbit of the letter
permutations; they are the independent oracle for the census that lays
out H3.  That layout, each weight block's offset and dimension, is
counted, not ranked: Phi carries the trees of degree [k, 2k[ onto H3
weight by weight, so a block's dimension is the tree space's,
`free_lie.bracket_kernel_dim`.  Canonical H3 coordinates are per weight,
never per orbit.  Each block a cycle lands in gets one cached H3
`BlockSolver`, whose columns are the d4 boundaries and then the
quotient basis: the d3 kernel reduced modulo the d4 image on integers
and checked against the census.  Every solve sums the memoised unit
solves of a cached `BlockSolver` per block: `class_of` reads the
quotient columns' entries of its sum, and the boundary solves,
`solve_boundary3` and `johnson.morita_mk`, sum those of the d3 solver,
its columns built only up to full rank; `morita_mk` solves only its
cycle's degrees k+2..2k+1, the degrees of H3 at class k, and builds its
cycle as a chain only when that sum leaves a residual.  An H3 class
keeps its coordinates sparsely, keyed by (degree, index); `parts` is a
dense view per degree.  `capital_phi` is linear, so it sums one
memoised class per distinct tree and class.  Membership is decided by
the exact solves: `class_of` and `johnson.morita_mk` take a boundary
only when a unit sum fails, to name a non-cycle as one.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import chain, combinations
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .exact_linalg import (BlockSolver, _echelon, _reduce_fully, _rows_of,
                           rank_of_rows)
from .free_lie import (Word, _split_by_weight, _sum_units, bracket_basis,
                       bracket_kernel_dim, gen_count, is_lyndon,
                       letter_label, lyndon_basis)
from .sparse import (SparseCombination, add_into, add_term, check_kind,
                     scaled, unscaled)

Monomial = tuple[Word, ...]
ZERO = Fraction(0)


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
        self._fill((genus, nilpotency_class, arity), coords)

    def _check_context(self) -> None:
        if self.genus < 0 or self.nilpotency_class < 1 or self.arity < 0:
            raise ValueError("bad context")

    def _admit(self, mon: Monomial) -> bool:
        if len(mon) != self.arity:
            raise ValueError("monomial arity mismatch")
        if any(len(w) > self.nilpotency_class for w in mon):
            raise ValueError("wedge factor above the nilpotency class")
        _check_factors(mon, gen_count(self.genus))
        if any(_wkey(a) >= _wkey(b) for a, b in zip(mon, mon[1:])):
            raise ValueError("wedge factors not strictly increasing")
        return True

    _order = staticmethod(lambda mon: tuple(map(_wkey, mon)))
    _key_text = staticmethod(lambda mon: " ^ ".join(
        ".".join(map(letter_label, w)) for w in mon))

    def reduced_to(self, k: int) -> "WedgeChain":
        """Reduction modulo L_{>k}: drop monomials with a long factor."""
        return WedgeChain._of(self.genus, k, self.arity,
                              {m: c for m, c in self.coords.items()
                               if all(len(w) <= k for w in m)})


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


def _monomial_boundary(k: int, mon: Monomial) -> dict[Monomial, int]:
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
    check_kind(c, WedgeChain, "c")
    if c.arity < 1:
        raise ValueError("boundary needs arity >= 1")
    acc: dict[Monomial, Fraction] = {}
    for mon, coeff in c.coords.items():
        add_into(acc, _monomial_boundary(c.nilpotency_class, mon), coeff)
    return WedgeChain._of(c.genus, c.nilpotency_class, c.arity - 1, acc)


def _check_cycle(z: WedgeChain) -> None:
    if not boundary(z).is_zero():
        raise ValueError("input chain is not a cycle")


class BlockMismatchError(RuntimeError):
    """A chain monomial outside the weight block it was filed under."""


# ---------------------------------------------------------------------------
# weight-blocked bases


def _weights(n: int, d: int):
    """Letter-count vectors of n letters and total d, in increasing order."""
    for bars in combinations(range(d + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, d + n - 1)))


def _dominant_weights(n: int, d: int):
    """(mu, |orbit(mu)|) for the weakly decreasing mu of `_weights(n, d)`."""
    for mu in _weights(n, d):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            yield mu, factorial(n) // prod(map(factorial, map(mu.count, set(mu))))


@lru_cache(maxsize=None)
def _graded_basis(genus: int, k: int):
    """The Lyndon words of length at most k in basis order, their lengths,
    their weights packed 16 bits per letter, and each weight's indices."""
    basis = [w for d in range(1, k + 1) for w in lyndon_basis(genus, d)]
    weights = [sum(1 << 16 * x for x in w) for w in basis]
    by_weight: dict[int, list[int]] = {}
    for i, mu in enumerate(weights):
        by_weight.setdefault(mu, []).append(i)
    return basis, [len(w) for w in basis], weights, by_weight


@lru_cache(maxsize=None)
def _monomials(genus: int, k: int, arity: int,
               mu: tuple[int, ...]) -> list[Monomial]:
    """Sorted wedge monomials (arity >= 1) of the exact letter-count vector
    mu, in lexicographic order of indices into the length-sorted basis."""
    basis, lengths, weights, by_weight = _graded_basis(genus, k)
    # each field's top bit stays set while its count (< 2^15) is >= 0
    guard = sum(1 << 16 * j + 15 for j in range(len(mu)))
    out: list[Monomial] = []

    def rec(start: int, rest: int, remaining: int, chosen: Monomial):
        slots = arity - len(chosen)
        if slots == 1:              # the last factor has weight rest
            last = by_weight.get(rest ^ guard, [])
            out.extend((*chosen, basis[i])
                       for i in last[bisect_left(last, start):])
            return
        # later factors are no shorter than this one and no longer than k
        for i in range(bisect_left(lengths, remaining - k * (slots - 1), start),
                       len(basis)):
            if lengths[i] * slots > remaining:
                break
            nxt = rest - weights[i]
            if nxt & guard == guard:
                rec(i + 1, nxt, remaining - lengths[i], (*chosen, basis[i]))

    rec(0, sum(m << 16 * j for j, m in enumerate(mu)) | guard, sum(mu), ())
    return out


def _boundary_rows(genus: int, k: int, arity: int,
                   mu: tuple[int, ...]) -> list[dict[int, int]]:
    """Boundary matrix of the (arity, mu) block as fresh row dicts: one row
    per (arity-1)-monomial of weight mu, one column per arity-monomial."""
    index = {m: i for i, m in enumerate(_monomials(genus, k, arity - 1, mu))}
    rows: list[dict[int, int]] = [{} for _ in index]
    for j, mon in enumerate(_monomials(genus, k, arity, mu)):
        for tgt, c in _monomial_boundary(k, mon).items():
            rows[index[tgt]][j] = c
    return rows


@lru_cache(maxsize=None)
def _block_rank(genus: int, k: int, arity: int, mu: tuple[int, ...]) -> int:
    """Rank of the boundary restricted to the (arity, mu) block."""
    if arity < 2:
        return 0
    return rank_of_rows(_boundary_rows(genus, k, arity, mu))


def homology_dims(genus: int, k: int, n: int) -> dict[int, int]:
    """Nonzero dimensions of H_n(L/L_{>k}) per total degree: the sum over
    the weakly decreasing weights mu of |orbit(mu)| (c_n - rank d_n -
    rank d_{n+1}) at mu.  A letter permutation preserves L_{>k}, so it is
    a chain automorphism carrying each weight block onto its image's."""
    check_kind(genus, int, "genus")
    check_kind(k, int, "k")
    check_kind(n, int, "n")
    if genus < 1 or k < 1 or n < 1:
        raise ValueError("need genus >= 1, class k >= 1 and n >= 1")
    out: dict[int, int] = {}
    for d in range(n, n * k + 1):
        h = sum(orbit * (len(_monomials(genus, k, n, mu))
                         - _block_rank(genus, k, n, mu)
                         - _block_rank(genus, k, n + 1, mu))
                for mu, orbit in _dominant_weights(gen_count(genus), d))
        if h:
            out[d] = h
    return out


# ---------------------------------------------------------------------------
# canonical H3 coordinates


@lru_cache(maxsize=None)
def _h3_structure(genus: int, k: int,
                  mu: tuple[int, ...]) -> BlockSolver | None:
    """The H3 solver of one block, None if it has no 3-monomials: its
    columns are the d4 boundaries, labelled by their 4-monomials, then
    the quotient basis, labelled by their coordinate keys (degree, index).

    The quotient basis is built on integers, in monomial order over the
    free columns f of `_d3_solver`: the kernel vector m e_f - x, x the
    unit-sum solve of f's boundary, is reduced by `_reduce_fully` against
    the d4 echelon and the basis so far, and a nonzero remainder joins
    the basis, scaled to 1 at its least index.  The remainder is, up to
    scale, the one representative that vanishes on every pivot so far, so
    the basis is independent modulo im d4 and the q-part of a solve is
    unique.
    Certified when built: the basis must have the census dimension of
    H3 at mu, `bracket_kernel_dim(mu)` in degrees k+2..2k+1, else 0."""
    mon3 = _monomials(genus, k, 3, mu)
    if not mon3:
        return None
    index = {m: i for i, m in enumerate(mon3)}
    mon4 = _monomials(genus, k, 4, mu)
    columns = [_monomial_boundary(k, m4) for m4 in mon4]
    kept = _echelon({index[m]: c for m, c in col.items()} for col in columns)
    d3 = _d3_solver(genus, k, mu)
    pivots = set(d3.pivots)
    quotient = []
    for f in mon3:
        if f in pivots:
            continue
        x, m = _sum_units(lambda _: d3, {mu: _monomial_boundary(k, f)})
        row = {index[f]: m, **{index[t]: -v for t, v in x.items()}}
        if row := _reduce_fully(row, kept):
            p = min(row)
            kept[p] = row
            quotient.append({mon3[j]: Fraction(v, row[p])
                             for j, v in row.items()})
    dim = bracket_kernel_dim(mu) if k + 2 <= sum(mu) <= 2 * k + 1 else 0
    if len(quotient) != dim:
        raise RuntimeError(f"H3 quotient basis at class {k}, weight {mu} has "
                           f"{len(quotient)} vectors, but the census "
                           f"gives {dim}")
    labels = list(mon4)
    if quotient:
        d = sum(mu)
        offset = _quotient_layout(genus, k, d)[0][mu]
        labels += [(d, i) for i in range(offset, offset + dim)]
    return BlockSolver(mon3, labels,
                       dict(zip(labels, columns + quotient)).__getitem__)


@lru_cache(maxsize=None)
def _quotient_layout(genus: int, k: int,
                     d: int) -> tuple[dict[tuple[int, ...], int], int]:
    """Offset of each weight block inside the degree-d H3 coordinates, and
    the dimension of H3 in degree d, from the census, with no elimination.

    Phi is a weight-preserving isomorphism from the trees of degree
    [k, 2k[ onto H3(L/L_{>k}), so H3 lives in degrees k+2..2k+1 and its
    weight-mu block has the dimension `bracket_kernel_dim(mu)` of the
    tree space's.  Only the weights of nonzero dimension get an offset,
    in `_weights` order; outside the window the layout is empty."""
    offsets, total = {}, 0
    if not k + 2 <= d <= 2 * k + 1:
        return offsets, total
    for mu in _weights(gen_count(genus), d):
        if dim := bracket_kernel_dim(mu):
            offsets[mu] = total
            total += dim
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
        check_kind(genus, int, "genus")
        check_kind(nilpotency_class, int, "nilpotency_class")
        if genus < 1 or nilpotency_class < 1:
            raise ValueError("bad context")
        self.genus = genus
        self.nilpotency_class = nilpotency_class
        if parts is not None and not isinstance(parts, Mapping):
            raise ValueError(f"parts must be a mapping, "
                             f"not {type(parts).__name__}")
        self.coords = {}
        for d, t in (parts or {}).items():
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"degree key {d!r} is not an int")
            if not isinstance(t, Sequence):
                raise ValueError(f"degree {d} part must be a sequence, "
                                 f"not {type(t).__name__}")
            dim = _quotient_layout(genus, nilpotency_class, d)[1]
            if len(t) != dim:
                raise ValueError(f"degree {d} has {len(t)} coordinates, "
                                 f"but H3 has dimension {dim} there")
            for i, c in enumerate(t):
                try:
                    c = Fraction(c)
                except TypeError:
                    raise ValueError(f"degree {d} coordinate {i} is not a "
                                     f"rational: {c!r}") from None
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
    """Canonical coordinates of a 3-cycle in ker/im; genus at least 1,
    as `HomologyClass` requires.

    z is summed from the memoised unit solves of the cached H3 solver of
    each weight block (`free_lie._sum_units`), and its coordinates are
    the solution's entries on the quotient columns.  The d4 image and
    the quotient basis span exactly ker d3 in each block, so a zero
    summed residual proves z a cycle; `boundary(z)` is computed only on
    a failure path, so a non-cycle is still refused as one before any
    other error."""
    check_kind(z, WedgeChain, "z")
    if z.arity != 3:
        raise ValueError("class_of handles arity-3 chains")
    if z.genus < 1:
        raise ValueError("bad context")
    genus, k = z.genus, z.nilpotency_class
    coords, den = scaled(z.coords)
    blocks = _split_by_weight(coords, genus, chain.from_iterable)
    for mu, block in blocks.items():
        solver = _h3_structure(genus, k, mu)
        if solver is None or not block.keys() <= solver.index.keys():
            _check_cycle(z)
            raise BlockMismatchError(
                "cycle monomial outside the enumerated basis")
    solved = _sum_units(partial(_h3_structure, genus, k), blocks)
    if solved is None:
        _check_cycle(z)
        raise RuntimeError("cycle reduction left a nonzero remainder")
    x, m = solved
    # a 4-monomial label's first part is a word, a coordinate key's an int
    return HomologyClass._of(genus, k, unscaled(
        {key: v for key, v in x.items() if isinstance(key[0], int)}, m * den))


@lru_cache(maxsize=None)
def _d3_solver(genus: int, k: int, mu: tuple[int, ...]) -> BlockSolver:
    """d3 on the (3, mu) block, its columns labelled by their monomials."""
    return BlockSolver(_monomials(genus, k, 2, mu), _monomials(genus, k, 3, mu),
                       partial(_monomial_boundary, k))


class NotABoundaryError(ValueError, RuntimeError):
    """A 2-cycle bounding no 3-chain; a RuntimeError too, for older callers."""


def solve_boundary3(z: WedgeChain) -> WedgeChain:
    """Some t with boundary(t) = z for an arity-2 cycle z, summed from the
    memoised unit solves of the cached d3 solver of each weight block."""
    check_kind(z, WedgeChain, "z")
    if z.arity != 2:
        raise ValueError("solve_boundary3 takes arity-2 chains")
    _check_cycle(z)
    genus, k = z.genus, z.nilpotency_class
    coords, den = scaled(z.coords)
    solved = _sum_units(partial(_d3_solver, genus, k),
                        _split_by_weight(coords, genus, chain.from_iterable))
    if solved is None:
        raise NotABoundaryError("2-cycle is not a 3-boundary")
    x, m = solved
    return WedgeChain._of(genus, k, 3, unscaled(x, m * den))


@lru_cache(maxsize=None)
def _tree_class(tree, k: int) -> dict[tuple[int, int], Fraction]:
    """Coordinates of the H3 class of one tree's reduced fission at class
    k; shared by every caller, so never mutated.  A tree's hash and
    equality include its genus."""
    from .jacobi import TreeCombo, fission
    return class_of(fission(TreeCombo.single(tree), nilpotency_class=k)).coords


def capital_phi(c, k: int) -> HomologyClass:
    """H3 class of the reduced fission of a tree combination.

    Degrees below k are rejected; degrees 2k and above are allowed and
    land in the zero class.  Phi is linear, so the class is summed from
    the `_tree_class` memo, one class per distinct tree and class k.
    """
    from .jacobi import TreeCombo
    check_kind(c, TreeCombo, "c")
    check_kind(k, int, "k")
    if k < 1:
        raise ValueError("k must be at least 1")
    degs = c.degrees()
    if degs and degs[0] < k:
        raise ValueError(f"tree degree {degs[0]} below the class bound {k}")
    if not degs:
        return HomologyClass(c.genus, k)
    coords: dict[tuple[int, int], Fraction] = {}
    for tree, coeff in c.coords.items():
        add_into(coords, _tree_class(tree, k), coeff)
    return HomologyClass._of(c.genus, k, coords)


def phi_matrix_rank(genus: int, k: int) -> int:
    """Rank of capital_phi on the caterpillar spanning family of degrees
    [k, 2k): over the per-weight caterpillar families of weakly decreasing
    weight mu, the sum of |orbit(mu)| (rank([d4 block ; cycles]) -
    rank(d4 block)).

    Fission preserves weight and commutes with letter permutations, as the
    boundary does, so the matrix is block diagonal by weight and a block's
    rank depends only on its weight's orbit.  The difference is the number
    of pivots in the cycle columns of one echelon whose columns are the d4
    boundaries, then the cycles.  No H3 coordinates are formed."""
    from . import jacobi
    check_kind(genus, int, "genus")
    check_kind(k, int, "k")
    if genus < 1 or k < 1:
        raise ValueError("need genus >= 1 and class k >= 1")
    total = 0
    for d in range(k, 2 * k):
        for mu, orbit in _dominant_weights(gen_count(genus), d + 2):
            trees = jacobi._caterpillars(genus, d, mu)
            if not trees:
                continue
            index = {m: i for i, m in enumerate(_monomials(genus, k, 3, mu))}
            columns = [_monomial_boundary(k, m)
                       for m in _monomials(genus, k, 4, mu)]
            n4 = len(columns)
            # the block's cycles share monomials: one boundary for each
            d3 = cache(partial(_monomial_boundary, k))
            for tree in trees:
                z = jacobi.fission(jacobi.TreeCombo.single(tree),
                                   nilpotency_class=k)
                acc: dict[Monomial, Fraction] = {}
                for m, c in z.coords.items():
                    add_into(acc, d3(m), c)
                if acc:
                    raise ValueError("input chain is not a cycle")
                if not z.coords.keys() <= index.keys():
                    raise BlockMismatchError(
                        "cycle monomial outside the weight block")
                columns.append(z.coords)
            pivots = _echelon(_rows_of(columns, index))
            total += orbit * sum(c >= n4 for c in pivots)
    return total
