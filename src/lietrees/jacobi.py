"""Tree-shaped Jacobi diagrams with leaves colored by the 2g generators.

A diagram is a finite tree whose vertices have valence 1 or 3, with a
cyclic order of edges at every trivalent vertex and a generator letter
at every leaf.  Diagrams are considered up to AS (reversing one cyclic
order negates the diagram) and IHX; multilinearity never arises because
leaves carry single letters by construction.

Storage uses a planted normal form: one leaf is distinguished as the
root and the rest of the tree is a nested pair structure read off in
cyclic order.  Construction canonicalizes over all root choices and
child orderings, folding AS signs into coefficients, so that equal
labeled graphs get equal keys.  Semantic equality (modulo IHX) is
decided through the eta map, which is injective on diagram classes.

comm turns a rooted tree into an iterated bracket, fission sends a tree
to a sum of wedge triples over its trivalent vertices, and eta pairs
each leaf color with the bracket of the rest; all three read subtree
brackets bracketed once per directed edge of the tree.  eta_inverse
solves back onto caterpillar (left-normed) trees with exact linear
algebra, one weight block at a time and only in the blocks its input
lands in, summing each block solver's memoised unit solves as
`johnson.tau_to_trees` does.  A block's rows, the keys of H (x) L of
its weight, are listed from the words of that content alone.  The
caterpillar family of a (degree, weight) block builds one colouring per
orbit of the caterpillar's symmetries, whose etas are its solver's
columns; the solver is certified when built: each column must lie in
the bracket-map kernel and its rank must equal the census dimension
`free_lie.bracket_kernel_dim` of that block of the kernel, so it spans
exactly the kernel and a failed solve is what refuses an input outside
it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .exact_linalg import BlockSolver
from .free_lie import (LieSeries, Word, _split_by_weight, _sum_units,
                       bracket_basis, bracket_kernel_dim, gen_count, is_lyndon,
                       letter_label, parse_letter, witt_dim)
from .sparse import (SparseCombination, add_into, add_term, check_kind,
                     scaled, unscaled)

Plant = int | tuple
ONE = Fraction(1)


def _validate_plant(plant: Plant, n: int) -> None:
    if isinstance(plant, int):
        if not 0 <= plant < n:
            raise ValueError(f"leaf color {plant} out of range")
        return
    if not (isinstance(plant, tuple) and len(plant) == 2):
        raise ValueError("plant nodes must be (left, right) pairs")
    _validate_plant(plant[0], n)
    _validate_plant(plant[1], n)


def _canon_plant(plant: Plant) -> tuple[Plant, str, int] | None:
    """Sort children by key in one bottom-up pass: (plant, key, AS sign),
    or None when degenerate."""
    if isinstance(plant, int):
        return plant, f"{plant:03d}", 1
    left = _canon_plant(plant[0])
    if left is None:
        return None
    right = _canon_plant(plant[1])
    if right is None:
        return None
    lp, lk, ls = left
    rp, rk, rs = right
    if lk == rk:
        return None
    if lk < rk:
        return (lp, rp), f"({lk} {rk})", ls * rs
    return (rp, lp), f"({rk} {lk})", -ls * rs


def _graph_of(root_color: int, plant: Plant):
    """Adjacency with cyclic order: internal nodes store (parent, left, right)."""
    kinds: list[str] = []
    colors: list[int | None] = []
    nbrs: list[list[int]] = []

    def new_node(kind: str, color: int | None) -> int:
        kinds.append(kind)
        colors.append(color)
        nbrs.append([])
        return len(kinds) - 1

    def attach(parent: int, sub: Plant) -> int:
        if isinstance(sub, int):
            i = new_node("leaf", sub)
            nbrs[i].append(parent)
            return i
        i = new_node("int", None)
        nbrs[i].append(parent)
        li = attach(i, sub[0])
        ri = attach(i, sub[1])
        nbrs[i].extend((li, ri))
        return i

    root = new_node("leaf", root_color)
    top = attach(root, plant)
    nbrs[root].append(top)
    return kinds, colors, [tuple(x) for x in nbrs]


def _encode(graph, start: int, frm: int) -> Plant:
    """Planted structure of the subtree entered at `start` from `frm`."""
    kinds, colors, nbrs = graph

    def enc(v: int, prev: int) -> Plant:
        if kinds[v] == "leaf":
            return colors[v]
        nb = nbrs[v]
        i = nb.index(prev)
        return (enc(nb[(i + 1) % 3], v), enc(nb[(i + 2) % 3], v))

    return enc(start, frm)


class TreeDiagram:
    """Canonical representative of a colored tree diagram."""

    __slots__ = ("genus", "root_color", "plant", "key", "_gr")

    def __init__(self, genus: int, root_color: int, plant: Plant, key: str):
        """Unchecked; `build` supplies the canonical plant and its key."""
        self.genus = genus
        self.root_color = root_color
        self.plant = plant
        self.key = key
        self._gr = None

    @classmethod
    def build(cls, genus: int, root_color: int,
              plant: Plant) -> tuple["TreeDiagram | None", int]:
        """Canonicalize; returns (diagram, sign) with input = sign * diagram.

        Returns (None, 1) when the diagram is forced to zero by AS.
        """
        n = gen_count(genus)
        if not 0 <= root_color < n:
            raise ValueError(f"leaf color {root_color} out of range")
        _validate_plant(plant, n)
        graph = _graph_of(root_color, plant)
        kinds, colors, nbrs = graph
        best = None
        signs: set[int] = set()
        for v in range(len(kinds)):
            if kinds[v] != "leaf":
                continue
            canon = _canon_plant(_encode(graph, nbrs[v][0], v))
            if canon is None:
                return None, 1
            cp, pk, s = canon
            key = f"{colors[v]:03d}:{pk}"
            if best is None or key < best[2]:
                best = (colors[v], cp, key)
                signs = {s}
            elif key == best[2]:
                signs.add(s)
        if len(signs) == 2:
            return None, 1
        return cls(genus, *best), signs.pop()

    def graph(self):
        if self._gr is None:
            self._gr = _graph_of(self.root_color, self.plant)
        return self._gr

    @property
    def degree(self) -> int:
        """Internal degree: the number of trivalent vertices."""
        kinds = self.graph()[0]
        return sum(1 for k in kinds if k == "int")

    def leaf_ids(self) -> list[int]:
        kinds = self.graph()[0]
        return [v for v in range(len(kinds)) if kinds[v] == "leaf"]

    def color_of(self, v: int) -> int:
        kinds, colors, _ = self.graph()
        if kinds[v] != "leaf":
            raise ValueError(f"vertex {v} is not a leaf")
        return colors[v]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TreeDiagram) and self.genus == other.genus
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash((self.genus, self.key))

    def __repr__(self) -> str:
        return tree_text(self)


def _edge_values(t: TreeDiagram, cap: int):
    """val(u, frm): bracket of the subtree entered at u from frm, in the
    cyclic order at u, truncated above cap; each directed edge is
    bracketed once and shared by every caller on the same tree."""
    kinds, colors, nbrs = t.graph()
    zero = LieSeries.zero(t.genus, cap)
    memo: dict[tuple[int, int], LieSeries] = {}

    def val(u: int, frm: int) -> LieSeries:
        hit = memo.get((u, frm))
        if hit is None:
            if kinds[u] == "leaf":
                hit = zero._like({(colors[u],): ONE})
            else:
                nb = nbrs[u]
                i = nb.index(frm)
                hit = val(nb[(i + 1) % 3], u).bracket(val(nb[(i + 2) % 3], u))
            memo[(u, frm)] = hit
        return hit

    return val


def comm(t: TreeDiagram, root: int) -> LieSeries:
    """Iterated bracket of t rooted at the leaf `root` (its color excluded)."""
    kinds, _, nbrs = t.graph()
    if root < 0 or root >= len(kinds) or kinds[root] != "leaf":
        raise ValueError(f"vertex {root} is not a leaf")
    return _edge_values(t, len(t.leaf_ids()) - 1)(nbrs[root][0], root)


class TreeCombo(SparseCombination):
    """Rational combination of canonical diagrams; coords maps each
    TreeDiagram to its nonzero coefficient."""

    __slots__ = ("genus",)
    _context = ("genus",)
    _degree = staticmethod(lambda tree: tree.degree)
    _order = staticmethod(lambda tree: tree.key)
    _key_text = staticmethod(lambda tree: tree_text(tree))

    def __init__(self, genus: int,
                 coords: Mapping[TreeDiagram, Fraction] | None = None):
        self._fill((genus,), coords)

    def _admit(self, tree: TreeDiagram) -> bool:
        if not isinstance(tree, TreeDiagram) or tree.genus != self.genus:
            raise ValueError(
                f"{tree!r} is not a tree diagram of genus {self.genus}")
        return True

    @classmethod
    def from_terms(cls, genus: int,
                   raw: Iterable[tuple[Fraction, int, Plant]]) -> "TreeCombo":
        out = cls(genus)
        for coeff, root_color, plant in raw:
            tree, sign = TreeDiagram.build(genus, root_color, plant)
            if tree is not None:
                add_term(out.coords, tree, Fraction(coeff) * sign)
        return out

    @classmethod
    def single(cls, tree: TreeDiagram, coeff=ONE) -> "TreeCombo":
        return cls(tree.genus, {tree: coeff})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeCombo):
            return NotImplemented
        return tree_equal(self, other)


class HLieTensor(SparseCombination):
    """Element of H tensor L, keyed by (letter, Lyndon word), graded by
    tree degree = bracket length minus 1."""

    __slots__ = ("genus",)
    _context = ("genus",)
    _degree = staticmethod(lambda key: len(key[1]) - 1)
    _key_text = staticmethod(lambda key: f"{letter_label(key[0])}(x)"
                             + ".".join(map(letter_label, key[1])))

    def __init__(self, genus: int,
                 coords: Mapping[tuple[int, Word], Fraction] | None = None):
        self._fill((genus,), coords)

    def _admit(self, key: tuple[int, Word]) -> bool:
        h, w = key
        n = gen_count(self.genus)
        if not 0 <= h < n or any(not 0 <= x < n for x in w):
            raise ValueError("letter out of range")
        if not is_lyndon(w):
            raise ValueError(f"{w} is not a Lyndon word")
        return True

    def bracket_contraction(self) -> LieSeries:
        """Image under (h, u) -> [h, u]; zero exactly on the D subspaces."""
        cap = max((len(w) + 1 for _, w in self.coords), default=1)
        acc: dict[Word, Fraction] = {}
        for (h, w), c in self.coords.items():
            add_into(acc, bracket_basis((h,), w), c)
        return LieSeries(self.genus, cap, acc)


def fission(c: TreeCombo, nilpotency_class: int | None = None):
    """Sum over trivalent vertices of the wedge of the three rooted-subtree
    brackets, read in the cyclic order at the vertex.  The brackets are
    built once per directed edge and truncated above the class, whose
    longer factors the wedge chain drops anyway."""
    from . import koszul
    check_kind(c, TreeCombo, "c")
    degs = c.degrees()
    if not degs:
        if nilpotency_class is None:
            nilpotency_class = 1
        return koszul.WedgeChain(c.genus, nilpotency_class, 3)
    if degs[0] < 1:
        raise ValueError("fission needs internal degree >= 1 (no struts)")
    if nilpotency_class is None:
        nilpotency_class = degs[-1] + 1
    terms = []
    for tree, coeff in sorted(c.coords.items(), key=lambda t: t[0].key):
        kinds, _, nbrs = tree.graph()
        val = _edge_values(tree, nilpotency_class)
        for v in range(len(kinds)):
            if kinds[v] != "int":
                continue
            vals = [val(u, v) for u in nbrs[v]]
            for w0, c0 in vals[0].coords.items():
                for w1, c1 in vals[1].coords.items():
                    for w2, c2 in vals[2].coords.items():
                        terms.append(((w0, w1, w2), coeff * c0 * c1 * c2))
    return koszul.wedge_chain_from_terms(c.genus, nilpotency_class, 3, terms)


def eta(c: TreeCombo) -> HLieTensor:
    """Sum over leaves of color tensor bracket-of-the-rest."""
    check_kind(c, TreeCombo, "c")
    acc: dict[tuple[int, Word], Fraction] = {}
    for tree, coeff in c.coords.items():
        kinds, colors, nbrs = tree.graph()
        val = _edge_values(tree, len(tree.leaf_ids()) - 1)
        for v in range(len(kinds)):
            if kinds[v] != "leaf":
                continue
            for w, cw in val(nbrs[v][0], v).coords.items():
                add_term(acc, (colors[v], w), coeff * cw)
    return HLieTensor._of(c.genus, acc)


def tree_equal(x: TreeCombo, y: TreeCombo) -> bool:
    """Semantic equality modulo AS/IHX, decided through eta."""
    if x.genus != y.genus:
        raise ValueError("mismatched genus")
    return eta(x) == eta(y)


def tree_space_dim(genus: int, d: int) -> int:
    """dim of ker([-,-]: H (x) L_{d+1} -> L_{d+2}), counted, not ranked:
    the bracket is onto, so it is 2g W(2g, d+1) - W(2g, d+2), W being
    Witt's `witt_dim`; by weight, its blocks are `bracket_kernel_dim`."""
    check_kind(genus, int, "genus")
    check_kind(d, int, "d")
    if genus < 1:
        raise ValueError("bad context: genus must be at least 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    n = gen_count(genus)
    return n * witt_dim(n, d + 1) - witt_dim(n, d + 2)


def _arrangements(mu: tuple[int, ...]):
    """The words of content mu, the permutations of that multiset, in
    lexicographic order."""
    if not any(mu):
        yield ()
    for x, m in enumerate(mu):
        if m:
            for rest in _arrangements((*mu[:x], m - 1, *mu[x + 1:])):
                yield (x, *rest)


def _hl_block(mu: tuple[int, ...]) -> list[tuple[int, Word]]:
    """Basis keys (h, w) of the weight-mu block of H (x) L, in the order
    of H (x) the Lyndon basis: each letter h of mu, then the Lyndon words
    of content mu - e_h, lexicographically; no other block is listed."""
    return [(h, w) for h, m in enumerate(mu) if m
            for w in _arrangements((*mu[:h], m - 1, *mu[h + 1:]))
            if is_lyndon(w)]


@lru_cache(maxsize=None)
def _caterpillar_colourings(genus: int, d: int,
                            mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """One colouring of degree-d caterpillars of weight mu (|mu| = d + 2)
    per orbit of their symmetries, in product order; only the words of
    content mu are walked.

    The colouring (c0, c1, c2, ...) is the tree rooted at c0 with plant
    (((c1 c2) c3) ...).  Two colourings give one diagram, up to AS sign,
    when a symmetry of the caterpillar maps one to the other, and equal
    c1, c2 force zero.  For d >= 2 the symmetries are c1 <-> c2,
    c0 <-> c_{d+1} and the spine reversal (c0, c1, c2, c3, ..., c_{d+1})
    -> (c1, c0, c_{d+1}, c_d, ..., c3, c2); only the first colouring of
    each orbit is kept: c1 < c2, c0 <= c_{d+1}, and no reversed image,
    with or without either swap, before it.  For d <= 1 only c1 < c2 is
    required, and `_caterpillars` skips the repeated diagrams.
    """
    out = []
    for colors in _arrangements(mu):
        if d > 0 and colors[1] >= colors[2]:
            continue
        if d > 1:
            c0, c1, c2, last, mid = (*colors[:3], colors[-1], colors[-2:2:-1])
            if c0 > last or any((x, z, t, *mid, y) < colors
                                for x, y in ((c1, c2), (c2, c1))
                                for z, t in ((c0, last), (last, c0))):
                continue
        out.append(colors)
    return out


def _caterpillars(genus: int, d: int, mu: tuple[int, ...]) -> list[TreeDiagram]:
    """The distinct nonzero caterpillar diagrams of degree d and weight mu,
    ordered by the first colouring that yields each."""
    out: dict[TreeDiagram, None] = {}
    for colors in _caterpillar_colourings(genus, d, mu):
        plant: Plant = colors[1]
        for x in colors[2:]:
            plant = (plant, x)
        tree, _ = TreeDiagram.build(genus, colors[0], plant)
        if tree is not None:
            out.setdefault(tree)
    return list(out)


def _kernel_column(t: TreeDiagram) -> dict[tuple[int, Word], Fraction]:
    """eta(t), which the bracket contraction must kill."""
    x = eta(TreeCombo.single(t))
    if not x.bracket_contraction().is_zero():
        raise RuntimeError(f"eta of {tree_text(t)} is outside the bracket kernel")
    return x.coords


@lru_cache(maxsize=None)
def _eta_solver(genus: int, d: int, mu: tuple[int, ...]) -> BlockSolver:
    """eta on the degree-d caterpillars of weight mu, certified to span
    exactly the tree space's weight-mu block: every column it reads is
    in the bracket kernel, and its rank is that block's dimension."""
    solver = BlockSolver(_hl_block(mu), _caterpillars(genus, d, mu),
                         _kernel_column)
    if solver.rank != bracket_kernel_dim(mu):
        raise RuntimeError(f"caterpillar family does not span tree space "
                           f"at degree {d}, weight {mu}")
    return solver


def eta_inverse(x: HLieTensor, d: int) -> TreeCombo:
    """Preimage of x under eta, on caterpillar trees.

    x must be homogeneous of tree degree d and lie in the bracket kernel.
    Each solver spans exactly its block of the kernel, so x is solved for
    first, and its bracket contraction is taken only when the solve fails,
    to tell an input outside the kernel from a solver fault.
    """
    check_kind(x, HLieTensor, "x")
    check_kind(d, int, "d")
    if d < 0:
        raise ValueError("degree must be >= 0")
    if any(len(w) - 1 != d for _, w in x.coords):
        raise ValueError(f"input not homogeneous of tree degree {d}")
    if x.is_zero():
        return TreeCombo.zero(x.genus)
    coords, den = scaled(x.coords)
    y, residual, m = _sum_units(lambda mu: _eta_solver(x.genus, d, mu).unit,
                                _split_by_weight(coords, x.genus,
                                                 lambda hw: (hw[0], *hw[1])))
    if residual:
        if not x.bracket_contraction().is_zero():
            raise ValueError("input not in the bracket kernel")
        raise RuntimeError("kernel element outside the certified span")
    return TreeCombo._of(x.genus, unscaled(y, m * den))


def ihx_combination(genus: int, g: int, h: int, k: int, l: int) -> TreeCombo:
    """The IHX relator on four colors: eta-trivial, and its fission is the
    Koszul boundary of the wedge of the colors."""
    return TreeCombo.from_terms(genus, [
        (ONE, g, (k, (h, l))),
        (-ONE, g, (h, (k, l))),
        (-ONE, g, (l, (h, k))),
    ])


def random_tree(genus: int, degree: int, rng) -> TreeCombo:
    """One random canonical diagram of the given internal degree.

    Prefers a diagram with nonzero eta image; at small genus and degree
    the relations can kill every candidate, in which case the first
    nonzero canonical diagram (or the zero combination) is returned.
    """
    if genus < 1:
        raise ValueError("bad context: genus must be at least 1")
    if degree < 0:
        raise ValueError(f"tree degree must be at least 0, not {degree}")

    def rand_plant(m: int) -> Plant:
        if m == 1:
            return rng.randrange(gen_count(genus))
        i = rng.randint(1, m - 1)
        return (rand_plant(i), rand_plant(m - i))

    fallback = None
    for _ in range(600):
        root = rng.randrange(gen_count(genus))
        combo = TreeCombo.from_terms(genus, [(ONE, root, rand_plant(degree + 1))])
        if not combo:
            continue
        if not eta(combo).is_zero():
            return combo
        if fallback is None:
            fallback = combo
    return fallback if fallback is not None else TreeCombo.zero(genus)


# ---------------------------------------------------------------------------
# text form: "(root (sub sub))", written order = cyclic order


def tree_text(t: TreeDiagram) -> str:
    def plant_text(p: Plant) -> str:
        if isinstance(p, int):
            return letter_label(p)
        return f"({plant_text(p[0])} {plant_text(p[1])})"

    return f"({letter_label(t.root_color)} {plant_text(t.plant)})"


def parse_tree_text(text: str, genus: int) -> tuple[int, Plant]:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Plant:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("unbalanced parentheses in tree expression")
            pos += 1
            return (left, right)
        if tok == ")":
            raise ValueError("unexpected ')' in tree expression")
        return parse_letter(tok, genus)

    node = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in tree expression")
    if isinstance(node, int):
        raise ValueError("a tree needs at least two leaves")
    root, plant = node
    if not isinstance(root, int):
        raise ValueError("the first entry must be the root leaf color")
    return root, plant
