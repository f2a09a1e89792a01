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
each leaf color with the bracket of the rest.  eta_inverse solves back
onto caterpillar (left-normed) trees with exact linear algebra; the
caterpillar family's completeness is certified at runtime against the
rank-computed dimension of the bracket-map kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping

from .exact_linalg import BlockSolver, rank_of_columns
from .free_lie import (LieSeries, Word, _letter_weight, bracket_basis,
                       gen_count, is_lyndon, letter_label, lyndon_basis,
                       parse_letter)
from .sparse import SparseCombination, add_into, add_term

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


def _nested_series(genus: int, nested: Plant, cap: int) -> LieSeries:
    if isinstance(nested, int):
        return LieSeries.gen(genus, cap, nested)
    return _nested_series(genus, nested[0], cap).bracket(
        _nested_series(genus, nested[1], cap))


def comm(t: TreeDiagram, root: int) -> LieSeries:
    """Iterated bracket of t rooted at the leaf `root` (its color excluded)."""
    kinds, _, nbrs = t.graph()
    if root < 0 or root >= len(kinds) or kinds[root] != "leaf":
        raise ValueError(f"vertex {root} is not a leaf")
    nested = _encode(t.graph(), nbrs[root][0], root)
    cap = len(t.leaf_ids()) - 1
    return _nested_series(t.genus, nested, cap)


class TreeCombo(SparseCombination):
    """Rational combination of canonical diagrams.

    coords maps each TreeDiagram to its nonzero coefficient; `terms`
    gives the same data keyed by the canonical strings.
    """

    __slots__ = ("genus",)
    _context = ("genus",)

    def __init__(self, genus: int,
                 terms: Mapping[str, tuple[TreeDiagram, Fraction]] | None = None):
        self.genus = genus
        self.coords = {t: c for t, c in (terms or {}).values() if c}

    @property
    def terms(self) -> dict[str, tuple[TreeDiagram, Fraction]]:
        return {t.key: (t, c) for t, c in self.coords.items()}

    @classmethod
    def zero(cls, genus: int) -> "TreeCombo":
        return cls(genus)

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
        return cls(tree.genus, {tree.key: (tree, Fraction(coeff))})

    def degrees(self) -> list[int]:
        return sorted({t.degree for t in self.coords})

    def graded_part(self, d: int) -> "TreeCombo":
        return self._like({t: c for t, c in self.coords.items() if t.degree == d})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeCombo):
            return NotImplemented
        return tree_equal(self, other)

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        bits = [f"({c})*{tree_text(t)}"
                for _, (t, c) in sorted(self.terms.items())]
        return " + ".join(bits)


class HLieTensor(SparseCombination):
    """Element of H tensor L, keyed by (letter, Lyndon word), graded by
    tree degree = bracket length minus 1."""

    __slots__ = ("genus",)
    _context = ("genus",)

    def __init__(self, genus: int,
                 coords: Mapping[tuple[int, Word], Fraction] | None = None):
        n = gen_count(genus)
        clean: dict[tuple[int, Word], Fraction] = {}
        for (h, w), c in (coords or {}).items():
            c = Fraction(c)
            if not c:
                continue
            if not 0 <= h < n or any(not 0 <= x < n for x in w):
                raise ValueError("letter out of range")
            if not is_lyndon(w):
                raise ValueError(f"{w} is not a Lyndon word")
            clean[(h, w)] = c
        self.genus = genus
        self.coords = clean

    @classmethod
    def zero(cls, genus: int) -> "HLieTensor":
        return cls(genus)

    def degrees(self) -> list[int]:
        return sorted({len(w) - 1 for _, w in self.coords})

    def graded_part(self, d: int) -> "HLieTensor":
        return self._like({(h, w): c for (h, w), c in self.coords.items()
                           if len(w) - 1 == d})

    def bracket_contraction(self) -> LieSeries:
        """Image under (h, u) -> [h, u]; zero exactly on the D subspaces."""
        cap = max((len(w) + 1 for _, w in self.coords), default=1)
        acc: dict[Word, Fraction] = {}
        for (h, w), c in self.coords.items():
            add_into(acc, bracket_basis((h,), w), c)
        return LieSeries(self.genus, cap, acc)

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        bits = []
        for (h, w), c in sorted(self.coords.items(),
                                key=lambda t: (len(t[0][1]), t[0])):
            word = ".".join(letter_label(x) for x in w)
            bits.append(f"({c})*{letter_label(h)}(x){word}")
        return " + ".join(bits)


def fission(c: TreeCombo, nilpotency_class: int | None = None):
    """Sum over trivalent vertices of the wedge of the three rooted-subtree
    brackets, read in the cyclic order at the vertex."""
    from . import koszul
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
    for _, (tree, coeff) in sorted(c.terms.items()):
        kinds, _, nbrs = tree.graph()
        nleaves = len(tree.leaf_ids())
        for v in range(len(kinds)):
            if kinds[v] != "int":
                continue
            vals = [_nested_series(tree.genus, _encode(tree.graph(), u, v),
                                   nleaves)
                    for u in nbrs[v]]
            for w0, c0 in vals[0].coords.items():
                for w1, c1 in vals[1].coords.items():
                    for w2, c2 in vals[2].coords.items():
                        terms.append(((w0, w1, w2), coeff * c0 * c1 * c2))
    return koszul.wedge_chain_from_terms(c.genus, nilpotency_class, 3, terms)


def eta(c: TreeCombo) -> HLieTensor:
    """Sum over leaves of color tensor bracket-of-the-rest."""
    acc: dict[tuple[int, Word], Fraction] = {}
    for tree, coeff in c.coords.items():
        graph = tree.graph()
        kinds, colors, nbrs = graph
        cap = len(tree.leaf_ids()) - 1
        for v in range(len(kinds)):
            if kinds[v] != "leaf":
                continue
            val = _nested_series(tree.genus, _encode(graph, nbrs[v][0], v), cap)
            for w, cw in val.coords.items():
                add_term(acc, (colors[v], w), coeff * cw)
    return HLieTensor.zero(c.genus)._like(acc)


def tree_equal(x: TreeCombo, y: TreeCombo) -> bool:
    """Semantic equality modulo AS/IHX, decided through eta."""
    if x.genus != y.genus:
        raise ValueError("mismatched genus")
    return eta(x) == eta(y)


@lru_cache(maxsize=None)
def _hl_blocks(genus: int,
               d: int) -> dict[tuple[int, ...], list[tuple[int, Word]]]:
    """Basis keys (h, w) of H (x) L_{d+1} by weight, each list sorted."""
    out: dict[tuple[int, ...], list[tuple[int, Word]]] = {}
    for h, w in product(range(gen_count(genus)), lyndon_basis(genus, d + 1)):
        out.setdefault(_letter_weight((h,) + w, genus), []).append((h, w))
    return out


@lru_cache(maxsize=None)
def tree_space_dim(genus: int, d: int) -> int:
    """dim of ker([-,-]: H (x) L_{d+1} -> L_{d+2}), computed by rank."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return sum(len(keys) - rank_of_columns([bracket_basis((h,), w)
                                            for h, w in keys])
               for keys in _hl_blocks(genus, d).values())


def _caterpillars(genus: int,
                  d: int) -> dict[tuple[int, ...], list[TreeDiagram]]:
    """The distinct nonzero caterpillar diagrams of degree d by weight,
    each bucket ordered by the first colouring that yields each diagram.

    The colouring (c0, c1, c2, ...) is the tree rooted at c0 with plant
    (((c1 c2) c3) ...).  Swapping c1 and c2 only flips the AS sign and
    equal c1, c2 force zero, so the first colouring of every diagram has
    c1 < c2 and no other colouring is built.
    """
    seen: set[TreeDiagram] = set()
    out: dict[tuple[int, ...], list[TreeDiagram]] = {}
    for colors in product(range(gen_count(genus)), repeat=d + 2):
        if d > 0 and colors[1] >= colors[2]:
            continue
        plant: Plant = colors[1]
        for x in colors[2:]:
            plant = (plant, x)
        tree, _ = TreeDiagram.build(genus, colors[0], plant)
        if tree is not None and tree not in seen:
            seen.add(tree)
            out.setdefault(_letter_weight(colors, genus), []).append(tree)
    return out


@lru_cache(maxsize=None)
def _eta_solvers(genus: int, d: int):
    """Per-weight solvers for eta on the caterpillar diagrams of degree d.

    Completeness of the caterpillar family is certified by comparing the
    total achieved rank with tree_space_dim.
    """
    solvers = {}
    total_rank = 0
    for mu, trees in sorted(_caterpillars(genus, d).items()):
        row_keys = _hl_blocks(genus, d).get(mu)
        if not row_keys:
            continue
        solver = BlockSolver(row_keys,
                             [eta(TreeCombo.single(t)).coords for t in trees])
        total_rank += solver.rank
        solvers[mu] = (solver, trees)
    if total_rank != tree_space_dim(genus, d):
        raise RuntimeError(
            f"caterpillar family does not span tree space at degree {d}")
    return solvers


def eta_inverse(x: HLieTensor, d: int) -> TreeCombo:
    """Preimage of x under eta, on caterpillar trees.

    x must be homogeneous of tree degree d and lie in the bracket kernel.
    """
    if any(len(w) - 1 != d for _, w in x.coords):
        raise ValueError(f"input not homogeneous of tree degree {d}")
    if not x.bracket_contraction().is_zero():
        raise ValueError("input not in the bracket kernel")
    if x.is_zero():
        return TreeCombo.zero(x.genus)
    solvers = _eta_solvers(x.genus, d)
    blocks: dict[tuple[int, ...], dict] = {}
    for (h, w), c in x.coords.items():
        mu = _letter_weight((h,) + w, x.genus)
        blocks.setdefault(mu, {})[(h, w)] = c
    coords: dict[TreeDiagram, Fraction] = {}
    for mu, rhs in sorted(blocks.items()):
        sol = solvers[mu][0].solve(rhs) if mu in solvers else None
        if sol is None:
            raise RuntimeError("kernel element outside the certified span")
        coords.update((t, c) for t, c in zip(solvers[mu][1], sol) if c)
    return TreeCombo.zero(x.genus)._like(coords)


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
