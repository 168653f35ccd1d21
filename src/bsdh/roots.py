"""
Finite root systems of types A-G with exact weight-lattice arithmetic.

Everything downstream (Weyl groups, Demazure operators, tangent characters)
runs on the data assembled here.  Conventions, fixed once:

* Weights are stored in *fundamental-weight coordinates*: the i-th
  coordinate of a weight lambda is the integer pairing <lambda, alpha_i^vee>.
  This makes every pairing against a simple coroot an O(1) coordinate read.

* The Cartan matrix is ``cartan[i][j] = <alpha_j, alpha_i^vee>``.  Column j
  is therefore the fundamental-weight coordinate vector of the simple root
  alpha_j, and every reflection formula below derives from this one
  convention.

* Roots additionally carry their coordinates in the simple-root basis
  (``root_coords``), so both "which linear combination of simple roots"
  and "what are the pairings" are available without solving anything.

* Simple-root indices are 0-based throughout the library; the CLI shifts
  to the conventional 1-based labels s_1, ..., s_n at the boundary.

Positive roots are generated by the standard closure algorithm: walk up by
height, extending the alpha_i-string through each known root while the
string continues.  The resulting list is sorted by (height, lexicographic
root_coords), which fixes the order of every serialized output.
"""

from __future__ import annotations

import re
import struct
import warnings
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "CartanType",
    "Weight",
    "Root",
    "RootSystem",
    "build_root_system",
    "pairing",
    "reflect",
    "dot_action",
    "dominance_leq",
]

# classical positive-root counts, used as a construction self-check
_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class CartanType:
    """A family letter A-G together with a rank, e.g. A3 or G2.

    Rank bounds follow the classical tables (A>=1, B>=2, C>=3, D>=4,
    E in {6,7,8}, F=4, G=2).  "C2" names the same system as "B2" and is
    canonicalized to B2 with a warning rather than kept as a duplicate.
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in "ABCDEFG" or len(self.family) != 1:
            raise ValueError(f"unknown family {self.family!r}; expected one of A-G")
        lo_hi = {"A": (1, None), "B": (2, None), "C": (3, None), "D": (4, None),
                 "E": (6, 8), "F": (4, 4), "G": (2, 2)}
        lo, hi = lo_hi[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            bound = f"rank {lo}" if hi is None else f"rank in [{lo}, {hi}]"
            raise ValueError(
                f"family {self.family} requires {bound}, got rank {self.rank}"
            )

    @classmethod
    def parse(cls, name: str) -> "CartanType":
        """Parse strings like "A3", "b2", "E8"; canonicalize C2 -> B2."""
        m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", name)
        if not m:
            raise ValueError(f"cannot parse Cartan type from {name!r}")
        family, rank = m.group(1).upper(), int(m.group(2))
        if family == "C" and rank == 2:
            warnings.warn("C2 is the same root system as B2; using B2")
            family = "B"
        return cls(family, rank)

    def simply_laced(self) -> bool:
        return self.family in "ADE"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


# -- packed weights ----------------------------------------------------
#
# A weight (x_1, ..., x_r) packs into one int: a leading 1, then one
# PACK_BITS-bit field per coordinate holding x_k + 2^31, x_1 most
# significant.  The leading 1 gives the rank back, and integer order of
# packed weights of one rank is lexicographic order.  A field holds the
# two's complement of x_k with its top bit flipped, so struct writes and
# reads all fields at once.

PACK_BITS = 32        # fixed by the struct format ">i" below
PACK_MAX_RANK = 64
_PACKERS = tuple(struct.Struct(f">x{r}i") for r in range(PACK_MAX_RANK + 1))
# the leading 1, and the top bit of each field
_FLIPS = tuple(int.from_bytes(b"\x01" + b"\x80\0\0\0" * r, "big")
               for r in range(PACK_MAX_RANK + 1))


def pack_weight(w) -> int:
    """The packed int of a weight.  ValueError for a rank above
    PACK_MAX_RANK or a coordinate outside [-2^31, 2^31)."""
    r = len(w)
    if r > PACK_MAX_RANK:
        raise ValueError(f"weight of rank {r} exceeds {PACK_MAX_RANK}")
    try:
        return int.from_bytes(_PACKERS[r].pack(*w), "big") ^ _FLIPS[r]
    except struct.error as exc:
        raise ValueError(f"weight {tuple(w)} does not pack: {exc}") from None


def unpack_weight(key: int) -> tuple:
    """The weight tuple of a packed int."""
    r = (key.bit_length() - 1) // PACK_BITS
    return _PACKERS[r].unpack((key ^ _FLIPS[r]).to_bytes(4 * r + 1, "big"))


class Weight(tuple):
    """An integral weight in fundamental-weight coordinates.

    A thin tuple subclass: hashable, comparable, and directly usable as a
    dictionary key in character tables.  coords[i] == <lambda, alpha_i^vee>.
    """

    __slots__ = ()

    @property
    def coords(self) -> tuple:
        return tuple(self)

    def __add__(self, other):
        return Weight(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return Weight(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Weight(-a for a in self)

    def __repr__(self) -> str:
        return f"Weight{tuple(self)!r}"


@dataclass(frozen=True)
class Root:
    """A root: its weight, its simple-root coordinates, and its height."""

    weight: Weight
    root_coords: tuple
    height: int

    def __repr__(self) -> str:
        return f"Root{self.root_coords!r}"


class RootSystem:
    """The full combinatorial datum: Cartan matrix, roots, highest root, rho.

    The root data never change after construction.  The memos of other
    modules write to ``_caches`` (see ``__init__``); two threads that race
    on a missing entry compute equal results, so sharing a root system
    between threads is harmless.  Use :func:`build_root_system` (or
    ``RootSystem.of("A3")``) to construct.
    """

    def __init__(self, cartan_type: CartanType, cartan, positive_roots,
                 simple_root_lengths, norms):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan = cartan                      # tuple of row-tuples
        self.positive_roots = positive_roots      # ordered by (height, lex)
        self.simple_root_lengths = simple_root_lengths  # "short"/"long" per index
        self._norms = norms          # half-norms d_i of simple roots (1, 2 or 3)
        self.rho = Weight((1,) * self.rank)
        self.highest_root = positive_roots[-1]
        # fundamental-weight coords of each simple root = columns of cartan
        self.simple_roots = tuple(
            Weight(cartan[i][j] for i in range(self.rank)) for j in range(self.rank)
        )
        # per simple root i: the shift of field i of a packed weight, and
        # the packed delta of alpha_i (pack(lam + alpha_i) - pack(lam))
        n = self.rank
        self.packed_alphas = tuple(
            (PACK_BITS * (n - 1 - i),
             sum(a << PACK_BITS * (n - 1 - k) for k, a in enumerate(alpha)))
            for i, alpha in enumerate(self.simple_roots))
        self._cartan_adjugate = _adjugate(cartan)
        # memos: the weyl module's whole-group list (key "elements"); the
        # tangent module's transition table (key "tangent"), element table
        # (key "walk"), orthogonality masks (key "orth") and reference
        # characters (key ("reference", J))
        self._caches: dict = {}

    @classmethod
    def of(cls, name: str) -> "RootSystem":
        return build_root_system(CartanType.parse(name))

    # -- basic queries -------------------------------------------------

    def root_length(self, beta: Root) -> str:
        """"short" or "long" for any root (simply laced: all "long")."""
        norms = self._norms
        rc = beta.root_coords
        d = sum(rc[j] * norms[j] * beta.weight[j] for j in range(self.rank)) // 2
        return "long" if d == max(norms) else "short"

    def coroot_pairing(self, lam, beta: Root) -> int:
        """<lam, beta^vee> for an arbitrary root beta (simple or not)."""
        norms = self._norms
        rc = beta.root_coords
        num = sum(rc[j] * norms[j] * lam[j] for j in range(self.rank))
        d_beta = sum(rc[j] * norms[j] * beta.weight[j] for j in range(self.rank)) // 2
        q, r = divmod(num, d_beta)
        if r:
            raise ArithmeticError("coroot pairing must be integral")
        return q

    def root_coords_of(self, w) -> tuple | None:
        """Simple-root coordinates of a weight, or None if outside the
        root lattice: C^{-1} w as adj(C) w / det(C), in integers."""
        det, adj = self._cartan_adjugate
        coords = []
        for row in adj:
            q, r = divmod(sum(map(mul, row, w)), det)
            if r:
                return None
            coords.append(q)
        return tuple(coords)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def _adjugate(cartan) -> tuple:
    """(det C, adj C) by fraction-free (Bareiss) Gauss-Jordan elimination
    on [C | I]: each update (p a - f b) // prev divides exactly, and at the
    end the left block is det(C) I and the right block adj(C).  The pivots
    are the leading principal minors of C, all positive for a finite-type
    Cartan matrix, so no row swap is needed."""
    n = len(cartan)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(cartan)]
    prev = 1
    for k in range(n):
        p = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[k])]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in m)


def _cartan_matrix(t: CartanType):
    """Cartan matrix and simple-root half-norms, Bourbaki numbering.

    Chains run 1-2-...-n.  B_n has alpha_n short; C_n has alpha_n long;
    D_n forks at node n-2; E_n hangs node 2 off node 4; F4 is long-long-
    short-short; G2 has alpha_1 short.
    """
    n = t.rank
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    fam = t.family
    if fam == "A":
        for i in range(n - 1):
            edge(i, i + 1)
        norms = [1] * n
    elif fam == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)    # alpha_n short
        norms = [2] * (n - 1) + [1]
    elif fam == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)    # alpha_n long
        norms = [1] * (n - 1) + [2]
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
        norms = [1] * n
    elif fam == "E":
        # chain 1-3-4-5-...-n with 2 attached to 4 (Bourbaki)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
        norms = [1] * n
    elif fam == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)            # double edge, alpha_3/alpha_4 short
        edge(2, 3)
        norms = [2, 2, 1, 1]
    else:  # G
        edge(0, 1, -3, -1)            # alpha_1 short, alpha_2 long
        norms = [1, 3]
    return tuple(tuple(row) for row in a), tuple(norms)


def build_root_system(t: CartanType) -> RootSystem:
    """Construct the root system for a (validated) Cartan type.

    Positive roots come from the closure algorithm: starting from the
    simple roots, repeatedly add alpha_i to a known root beta whenever the
    alpha_i-string through beta continues upward, i.e. whenever
    <beta, alpha_i^vee> < p where p counts how far the string already
    descends below beta.  Terminates at the full positive system.
    """
    n = t.rank
    cartan, norms = _cartan_matrix(t)

    def pair_with_coroot(rc, i):
        # <beta, alpha_i^vee> for beta given in root coordinates
        return sum(cartan[i][j] * rc[j] for j in range(n))

    known = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(known)
    while frontier:
        new = []
        for rc in frontier:
            for i in range(n):
                down = list(rc)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in known:
                        p += 1
                    else:
                        break
                if pair_with_coroot(rc, i) < p:
                    up = list(rc)
                    up[i] += 1
                    up = tuple(up)
                    if up not in known:
                        known.add(up)
                        new.append(up)
        frontier = new

    def to_weight(rc):
        return Weight(sum(cartan[i][j] * rc[j] for j in range(n)) for i in range(n))

    ordered = sorted(known, key=lambda rc: (sum(rc), rc))
    roots = [Root(to_weight(rc), rc, sum(rc)) for rc in ordered]

    expected = _POSITIVE_ROOT_COUNTS[t.family](n)
    if len(roots) != expected:
        raise AssertionError(
            f"closure produced {len(roots)} positive roots for {t}, expected {expected}"
        )
    if len([r for r in roots if r.height == roots[-1].height]) != 1:
        raise AssertionError(f"highest root of {t} is not unique")

    long_norm = max(norms)
    lengths = tuple("long" if d == long_norm else "short" for d in norms)
    return RootSystem(t, cartan, roots, lengths, norms)


# -- weight-lattice operations ----------------------------------------


def pairing(rs: RootSystem, lam, i: int) -> int:
    """<lambda, alpha_i^vee>: a coordinate read in this basis."""
    if not 0 <= i < rs.rank:
        raise IndexError(f"simple-root index {i} out of range for {rs.cartan_type}")
    return lam[i]


def reflect(rs: RootSystem, i: int, lam) -> Weight:
    """Simple reflection s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i."""
    if not 0 <= i < rs.rank:
        raise IndexError(f"simple-root index {i} out of range for {rs.cartan_type}")
    c = lam[i]
    col = rs.simple_roots[i]
    return Weight(x - c * col[k] for k, x in enumerate(lam))


def dot_action(rs: RootSystem, w, lam) -> Weight:
    """The rho-shifted action w . lambda = w(lambda + rho) - rho."""
    shifted = w.apply(Weight(lam) + rs.rho)
    return Weight(shifted) - rs.rho


def dominance_leq(rs: RootSystem, mu, lam) -> bool:
    """mu <= lambda iff lambda - mu is a nonnegative integral combination
    of simple roots.  Weights differing by something outside the root
    lattice are incomparable (returns False)."""
    diff = tuple(a - b for a, b in zip(lam, mu))
    rc = rs.root_coords_of(diff)
    return rc is not None and all(c >= 0 for c in rc)
