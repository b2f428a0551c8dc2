"""The shared projection vector and per-node hash products.

Every node projects each stored row onto the same length-N vector r; the
n*alpha inner products, stacked in node order, form a codeword of the
(n,k) code offset by the projected errors.  r comes in two kinds, and
this module owns them: it names them, draws r for either (draw_vector)
and prices the shared randomness (seed_bit_count, the one pricing: a
vector carries its kind as provenance, not its cost, and
verifier.accounting prices the rest of an audit).  What each kind
guarantees, the theorem and its failure bound, lives in the verifier.

  true-random    N uniform symbols, N*ceil(log2 q) shared bits
  pseudorandom   expanded from a seed of two elements of an extension
                 F_{q^m}, 2*m*ceil(log2 q) shared bits

The pseudorandom expansion is r_i = <coords(x^i), coords(y)> for
i = 0..N-1, with (x, y) the seed and coords the F_q-coordinate map of
the extension.  Any nonzero linear test sum(beta_i * r_i) then equals
<coords(P(x)), coords(y)> for the nonzero polynomial P of degree
<= N-1, which pins the test's bias at (q-1)(N-1)/q^m exactly; m is the
smallest degree that pushes this below 1.

Drawing r has two steps, and draw_vector is their composition:
draw_challenge draws what the kind shares (the vector itself, or the
seed), and expand_challenges grows seeds into vectors.  Many seeds of
one extension expand together (prg_expand_many): the recurrence runs on
all of them at once in arrays of the base field's kernel
(matrix.kernel), for every base.  prg_expand is the seed-by-seed
reference, every base-field operation a field call.  A vector's
symbols are one read-only 1-D array: int64, or the kernel's dtype from
prg_expand_many.  node_hash answers in the kernel's dtype too, and the
verifier's hash vector is that array, n*alpha symbols, as it is written
to the hash file.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import clock
from .errors import ExtensionTooSmall, ShapeMismatch
from .field import make_extension, symbol_bits
from .matrix import kernel

TRUE_RANDOM = "true-random"
PSEUDORANDOM = "pseudorandom"


@dataclass(frozen=True, eq=False)
class RandomVector:
    symbols: np.ndarray  # made read-only; vectors compare by identity
    field: object
    provenance: str  # TRUE_RANDOM | PSEUDORANDOM
    drawn_at: int

    def __post_init__(self):
        self.symbols.flags.writeable = False


@dataclass(frozen=True)
class PrgSeed:
    """Two extension-field elements; everything else is derivable."""

    x: int
    y: int
    ext: object
    drawn_at: int = dataclasses.field(default_factory=clock.tick)

    @property
    def m(self) -> int:
        return self.ext.m


def minimal_extension_degree(q: int, N: int) -> int:
    """Smallest m >= 1 with q^m >= (q-1)(N-1)."""
    need = (q - 1) * (N - 1)
    m = 1
    while q ** m < need:
        m += 1
    return m


def draw_random_vector(N: int, field, rng) -> RandomVector:
    if N < 1:
        raise ValueError("N must be >= 1")
    return RandomVector(rng.integers(0, field.q, size=N), field, TRUE_RANDOM, clock.tick())


def make_prg_seed(field, N: int, rng) -> PrgSeed:
    if N < 1:
        raise ValueError("N must be >= 1")
    m = minimal_extension_degree(field.q, N)
    ext = make_extension(field, m)
    x = int(rng.integers(0, ext.q))
    y = int(rng.integers(0, ext.q))
    return PrgSeed(x, y, ext)


def _check_room(ext, N: int):
    """The checks of both expansions: N >= 1 and an extension with
    room for a bias below 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if ext.q < (ext.base.q - 1) * (N - 1):
        raise ExtensionTooSmall(
            f"q^m = {ext.q} below (q-1)(N-1) = {(ext.base.q - 1) * (N - 1)}"
        )


def prg_expand(seed: PrgSeed, N: int) -> RandomVector:
    """r_i = <coords(x^i), coords(y)>, by iterated multiplication by x.

    Costs N-1 extension multiplications plus N coordinate inner
    products: O(N m^2) base-field operations.  The base-field loop is
    written out so an instrumented field sees every operation.
    """
    ext = seed.ext
    base = ext.base
    _check_room(ext, N)
    ycoords = ext.coords(seed.y)
    out = []
    power = 1
    for i in range(N):
        acc = 0
        for a, b in zip(ext.coords(power), ycoords):
            acc = base.add(acc, base.mul(a, b))
        out.append(acc)
        if i + 1 < N:
            power = ext.mul(power, seed.x)
    return RandomVector(np.array(out, dtype=np.int64), base, PSEUDORANDOM, seed.drawn_at)


def prg_expand_many(seeds, N: int) -> list[RandomVector]:
    """prg_expand of every seed, all of one extension field: the seeds'
    powers of x advance together, each step one stacked product of a
    coordinate vector with the m x m matrix of multiplication by x, in
    the base field's kernel."""
    if not seeds:
        return []
    ext = seeds[0].ext
    base, m = ext.base, ext.m
    if any(s.ext != ext for s in seeds):
        raise ValueError("seeds must share one extension field")
    _check_room(ext, N)
    kern = kernel(base)
    x = kern.asarray([ext.coords(s.x) for s in seeds])
    y = kern.asarray([ext.coords(s.y) for s in seeds])
    low = kern.asarray([ext.modulus[:m]])
    # times_x[b] is multiplication by x_b on coordinates: row j holds
    # coords(t^j * x_b), each row the one above shifted up a degree and
    # reduced by the monic modulus
    times_x = np.zeros((len(seeds), m, m), dtype=kern.dtype)
    times_x[:, 0] = x
    for j in range(1, m):
        times_x[:, j, 1:] = times_x[:, j - 1, :-1]
        times_x[:, j] = kern.sub(times_x[:, j], kern.mul(times_x[:, j - 1, -1:], low))
    powers = np.zeros((len(seeds), N, m), dtype=kern.dtype)  # coords(x_b^i)
    powers[:, 0, 0] = 1
    for i in range(1, N):
        powers[:, i] = kern.matmul(powers[:, i - 1, None], times_x)[:, 0]
    out = kern.matmul(powers, y[:, :, None])[:, :, 0]
    return [RandomVector(row, base, PSEUDORANDOM, s.drawn_at) for row, s in zip(out, seeds)]


def draw_challenge(params, kind: str, rng) -> RandomVector | PrgSeed:
    """The draw step of one audit of the given kind: the true-random
    RandomVector itself, or the PrgSeed a pseudorandom one grows from."""
    if kind == TRUE_RANDOM:
        return draw_random_vector(params.N, params.field, rng)
    if kind == PSEUDORANDOM:
        return make_prg_seed(params.field, params.N, rng)
    raise ValueError(f"unknown randomness kind {kind!r}")


def expand_challenges(challenges, N: int) -> list[RandomVector]:
    """The expand step: every PrgSeed grows into its vector, all in one
    prg_expand_many call; a RandomVector is its own expansion."""
    grown = iter(prg_expand_many([c for c in challenges if isinstance(c, PrgSeed)], N))
    return [next(grown) if isinstance(c, PrgSeed) else c for c in challenges]


def draw_vector(params, kind: str, rng) -> tuple[RandomVector, PrgSeed | None]:
    """The projection vector of one audit of the given kind, and the
    seed it grew from (None for a true-random vector)."""
    drawn = draw_challenge(params, kind, rng)
    (r,) = expand_challenges([drawn], params.N)
    return r, drawn if isinstance(drawn, PrgSeed) else None


def node_hash(content, r: RandomVector) -> np.ndarray:
    """One symbol per stored row, a 1-D array of the kernel's dtype: the
    row's inner product with r.  content is a list of rows or an array;
    it and r are checked by the kernel's asarray, and one kernel product
    hashes all of its rows."""
    kern = kernel(r.field)
    content, R = kern.asarray(content), kern.asarray(r.symbols[None])
    if content.shape[1] != R.shape[1]:
        raise ShapeMismatch(f"rows must have length {R.shape[1]}")
    return kern.matmul(content, R.T)[:, 0]


def seed_bit_count(kind: str, params) -> int:
    """The one pricing of shared randomness over GF(q): a true-random
    vector shares its N symbols, Theta(N) bits, and a seed its two
    elements of F_{q^m}, Theta(log N) bits."""
    q, N = params.field.q, params.N
    if kind == TRUE_RANDOM:
        return N * symbol_bits(q)
    if kind == PSEUDORANDOM:
        return 2 * minimal_extension_degree(q, N) * symbol_bits(q)
    raise ValueError(f"unknown randomness kind {kind!r}")
