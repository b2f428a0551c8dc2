"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
library: codewords come from direct polynomial evaluation over the
coefficient basis (not the systematic Lagrange construction), and
decoding is exhaustive minimum-distance search over the full codebook,
or over every error support (support_decode), or Gao's algebraic
decoder (gao_decode), an algorithm unrelated to the library's syndrome
decoder.  Slow on purpose; use only at small parameters.  The .nxm reference codec packs and parses
one symbol at a time, and the byte-packing reference cuts one symbol
at a time from a big integer.
"""

import dataclasses
import itertools
import math

from nxmds import container, matrix
from nxmds.errors import ContainerError, TruncatedPayload
from nxmds.field import is_prime


def poly_eval(field, coeffs, x):
    """Horner evaluation of a coefficient vector (ascending degree)."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


_codebooks = {}


def all_codewords(params):
    """Every codeword of the (n,k) code: evaluations of every polynomial
    of degree < k at the evaluation points."""
    key = (params.field, params.n, params.k)
    if key not in _codebooks:
        f = params.field
        pts = params.eval_points
        book = [
            tuple(poly_eval(f, coeffs, x) for x in pts)
            for coeffs in itertools.product(range(f.q), repeat=params.k)
        ]
        _codebooks[key] = book
    return _codebooks[key]


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def min_distance_decode(params, word, radius):
    """Closest codeword within the radius, or None if there is no unique
    one.  Ties are reported as failure rather than broken."""
    best, best_d, tie = None, len(word) + 1, False
    for cw in all_codewords(params):
        d = hamming(cw, word)
        if d < best_d:
            best, best_d, tie = cw, d, False
        elif d == best_d:
            tie = True
    if best_d > radius or tie:
        return None
    return best


def lagrange_values(field, known, xs):
    """Textbook Lagrange interpolation through the (x, y) pairs in
    `known`, evaluated at each point of xs."""
    out = []
    for x in xs:
        acc = 0
        for j, (xj, yj) in enumerate(known):
            term = yj
            for l, (xl, _) in enumerate(known):
                if l != j:
                    term = field.mul(
                        term,
                        field.div(field.sub(x, xl), field.sub(xj, xl)),
                    )
            acc = field.add(acc, term)
        out.append(acc)
    return out


def support_decode(params, word):
    """Bounded-distance decoding by enumerating error supports: for each
    set S of at most t1 positions, smallest first, the polynomial through
    the first k positions outside S (lagrange_values) must reproduce
    every other position outside S.  Returns (codeword, error positions)
    for the first S that passes, or None when none does.  Within t1 the
    codeword is unique, so the order of the search does not matter."""
    f, n, k = params.field, params.n, params.k
    pts = params.eval_points
    for size in range(params.t1 + 1):
        for support in itertools.combinations(range(n), size):
            rest = [p for p in range(n) if p not in support]
            known = [(pts[p], word[p]) for p in rest[:k]]
            if all(lagrange_values(f, known, [pts[p]]) == [word[p]] for p in rest[k:]):
                cw = tuple(lagrange_values(f, known, pts))
                return cw, frozenset(p for p in range(n) if cw[p] != word[p])
    return None


def _strip(a):
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(f, a, b):
    """Quotient and remainder of a by b != 0.  Polynomials are coefficient
    lists in ascending degree without trailing zeros."""
    r = list(a)
    *low, lead = b
    db = len(low)
    inv = f.inv(lead)
    q = [0] * max(len(r) - db, 0)
    for i in reversed(range(len(q))):
        c = q[i] = f.mul(r[i + db], inv)
        for j, x in enumerate(low, i):
            r[j] = f.sub(r[j], f.mul(c, x))
    return q, _strip(r[:db])


def _poly_sub_mul(f, a, q, b):
    """a - q*b."""
    out = list(a) + [0] * max(len(q) + len(b) - 1 - len(a), 0)
    for i, c in enumerate(q):
        for j, x in enumerate(b, i):
            out[j] = f.sub(out[j], f.mul(c, x))
    return _strip(out)


def gao_decode(params, word):
    """Gao's decoder (S. Gao, "A new algorithm for decoding Reed-Solomon
    codes", 2003): the codeword within distance t1 of the word, or None.
    Interpolate g1 through the word, run the extended Euclidean algorithm
    on g0 = prod (x - a_i) and g1 until the remainder g = u*g0 + v*g1 has
    degree < (n+k)/2, and divide g by v.  With at most t1 errors the
    division is exact and the quotient, of degree < k, is the message
    polynomial; otherwise the word is undecodable."""
    f, n, k = params.field, params.n, params.k
    pts = params.eval_points
    g0 = [1]
    for a in pts:
        g0 = _poly_sub_mul(f, [0] + g0, [a], g0)
    g1 = []
    for a, y in zip(pts, word):
        # y times the Lagrange basis polynomial of a: g0 / (x - a), 1 at a
        basis, _ = _poly_divmod(f, g0, [f.neg(a), 1])
        den = 1
        for b in pts:
            if b != a:
                den = f.mul(den, f.sub(a, b))
        g1 = _poly_sub_mul(f, g1, [f.neg(f.div(y, den))], basis)
    r0, r1 = g0, g1
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:  # deg r1 >= (n+k)/2
        quot, rem = _poly_divmod(f, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub_mul(f, v0, quot, v1)
    msg, rem = _poly_divmod(f, r1, v1)
    if rem or len(msg) > k:
        return None
    return tuple(poly_eval(f, msg, a) for a in pts)


def edge_primes(terms):
    """The largest prime p whose sums of `terms` products mod p fit
    int64 (matrix.int64_fits), and the next prime, whose sums do not."""
    above = math.isqrt(matrix._INT64_MAX // terms) + 2
    while not is_prime(above):
        above += 1
    below = above - 1
    while not is_prime(below):
        below -= 1
    return below, above


def inner(field, u, v):
    """Inner product of two equal-length vectors, one field call per
    operation: the reference for every kernel product."""
    assert len(u) == len(v), "inner product of unequal lengths"
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def vector_fields(v):
    """Every field of a RandomVector, which compares by identity, with
    the symbols as a list of values: two vectors are equal when these
    are."""
    out = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    out["symbols"] = v.symbols.tolist()
    return out


def dense_generator(params):
    """The full n*alpha x k*alpha generator: coded row i*alpha + g holds,
    in the k columns of group g, the values at point i of the Lagrange
    basis through the first k points (lagrange_values), zeros elsewhere."""
    f, k, a, pts = params.field, params.k, params.alpha, params.eval_points
    basis = [lagrange_values(f, [(pts[j], int(j == d)) for j in range(k)], pts)
             for d in range(k)]
    rows = [[0] * (k * a) for _ in range(params.n * a)]
    for i in range(params.n):
        for g in range(a):
            for d in range(k):
                rows[i * a + g][g * k + d] = basis[d][i]
    return tuple(map(tuple, rows))


def row_space_rank(field, rows):
    """Rank as log_q of the size of the row space, found by enumerating
    every combination of the rows (q^len(rows) of them; keep it small)."""
    assert field.q ** len(rows) <= 2401, "row space too large to enumerate"
    ncols = len(rows[0]) if rows else 0
    space = set()
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        vec = [0] * ncols
        for c, row in zip(coeffs, rows):
            vec = [field.add(v, field.mul(c, x)) for v, x in zip(vec, row)]
        space.add(tuple(vec))
    rank = 0
    while field.q ** rank < len(space):
        rank += 1
    assert field.q ** rank == len(space)
    return rank


def monic(field, enc, degree):
    """The monic polynomial of the given degree whose lower coefficients
    are the base-q digits of enc, ascending."""
    digits = []
    for _ in range(degree):
        enc, d = divmod(enc, field.q)
        digits.append(d)
    return digits + [1]


def _divides(field, den, num):
    """Whether the monic den divides num, by long division."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        for t in range(d + 1):
            num[i - d + t] = field.sub(num[i - d + t], field.mul(c, den[t]))
    return not any(num)


def irreducible_by_trial_division(field, poly):
    """Exhaustive trial division of a monic polynomial by every monic
    polynomial of degree 1..deg/2."""
    degree = len(poly) - 1
    return degree >= 1 and not any(
        _divides(field, monic(field, enc, d), poly)
        for d in range(1, degree // 2 + 1)
        for enc in range(field.q ** d)
    )


def pack_matrix(header, rows):
    """Reference .nxm writer: the header, the row and column counts, then
    each symbol checked and packed by its own int.to_bytes."""
    q = header.q
    width = container.symbol_width(q)
    cols = len(rows[0]) if rows else 0
    out = bytearray(container.pack_header(header))
    out += len(rows).to_bytes(8, "little")
    out += cols.to_bytes(8, "little")
    for row in rows:
        if len(row) != cols:
            raise ContainerError("ragged matrix")
        for v in row:
            if not isinstance(v, int):
                raise ContainerError(f"symbol {v!r} is not an integer")
            if not 0 <= v < q:
                raise ContainerError(f"symbol {v} out of range for q={q}")
            out += v.to_bytes(width, "little")
    return bytes(out)


def parse_matrix(data):
    """Reference .nxm reader: each symbol parsed by its own
    int.from_bytes, then the first out-of-range one named."""
    header, pos = container.parse_header(data)
    if len(data) < pos + 16:
        raise TruncatedPayload("missing matrix frame")
    nrows = int.from_bytes(data[pos:pos + 8], "little")
    ncols = int.from_bytes(data[pos + 8:pos + 16], "little")
    pos += 16
    q = header.q
    width = container.symbol_width(q)
    need = nrows * ncols * width
    if len(data) < pos + need:
        raise TruncatedPayload(
            f"payload needs {need} bytes, only {len(data) - pos} present"
        )
    if len(data) > pos + need:
        raise ContainerError("trailing bytes after payload")
    flat = [int.from_bytes(data[j:j + width], "little")
            for j in range(pos, pos + need, width)]
    if flat and max(flat) >= q:
        v = next(v for v in flat if v >= q)
        raise ContainerError(f"symbol {v} out of range for q={q}")
    return header, [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)]


def ingest(data, params):
    """Reference byte packing: the data as one big integer, each
    floor(log2 q)-bit symbol cut from it by its own shift, MSB first,
    row-major; unused symbols stay zero."""
    b = params.field.q.bit_length() - 1
    rows, N = params.k * params.alpha, params.N
    cap = rows * N * b
    acc = int.from_bytes(data, "big") << (cap - 8 * len(data))
    mask = (1 << b) - 1
    slots = [(acc >> (cap - (j + 1) * b)) & mask for j in range(rows * N)]
    return [slots[r * N:(r + 1) * N] for r in range(rows)]


def extract(params, X):
    """Reference unpacking: every symbol shifted into one big integer,
    which is cut to the whole bytes of capacity."""
    b = params.field.q.bit_length() - 1
    cap = params.k * params.alpha * params.N * b
    acc = 0
    for row in X:
        for v in row:
            acc = (acc << b) | v
    return (acc >> (cap % 8)).to_bytes(cap // 8, "big")
