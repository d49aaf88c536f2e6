"""Exact dense/sparse linear algebra over Z, Q and prime fields.

Everything here is exact: integers are arbitrary precision, rationals are
`fractions.Fraction`, and prime-field elements are reduced representatives
in ``range(p)``.  No floating point enters this module; the torsion of an
integer cochain complex computed here is used as the oracle for every
torsion claim elsewhere in the package.

The three workhorses are

* :func:`smith_normal_form` -- U * m * V = D with U, V unimodular and the
  diagonal forming a divisibility chain,
* :func:`solve_linear` -- a particular solution together with a basis of
  the homogeneous solution space (over Z the solve is in integers), and
* :func:`cohomology` -- per-degree free rank and invariant factors of a
  finite complex, with torsion when the coefficients are Z.

Cohomology is read off the differentials, each factored once: H^k has free
rank dim C^k - rk d_k - rk d_{k-1}, and as C^k / ker d_k embeds in the free
C^{k+1}, its torsion is that of coker d_{k-1}: the non-unit invariant
factors of d_{k-1}.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

DENSE_LIMIT = 512


class ExactLinalgError(ValueError):
    """Raised when a precondition of an exact-linalg operation fails."""


@dataclass(frozen=True)
class Ring:
    """Coefficient ring descriptor: Z, Q or F_p (p prime).

    >>> Ring.Z().name, Ring.Q().name, Ring.GF(7).name
    ('Z', 'Q', 'F7')
    """

    kind: str  # "Z" | "Q" | "Fp"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ExactLinalgError("unknown ring kind %r" % (self.kind,))
        if self.kind == "Fp":
            if self.p < 2 or not _is_prime(self.p):
                raise ExactLinalgError("F_p needs a prime p, got %r" % (self.p,))

    @staticmethod
    def Z() -> "Ring":
        return Ring("Z")

    @staticmethod
    def Q() -> "Ring":
        return Ring("Q")

    @staticmethod
    def GF(p: int) -> "Ring":
        return Ring("Fp", p)

    @staticmethod
    def parse(token: str) -> "Ring":
        """Parse a ring token as used in file formats: Z, Q, F5, F13."""
        token = token.strip()
        if token == "Z":
            return Ring.Z()
        if token == "Q":
            return Ring.Q()
        if token.startswith("F"):
            try:
                p = int(token[1:])
            except ValueError:  # not a number, or more digits than int() parses
                raise ExactLinalgError("cannot parse ring token %.40r" % (token,)) from None
            return Ring.GF(p)
        raise ExactLinalgError("cannot parse ring token %r" % (token,))

    @property
    def name(self) -> str:
        return self.kind if self.kind != "Fp" else "F%d" % self.p

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def coerce(self, x):
        """Coerce an integer, a Fraction or an "a/b" string into this ring.

        Floats and bools are refused, never rounded: 0.5 over Z is not 0, and
        over Q a float's binary expansion is not the number that was written.

        >>> Ring.Q().coerce("3/4"), Ring.GF(5).coerce("1/2")
        (Fraction(3, 4), 3)
        """
        if type(x) is not int and type(x) is not Fraction:
            x = _exact_scalar(x)
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ExactLinalgError("%s is not an integer" % (x,))
                x = x.numerator
            return int(x)
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ExactLinalgError("denominator divisible by %d" % self.p)
            return (x.numerator * pow(den, -1, self.p)) % self.p
        return int(x) % self.p

    def sign(self, k: int):
        """(-1)^k in this ring, for any integer k (negative ones included)."""
        return self.coerce(-1 if k % 2 else 1)

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == "Fp" else c

    def sub(self, a, b):
        c = a - b
        return c % self.p if self.kind == "Fp" else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == "Fp" else c

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        """Multiplicative inverse; over Z only +-1 are invertible."""
        if self.kind == "Q":
            if a == 0:
                raise ExactLinalgError("division by zero")
            return 1 / Fraction(a)
        if self.kind == "Fp":
            if a % self.p == 0:
                raise ExactLinalgError("division by zero")
            return pow(a, -1, self.p)
        if a in (1, -1):
            return a
        raise ExactLinalgError("%r is not invertible in Z" % (a,))

    def div(self, a, b):
        if self.kind == "Z":
            q, r = divmod(a, b)
            if r != 0:
                raise ExactLinalgError("%r does not divide %r in Z" % (b, a))
            return q
        return self.mul(a, self.inv(b))


def _exact_scalar(x):
    """x as an int or a rational; floats, bools and non-numbers are refused."""
    if isinstance(x, str):
        try:
            if "e" in x.lower():  # "1e10000000" would be a 33-million-bit integer
                raise ValueError
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ExactLinalgError("not an exact scalar: %.40r" % (x,)) from None
    if isinstance(x, bool) or not isinstance(x, numbers.Rational):
        raise ExactLinalgError("not an exact scalar: %.40r of type %s"
                               % (x, type(x).__name__))
    return x


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson-Webster 2015: the least strong pseudoprime to all 13 bases).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= PRIME_BOUND is rejected, not guessed."""
    if n >= PRIME_BOUND:
        raise ExactLinalgError("primality of %d is not decided: F_p needs p < %d"
                               % (n, PRIME_BOUND))
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in _MR_BASES)


class ExactMatrix:
    """An exact matrix over a :class:`Ring`.

    Storage is dense (list of lists) up to ``DENSE_LIMIT`` in either
    dimension and a triplet dict above that; both expose the same API.
    Instances are treated as immutable by every public operation.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, entries=None, _storage=None):
        if rows < 0 or cols < 0:
            raise ExactLinalgError("negative dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.sparse = max(rows, cols) > DENSE_LIMIT
        if _storage is not None:
            self._data = _storage
            return
        if self.sparse:
            self._data = {}
            if entries is not None:
                for i, row in enumerate(entries):
                    for j, x in enumerate(row):
                        v = ring.coerce(x)
                        if v != 0:
                            self._data[(i, j)] = v
        else:
            zero = ring.zero()
            if entries is None:
                self._data = [[zero] * cols for _ in range(rows)]
            else:
                if len(entries) != rows or any(len(r) != cols for r in entries):
                    raise ExactLinalgError("entry shape does not match dimensions")
                self._data = [[ring.coerce(x) for x in row] for row in entries]

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rows(ring: Ring, entries) -> "ExactMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return ExactMatrix(ring, rows, cols, entries)

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(ring, rows, cols)

    @staticmethod
    def identity(ring: Ring, n: int) -> "ExactMatrix":
        m = ExactMatrix(ring, n, n)
        one = ring.one()
        for i in range(n):
            m._set(i, i, one)
        return m

    def copy(self) -> "ExactMatrix":
        if self.sparse:
            return ExactMatrix(self.ring, self.rows, self.cols, _storage=dict(self._data))
        return ExactMatrix(self.ring, self.rows, self.cols,
                           _storage=[row[:] for row in self._data])

    # -- element access --------------------------------------------------------

    def get(self, i: int, j: int):
        if self.sparse:
            return self._data.get((i, j), self.ring.zero())
        return self._data[i][j]

    def set_entry(self, i, j, v):
        if self.sparse:
            if v == 0:
                self._data.pop((i, j), None)
            else:
                self._data[(i, j)] = v
        else:
            self._data[i][j] = v

    _set = set_entry

    def nonzero_items(self):
        if self.sparse:
            yield from self._data.items()
        else:
            for i, row in enumerate(self._data):
                for j, v in enumerate(row):
                    if v != 0:
                        yield (i, j), v

    def row_list(self, i: int) -> list:
        return [self.get(i, j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.nonzero_items())

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.ring, self.rows, self.cols) != (other.ring, other.rows, other.cols):
            return False
        return dict(self.nonzero_items()) == dict(other.nonzero_items())

    def __repr__(self):
        return "ExactMatrix(%s, %dx%d)" % (self.ring.name, self.rows, self.cols)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        out = self.copy()
        for (i, j), v in other.nonzero_items():
            out._set(i, j, self.ring.add(out.get(i, j), v))
        return out

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        out = self.copy()
        for (i, j), v in other.nonzero_items():
            out._set(i, j, self.ring.sub(out.get(i, j), v))
        return out

    def __neg__(self) -> "ExactMatrix":
        out = ExactMatrix(self.ring, self.rows, self.cols)
        for (i, j), v in self.nonzero_items():
            out._set(i, j, self.ring.neg(v))
        return out

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.coerce(c)
        out = ExactMatrix(self.ring, self.rows, self.cols)
        for (i, j), v in self.nonzero_items():
            out._set(i, j, self.ring.mul(c, v))
        return out

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise ExactLinalgError("ring mismatch")
        if self.cols != other.rows:
            raise ExactLinalgError("dimension mismatch in product")
        out = ExactMatrix(self.ring, self.rows, other.cols)
        ring = self.ring
        by_row = {}
        for (k, j), v in other.nonzero_items():
            by_row.setdefault(k, []).append((j, v))
        for (i, k), a in self.nonzero_items():
            for j, b in by_row.get(k, ()):
                out._set(i, j, ring.add(out.get(i, j), ring.mul(a, b)))
        return out

    def transpose(self) -> "ExactMatrix":
        out = ExactMatrix(self.ring, self.cols, self.rows)
        for (i, j), v in self.nonzero_items():
            out._set(j, i, v)
        return out

    def change_ring(self, ring: Ring) -> "ExactMatrix":
        out = ExactMatrix(ring, self.rows, self.cols)
        for (i, j), v in self.nonzero_items():
            out._set(i, j, ring.coerce(v))
        return out

    def _require_same_shape(self, other):
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ExactLinalgError("shape or ring mismatch")

    # -- text format -------------------------------------------------------------
    #
    # First line "rows cols ring", then row-major entries, whitespace
    # separated, as decimal integers or "a/b" rationals.

    def to_text(self) -> str:
        head = "%d %d %s" % (self.rows, self.cols, self.ring.name)
        lines = [head]
        for i in range(self.rows):
            lines.append(" ".join(str(v) for v in self.row_list(i)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ExactMatrix":
        tokens = text.split()
        if len(tokens) < 3:
            raise ExactLinalgError("matrix text too short")
        rows, cols = int(tokens[0]), int(tokens[1])
        ring = Ring.parse(tokens[2])
        body = tokens[3:]
        if len(body) != rows * cols:
            raise ExactLinalgError("expected %d entries, got %d" % (rows * cols, len(body)))
        entries = [[body[i * cols + j] for j in range(cols)] for i in range(rows)]
        return ExactMatrix(ring, rows, cols, entries)


# -- Smith normal form ------------------------------------------------------------


def smith_normal_form(m: ExactMatrix):
    """Return (U, D, V) with U*m*V = D, U and V unimodular over Z.

    The diagonal of D is nonnegative and forms a divisibility chain
    d1 | d2 | ... .  Pivots are chosen with minimal absolute value,
    scanned row-major, which makes the output deterministic.

    >>> m = ExactMatrix.from_rows(Ring.Z(), [[2, 4], [6, 8]])
    >>> U, D, V = smith_normal_form(m)
    >>> [D.get(i, i) for i in range(2)]
    [2, 4]
    """
    if m.ring.kind != "Z":
        raise ExactLinalgError("Smith normal form requires the ring Z")
    a = m.copy()
    U = ExactMatrix.identity(m.ring, m.rows)
    V = ExactMatrix.identity(m.ring, m.cols)

    def swap_rows(mat, i, k):
        for j in range(mat.cols):
            vi, vk = mat.get(i, j), mat.get(k, j)
            mat._set(i, j, vk)
            mat._set(k, j, vi)

    def swap_cols(mat, j, k):
        for i in range(mat.rows):
            vj, vk = mat.get(i, j), mat.get(i, k)
            mat._set(i, j, vk)
            mat._set(i, k, vj)

    def add_row(mat, dst, src, c):
        # row_dst += c * row_src
        for j in range(mat.cols):
            v = mat.get(src, j)
            if v != 0:
                mat._set(dst, j, mat.get(dst, j) + c * v)

    def add_col(mat, dst, src, c):
        for i in range(mat.rows):
            v = mat.get(i, src)
            if v != 0:
                mat._set(i, dst, mat.get(i, dst) + c * v)

    n = min(a.rows, a.cols)
    t = 0
    while t < n:
        pivot = None
        best = None
        for (i, j), v in sorted(a.nonzero_items()):
            if i < t or j < t:
                continue
            if best is None or abs(v) < best:
                best = abs(v)
                pivot = (i, j)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != t:
                swap_rows(a, t, pi)
                swap_rows(U, t, pi)
            if pj != t:
                swap_cols(a, t, pj)
                swap_cols(V, t, pj)
            p = a.get(t, t)
            dirty = False
            for i in range(t + 1, a.rows):
                v = a.get(i, t)
                if v != 0:
                    q = v // p
                    add_row(a, i, t, -q)
                    add_row(U, i, t, -q)
                    if a.get(i, t) != 0:
                        dirty = True
            for j in range(t + 1, a.cols):
                v = a.get(t, j)
                if v != 0:
                    q = v // p
                    add_col(a, j, t, -q)
                    add_col(V, j, t, -q)
                    if a.get(t, j) != 0:
                        dirty = True
            if not dirty:
                break
            pivot = (t, t)
            best = abs(a.get(t, t))
            for (i, j), v in sorted(a.nonzero_items()):
                if i < t or j < t:
                    continue
                if abs(v) < best:
                    best = abs(v)
                    pivot = (i, j)
        if a.get(t, t) < 0:
            add_row(a, t, t, -2)  # negate row t: r_t += -2*r_t
            add_row(U, t, t, -2)
        t += 1

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            di, dj = a.get(i, i), a.get(i + 1, i + 1)
            if di != 0 and dj % di != 0:
                # fold d_{i+1} into position (i, i) and rediagonalize 2x2 block
                add_col(a, i, i + 1, 1)
                add_col(V, i, i + 1, 1)
                _rediagonalize_pair(a, U, V, i, add_row, add_col, swap_rows, swap_cols)
                changed = True
    return U, a, V


def _rediagonalize_pair(a, U, V, t, add_row, add_col, swap_rows, swap_cols):
    # Clears the 2x2 block at (t, t) after a chain-fixing column add; the
    # block is [[d_t, 0], [d_{t+1}, d_{t+1}]] before the call.
    while True:
        x, y = a.get(t, t), a.get(t + 1, t)
        if y == 0:
            break
        if x != 0 and abs(x) <= abs(y):
            q = y // x
            add_row(a, t + 1, t, -q)
            add_row(U, t + 1, t, -q)
        else:
            swap_rows(a, t, t + 1)
            swap_rows(U, t, t + 1)
    x, y = a.get(t, t), a.get(t, t + 1)
    while y != 0:
        if x != 0 and abs(x) <= abs(y):
            q = y // x
            add_col(a, t + 1, t, -q)
            add_col(V, t + 1, t, -q)
        else:
            swap_cols(a, t, t + 1)
            swap_cols(V, t, t + 1)
        x, y = a.get(t, t), a.get(t, t + 1)
    for i in (t, t + 1):
        if a.get(i, i) < 0:
            add_row(a, i, i, -2)
            add_row(U, i, i, -2)


def invariant_factors(m: ExactMatrix) -> list:
    """Nonzero diagonal of the Smith form, as a divisibility chain."""
    _, d, _ = smith_normal_form(m)
    out = []
    for i in range(min(d.rows, d.cols)):
        v = d.get(i, i)
        if v != 0:
            out.append(v)
    return out


def det(m: ExactMatrix):
    """Exact determinant via Gaussian elimination over Fraction."""
    if m.rows != m.cols:
        raise ExactLinalgError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return m.ring.one()
    work = [[Fraction(v) for v in m.row_list(i)] for i in range(n)]
    sign = 1
    for k in range(n):
        piv = None
        for i in range(k, n):
            if work[i][k] != 0:
                piv = i
                break
        if piv is None:
            return m.ring.coerce(0)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= work[k][k]
    return m.ring.coerce(out)


# -- solving and kernels ------------------------------------------------------------


def rref(m: ExactMatrix):
    """Reduced row echelon form over a field; returns (R, pivot columns)."""
    if not m.ring.is_field:
        raise ExactLinalgError("rref needs field coefficients")
    ring = m.ring
    a = m.copy()
    pivots = []
    r = 0
    for c in range(a.cols):
        piv = None
        for i in range(r, a.rows):
            if a.get(i, c) != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            for j in range(a.cols):
                vi, vk = a.get(r, j), a.get(piv, j)
                a._set(r, j, vk)
                a._set(piv, j, vi)
        inv = ring.inv(a.get(r, c))
        for j in range(c, a.cols):
            a._set(r, j, ring.mul(inv, a.get(r, j)))
        for i in range(a.rows):
            if i != r and a.get(i, c) != 0:
                f = a.get(i, c)
                for j in range(c, a.cols):
                    a._set(i, j, ring.sub(a.get(i, j), ring.mul(f, a.get(r, j))))
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return a, pivots


def rank(m: ExactMatrix) -> int:
    if m.ring.is_field:
        return len(rref(m)[1])
    return len(invariant_factors(m))


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of ker(m) acting on column vectors, as lists of scalars.

    Over Z this is a basis of the kernel lattice (the kernel of an integer
    matrix is a saturated sublattice, so integer combinations of the basis
    are exactly the integer kernel vectors).
    """
    if m.ring.is_field:
        return _rref_kernel(m.ring, m.cols, *rref(m))
    _, d, v = smith_normal_form(m)
    return _snf_kernel(d, v)


def _rref_kernel(ring: Ring, cols: int, r: ExactMatrix, pivots: list) -> list:
    # One vector per free column among the first ``cols`` columns of r.
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [ring.zero()] * cols
        vec[fc] = ring.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = ring.neg(r.get(ri, fc))
        basis.append(vec)
    return basis


def _snf_kernel(d: ExactMatrix, v: ExactMatrix) -> list:
    # The columns of V at the zero (or missing) diagonal entries of D.
    n = min(d.rows, d.cols)
    return [[v.get(i, j) for i in range(v.rows)]
            for j in range(d.cols) if j >= n or d.get(j, j) == 0]


def solve_linear(a: ExactMatrix, b):
    """Solve a * x = b exactly; return (particular, kernel basis) or None.

    ``b`` is a list of scalars or a one-column ExactMatrix.  Over Z the
    solve is in integers via the Smith form and None means there is no
    integer solution.  The kernel basis is the one :func:`kernel_basis`
    returns, read off the same factorization.
    """
    if isinstance(b, ExactMatrix):
        if b.cols != 1:
            raise ExactLinalgError("right-hand side must be a column")
        b = [b.get(i, 0) for i in range(b.rows)]
    b = [a.ring.coerce(x) for x in b]
    if len(b) != a.rows:
        raise ExactLinalgError("dimension mismatch: %d rows vs %d entries" % (a.rows, len(b)))
    ring = a.ring
    if ring.is_field:
        aug = ExactMatrix(ring, a.rows, a.cols + 1)
        for (i, j), v in a.nonzero_items():
            aug._set(i, j, v)
        for i, v in enumerate(b):
            aug._set(i, a.cols, v)
        r, pivots = rref(aug)
        if a.cols in pivots:
            return None
        x = [ring.zero()] * a.cols
        for ri, pc in enumerate(pivots):
            x[pc] = r.get(ri, a.cols)
        # The first a.cols columns of rref([a | b]) are rref(a).
        return x, _rref_kernel(ring, a.cols, r, pivots)
    u, d, v = smith_normal_form(a)
    ub = [sum(u.get(i, k) * b[k] for k in range(a.rows)) for i in range(a.rows)]
    y = [0] * a.cols
    n = min(d.rows, d.cols)
    for i in range(a.rows):
        di = d.get(i, i) if i < n else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            q, rem = divmod(ub[i], di)
            if rem != 0:
                return None
            y[i] = q
    x = [sum(v.get(i, k) * y[k] for k in range(a.cols)) for i in range(a.cols)]
    return x, _snf_kernel(d, v)


# -- cohomology of complexes -----------------------------------------------------------


class CohomologyReport:
    """Per-degree free rank and torsion invariant factors.

    Degrees with zero rank and no torsion are dropped, so two reports are
    equal exactly when the nonzero cohomology agrees degreewise.
    """

    def __init__(self, ring: Ring, entries=None):
        self.ring = ring
        self.entries = {}
        for deg, rk, torsion in entries or ():
            self.set(deg, rk, torsion)

    def set(self, deg: int, rk: int, torsion=()):
        torsion = tuple(int(t) for t in torsion)
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ExactLinalgError("torsion %r is not a divisibility chain" % (torsion,))
        if self.ring.is_field and torsion:
            raise ExactLinalgError("torsion over a field")
        if rk or torsion:
            self.entries[deg] = (rk, torsion)

    def rank(self, deg: int) -> int:
        return self.entries.get(deg, (0, ()))[0]

    def torsion(self, deg: int) -> tuple:
        return self.entries.get(deg, (0, ()))[1]

    def degrees(self):
        return sorted(self.entries)

    def __eq__(self, other):
        return isinstance(other, CohomologyReport) and self.entries == other.entries

    def __repr__(self):
        bits = []
        for deg in self.degrees():
            rk, tor = self.entries[deg]
            s = []
            if rk:
                s.append("%s^%d" % (self.ring.name, rk))
            s += ["%s/%d" % (self.ring.name, t) for t in tor]
            bits.append("H^%d=%s" % (deg, " + ".join(s)))
        return "CohomologyReport(%s)" % ("; ".join(bits) or "0")

    def to_json(self):
        return {str(d): {"rank": self.entries[d][0], "torsion": list(self.entries[d][1])}
                for d in self.degrees()}


class ChainComplexSpec:
    """A finite complex ... -> C^d -> C^{d+1} -> ... given by matrices.

    ``dims`` maps degree -> dimension and ``maps`` maps degree d to the
    matrix of C^d -> C^{d+1} acting on column vectors.
    """

    def __init__(self, ring: Ring, dims: dict, maps: dict):
        self.ring = ring
        self.dims = dict(dims)
        self.maps = dict(maps)
        for d, m in self.maps.items():
            if m.rows != self.dims.get(d + 1, 0) or m.cols != self.dims.get(d, 0):
                raise ExactLinalgError("matrix at degree %d has shape %dx%d, expected %dx%d"
                                       % (d, m.rows, m.cols,
                                          self.dims.get(d + 1, 0), self.dims.get(d, 0)))

    def d(self, deg: int) -> ExactMatrix:
        m = self.maps.get(deg)
        if m is None:
            return ExactMatrix.zeros(self.ring, self.dims.get(deg + 1, 0), self.dims.get(deg, 0))
        return m

    def check_square_zero(self):
        for deg in sorted(self.dims):
            prod = self.d(deg + 1) * self.d(deg)
            for (i, j), v in prod.nonzero_items():
                raise ExactLinalgError(
                    "d^2 != 0 at degree %d: entry (%d, %d) = %s" % (deg, i, j, v))


def cohomology(complex_spec: ChainComplexSpec) -> CohomologyReport:
    """Cohomology of a finite complex, with torsion over Z.

    d^2 = 0 is verified first, which also gives im d_{k-1} in ker d_k; a
    violation reports the offending degree and entry.  Then each d_k is
    factored once (invariant factors over Z, rank over a field) and H^k is
    read off as in the module docstring: rank dim C^k - rk d_k - rk d_{k-1},
    torsion the non-unit invariant factors of d_{k-1}.  Over a field only
    ranks are produced.
    """
    complex_spec.check_square_zero()
    ring = complex_spec.ring
    factored = {}

    def factor(deg):
        # (rank, non-unit invariant factors) of d_deg, computed once
        if deg not in factored:
            m = complex_spec.d(deg)
            if ring.is_field:
                factored[deg] = (rank(m), [])
            else:
                facs = invariant_factors(m)
                factored[deg] = (len(facs), [f for f in facs if f != 1])
        return factored[deg]

    report = CohomologyReport(ring)
    for deg in sorted(complex_spec.dims):
        dim = complex_spec.dims[deg]
        if dim == 0:
            continue
        rk_in, torsion = factor(deg - 1)
        report.set(deg, dim - factor(deg)[0] - rk_in, torsion)
    return report
