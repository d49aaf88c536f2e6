"""Exact linear algebra over Z, Q and prime fields, on row-sparse matrices.

Everything here is exact: integers are arbitrary precision, prime-field
elements are reduced representatives in ``range(p)``, and a rational is
stored canonically, as an ``int`` when it is integral and as a
`fractions.Fraction` with denominator > 1 otherwise, so the integer
structure constants that dominate in practice cost int arithmetic.  No
floating point enters this module; the torsion of an integer cochain
complex computed here is used as the oracle for every torsion claim
elsewhere in the package.

The main entry points are

* :func:`smith_normal_form` -- U * m * V = D with U, V unimodular and the
  diagonal forming a divisibility chain,
* :func:`solve_many` -- a solution of a * x = b or None for several b, and
  a basis of the kernel (over Z the solve is in integers), and
* :func:`cohomology` -- per-degree free rank and invariant factors of a
  finite complex, with torsion when the coefficients are Z.

Cohomology is read off the differentials, each factored once: H^k has free
rank dim C^k - rk d_k - rk d_{k-1}, and as C^k / ker d_k embeds in the free
C^{k+1}, its torsion is that of coker d_{k-1}: the non-unit invariant
factors of d_{k-1}.  :func:`invariant_factors` contracts the unit pivots
(+-1 over Z, any nonzero entry over F_p) and runs the Smith form only on
the non-unit core left over Z, usually empty; a rank over Q is counted in
integers.  One elimination, :func:`_echelon`, answers every field solve,
every :func:`rref`, every Q rank and every Z solve whose columns are
independent; the Smith form handles the dependent Z systems, whose V gives
the kernel, and the non-unit core of a Z matrix.

The package builds every matrix of a labelled linear map one way: from its
sparse columns, ``{row label: scalar}`` dicts, by
:meth:`ExactMatrix.from_columns`; :func:`solve_columns` solves such a system
and :func:`solve_equations` one whose rows are equation keys ordered by
``str``, both with answers keyed by label, and no caller builds a system
by rows.  No module outside this one mutates a matrix after it is built.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm


class InputError(ValueError):
    """Invalid input: a file, a schema or a precondition (CLI exit code 1).
    Every module's own error class derives from it."""


class ExactLinalgError(InputError):
    """Raised when a precondition of an exact-linalg operation fails."""


class Ring:
    """Coefficient ring descriptor: Z, Q or F_p (p prime).  Immutable, equal
    and hashed by (kind, p); a plain class, as ``dataclasses`` would load
    ``inspect`` into every process.

    >>> Ring.Z().name, Ring.Q().name, Ring.GF(7).name
    ('Z', 'Q', 'F7')
    """

    __slots__ = ("kind", "p", "_signs")

    def __init__(self, kind: str, p: int = 0):  # kind: "Z" | "Q" | "Fp"
        if kind not in ("Z", "Q", "Fp"):
            raise ExactLinalgError("unknown ring kind %r" % (kind,))
        if kind == "Fp":
            if p < 2 or not _is_prime(p):
                raise ExactLinalgError("F_p needs a prime p, got %r" % (p,))
        for name, value in (("kind", kind), ("p", p), ("_signs", (1, -1 % p if p else -1))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("a Ring is immutable: cannot set or delete %r" % (name,))

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Ring(kind=%r, p=%r)" % (self.kind, self.p)

    def __reduce__(self):
        return Ring, (self.kind, self.p)

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
        if not isinstance(token, str):
            raise ExactLinalgError("cannot parse ring token %.40r" % (token,))
        token = token.strip()
        if token == "Z":
            return Ring.Z()
        if token == "Q":
            return Ring.Q()
        if token.startswith("F"):
            digits = token[1:]
            try:  # ASCII digits alone, as _exact_scalar reads them
                p = int(digits) if digits.isascii() and digits.isdigit() else None
            except ValueError:  # more digits than int() parses
                p = None
            if p is None:
                raise ExactLinalgError("cannot parse ring token %.40r" % (token,))
            return Ring.GF(p)
        raise ExactLinalgError("cannot parse ring token %r" % (token,))

    @property
    def name(self) -> str:
        return self.kind if self.kind != "Fp" else "F%d" % self.p

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

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
            if type(x) is Fraction:
                if x.denominator != 1:
                    raise ExactLinalgError("%s is not an integer" % (x,))
                x = x.numerator
            return x
        if self.kind == "Q":
            return _canon(x)
        if type(x) is Fraction:
            den = x.denominator % self.p
            if den == 0:
                raise ExactLinalgError("denominator divisible by %d" % self.p)
            return (x.numerator * pow(den, -1, self.p)) % self.p
        return int(x) % self.p

    def sign(self, k: int):
        """(-1)^k in this ring, for any integer k (negative ones included)."""
        return self._signs[k % 2]

    def _norm(self, c):
        # a sum or product of ring elements, back in canonical form; an int,
        # as every value over Z is, needs no call
        if self.p:
            return c % self.p
        return c if type(c) is int else _canon(c)

    def add(self, a, b):
        return self._norm(a + b)

    def sub(self, a, b):
        return self._norm(a - b)

    def mul(self, a, b):
        return self._norm(a * b)

    def axpy(self, y: dict, c, x: dict) -> dict:
        """y += c * x on sparse {key: scalar} dicts, in place; returns y.

        Every sparse linear combination in the package is built by this
        method.  A key whose sum is zero is removed, so zeros are never
        stored, and a cancelled key that comes back is appended at the end.

        >>> Ring.GF(5).axpy({"a": 1, "b": 2}, 3, {"a": 3, "c": 2})
        {'b': 2, 'c': 1}
        """
        p, q = self.p, self.kind == "Q"
        scaled = type(c) is not int or c != 1  # 1 * v is a product for a Fraction v
        for k, v in x.items():
            s = y.get(k, 0) + (c * v if scaled else v)
            if p:
                s %= p
            elif q:  # over Z a sum of ints is canonical already
                s = _canon(s)
            if s:
                y[k] = s
            else:
                y.pop(k, None)
        return y

    def neg(self, a):
        return self._norm(-a)

    def inv(self, a):
        """Multiplicative inverse; over Z only +-1 are invertible."""
        if self.kind == "Q":
            if a == 0:
                raise ExactLinalgError("division by zero")
            return _canon(1 / Fraction(a))  # int / int would be a float
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


def _canon(x):
    """A rational in canonical form: the int itself when it is integral."""
    return x._numerator if type(x) is Fraction and x._denominator == 1 else x


def _exact_scalar(x):
    """x as an int or a Fraction; floats, bools and non-numbers are refused.

    A string must be ASCII ``-?digits`` or ``-?digits/digits``, as
    ``str(Fraction)`` writes them: no sign "+", no spaces, no "_", no
    decimal point or exponent and no non-ASCII digits.
    """
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        try:
            # int refuses more than sys.get_int_max_str_digits() digits
            if x.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return int(num)
                if den.isdigit():
                    return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            pass
        raise ExactLinalgError("not an exact scalar: %.40r" % (x,))
    if isinstance(x, bool) or not isinstance(x, numbers.Rational):
        raise ExactLinalgError("not an exact scalar: %.40r of type %s"
                               % (x, type(x).__name__))
    n, d = int(x.numerator), int(x.denominator)
    return n if d == 1 else Fraction(n, d)


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
    """An exact matrix over a :class:`Ring`, stored row-sparse.

    Row i is a dict ``{column: value}`` of the nonzero entries of that row;
    zeros are never stored, whatever the shape.  :meth:`nonzero_items`
    yields the entries row-major with ascending columns.  Instances are
    treated as immutable by every public operation.

    The package builds its matrices from sparse labelled columns with
    :meth:`from_columns` (a matrix built by rows is the transpose of one
    built from those rows as columns); the dense constructor and
    :meth:`from_rows` serve the dense JSON format and the tests, and no
    module outside this one mutates a matrix.
    """

    def __init__(self, ring: Ring, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ExactLinalgError("negative dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._data = [{} for _ in range(rows)]
            return
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ExactLinalgError("entry shape does not match dimensions")
        self._data = [{j: v for j, v in enumerate(map(ring.coerce, row)) if v != 0}
                      for row in entries]

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _of_rows(ring: Ring, cols: int, data: list) -> "ExactMatrix":
        # Wraps a list of row dicts, without copying; no zeros may be stored.
        m = ExactMatrix(ring, 0, cols)
        m.rows, m._data = len(data), data
        return m

    @staticmethod
    def from_rows(ring: Ring, entries) -> "ExactMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return ExactMatrix(ring, rows, cols, entries)

    @staticmethod
    def from_columns(ring: Ring, columns, dst) -> "ExactMatrix":
        """The matrix whose column j is ``columns[j]``, a dict {row label: scalar}.

        Rows follow the order of the distinct labels ``dst``; the scalars
        must be in the ring already, zeros are not stored and a label outside
        ``dst`` raises, whatever its scalar.

        >>> ExactMatrix.from_columns(Ring.Z(), [{"b": 2}, {}, {"a": 1, "b": 0}],
        ...                          ["a", "b"]).row_list(1)
        [2, 0, 0]
        """
        index = {l: i for i, l in enumerate(dst)}
        data = [{} for _ in index]
        try:
            for j, col in enumerate(columns):
                for l, v in col.items():
                    i = index[l]
                    if v:
                        data[i][j] = v
        except KeyError as exc:
            raise ExactLinalgError("column %d has a term off the rows: %r"
                                   % (j, exc.args[0])) from None
        return ExactMatrix._of_rows(ring, len(columns), data)

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(ring, rows, cols)

    @staticmethod
    def identity(ring: Ring, n: int) -> "ExactMatrix":
        one = ring.one()
        return ExactMatrix._of_rows(ring, n, [{i: one} for i in range(n)])

    def copy(self) -> "ExactMatrix":
        return ExactMatrix._of_rows(self.ring, self.cols, [dict(r) for r in self._data])

    # -- element access --------------------------------------------------------

    def get(self, i: int, j: int):
        return self._data[i].get(j, self.ring.zero())

    def nonzero_items(self):
        for i, row in enumerate(self._data):
            for j in sorted(row):
                yield (i, j), row[j]

    def row_list(self, i: int) -> list:
        row, zero = self._data[i], self.ring.zero()
        return [row.get(j, zero) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(self._data)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.ring, self.rows, self.cols) != (other.ring, other.rows, other.cols):
            return False
        return self._data == other._data

    def __repr__(self):
        return "ExactMatrix(%s, %dx%d)" % (self.ring.name, self.rows, self.cols)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def _combine(self, other, c):
        # self + c * other
        self._require_same_shape(other)
        out = self.copy()
        for row, orow in zip(out._data, other._data):
            self.ring.axpy(row, c, orow)
        return out

    def __neg__(self) -> "ExactMatrix":
        return self._map(self.ring, self.ring.neg)

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.coerce(c)
        return self._map(self.ring, lambda v: self.ring.mul(c, v))

    def change_ring(self, ring: Ring) -> "ExactMatrix":
        return self._map(ring, ring.coerce)

    def _map(self, ring, f):
        # f applied to each nonzero entry; the zeros it makes are dropped
        return ExactMatrix._of_rows(ring, self.cols, [
            {j: x for j, x in ((j, f(v)) for j, v in row.items()) if x != 0}
            for row in self._data])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring:
            raise ExactLinalgError("ring mismatch")
        if self.cols != other.rows:
            raise ExactLinalgError("dimension mismatch in product")
        data = []
        for row in self._data:
            acc = {}
            for k, a in row.items():
                self.ring.axpy(acc, a, other._data[k])
            data.append(acc)
        return ExactMatrix._of_rows(self.ring, other.cols, data)

    def transpose(self) -> "ExactMatrix":
        data = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, v in row.items():
                data[j][i] = v
        return ExactMatrix._of_rows(self.ring, self.rows, data)

    def _require_same_shape(self, other):
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ExactLinalgError("shape or ring mismatch")


# -- Smith normal form ------------------------------------------------------------
#
# The kernels work on lists of row dicts, as ExactMatrix stores them.  V is
# kept transposed, so that its column operations are row operations too.
# Row dst += c * row src is _Z.axpy(rows[dst], c, rows[src]).  The main loop
# diagonalizes, and one Bezout step per pair out of the divisibility chain
# takes diag(a, b) to diag(gcd, lcm) (Newman 1972; Cohen 1993, 2.4).

_Z = Ring.Z()


def _add_col(rows, dst, src, c):
    # column dst += c * column src
    for r in rows:
        x = r.get(src)
        if x:
            y = r.get(dst, 0) + c * x
            if y:
                r[dst] = y
            else:
                r.pop(dst, None)


def _swap_rows(rows, i, k):
    rows[i], rows[k] = rows[k], rows[i]


def _swap_cols(rows, j, k):
    for r in rows:
        x, y = r.pop(j, None), r.pop(k, None)
        if y is not None:
            r[j] = y
        if x is not None:
            r[k] = x


def _negate_row(rows, i):
    rows[i] = {j: -x for j, x in rows[i].items()}


def _least_entry(a, t):
    # The first entry of least |v| in row-major order at or past (t, t).
    best = None
    for i in range(t, len(a)):
        row = [(abs(x), j) for j, x in a[i].items() if j >= t]
        if row:
            x, j = min(row)
            if best is None or x < best[0]:
                best = (x, i, j)
                if x == 1:
                    break
    return None if best is None else best[1:]


def smith_normal_form(m: ExactMatrix):
    """Return (U, D, V) with U*m*V = D, U and V unimodular over Z.

    The diagonal of D is nonnegative and forms a divisibility chain
    d1 | d2 | ... , zeros last.  Pivots are chosen with minimal absolute
    value, scanned row-major, which makes the output deterministic.  The
    chain comes from one 2x2 Bezout step per pair out of it, which changes
    U and V only where it runs and keeps V's kernel columns and V D^+ U, so
    no solve or kernel read off them moves.

    >>> m = ExactMatrix.from_rows(Ring.Z(), [[2, 4], [6, 8]])
    >>> U, D, V = smith_normal_form(m)
    >>> [D.get(i, i) for i in range(2)]
    [2, 4]
    """
    if m.ring.kind != "Z":
        raise ExactLinalgError("Smith normal form requires the ring Z")
    a = m.copy()._data
    u = ExactMatrix.identity(m.ring, m.rows)._data
    vt = ExactMatrix.identity(m.ring, m.cols)._data

    n = min(m.rows, m.cols)
    t = 0
    while t < n:
        pivot = _least_entry(a, t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            if pi != t:
                _swap_rows(a, t, pi)
                _swap_rows(u, t, pi)
            if pj != t:
                _swap_cols(a, t, pj)
                _swap_rows(vt, t, pj)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m.rows):
                if t in a[i]:
                    q = a[i][t] // p
                    _Z.axpy(a[i], -q, a[t])
                    _Z.axpy(u[i], -q, u[t])
                    dirty = dirty or t in a[i]
            for j in sorted(j for j in a[t] if j > t):
                q = a[t][j] // p
                _add_col(a, j, t, -q)
                _Z.axpy(vt[j], -q, vt[t])
                dirty = dirty or j in a[t]
            if not dirty:
                break
            pivot = _least_entry(a, t)
        if a[t][t] < 0:
            _negate_row(a, t)
            _negate_row(u, t)
        t += 1

    # A pair i < j of the positive diagonal out of the chain: with g = gcd =
    # s d_i + r d_j, P = [[s, r], [-d_j/g, d_i/g]] on rows and Q = [[1,
    # -r d_j/g], [1, s d_i/g]] on columns give P diag(d_i, d_j) Q =
    # diag(g, d_i d_j/g).  Once row i has met every j > i, d_i divides them.
    for i in range(t):
        for j in range(i + 1, t):
            di, dj = a[i][i], a[j][j]
            if dj % di:
                g = gcd(di, dj)
                s = pow(di // g, -1, dj // g)
                r = (g - s * di) // dj
                u[i], u[j] = (_Z.axpy(_Z.axpy({}, s, u[i]), r, u[j]),
                              _Z.axpy(_Z.axpy({}, -dj // g, u[i]), di // g, u[j]))
                vt[i], vt[j] = (_Z.axpy(dict(vt[i]), 1, vt[j]),
                                _Z.axpy(_Z.axpy({}, -r * dj // g, vt[i]), s * di // g, vt[j]))
                a[i][i], a[j][j] = g, di * dj // g
    z = m.ring
    return (ExactMatrix._of_rows(z, m.rows, u), ExactMatrix._of_rows(z, m.cols, a),
            ExactMatrix._of_rows(z, m.cols, vt).transpose())


def invariant_factors(m: ExactMatrix) -> list:
    """Nonzero diagonal of the Smith form, as a divisibility chain.

    Over Q the rows are cleared of denominators and the result is
    [1] * rank, the pivots of one :func:`_echelon` in integers.  Otherwise
    every unit pivot is contracted first (Kaczynski-Mrozek-Slusarek 1998,
    Dumas-Saunders-Villard 2001): with a unit at (i, j), m is equivalent to
    diag(1, S) for the Schur complement S, which is m without row i and
    column j after row i has cleared column j from the other rows.  A
    column -> rows index makes that visit only the rows holding column j.
    Each contraction is one factor 1.  Over Z the units are +-1 and the
    core left over, usually empty, goes through :func:`smith_normal_form`;
    over F_p any nonzero entry is a unit and the result is [1] * rank.
    The invariant factors are canonical, so the pivot order cannot change
    the result.
    """
    ring = m.ring
    if ring.kind == "Q":
        rows = _integral(ring, [dict(r) for r in m._data if r])
        return [1] * len(_echelon(rows, m.cols, False, 0))
    # An F_p rank stays on this contraction rather than _echelon: it picks
    # the unit whose column the fewest rows hold, so it fills in less; the
    # ranks of C*(S^1_8 x S^1_8 x S^1_8) over F5 take 0.18 s this way and
    # 0.27 s through _echelon (2-core VM, Python 3.11).
    mod = ring.p
    rows = [dict(r) for r in m._data if r]
    cols = {}  # column -> the live rows holding it
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    units = 0
    # Rows that may hold a unit, first to last; a row that an elimination
    # changed is appended again, and the loop reaches it (first in, first
    # out keeps the fill far below that of last in, first out).
    todo = list(range(len(rows)))
    for i in todo:
        row = rows[i]  # emptied once contracted
        # the unit whose column is held by the fewest rows
        best = min(((len(cols[j]), j) for j, v in row.items()
                    if mod or v == 1 or v == -1), default=None)
        if best is None:
            continue
        j = best[1]
        inv = row.pop(j)
        if mod:  # over Z a unit is its own inverse
            inv = pow(inv, -1, mod)
        held = cols.pop(j)
        held.discard(i)
        for k in held:
            rk = rows[k]
            f = rk.pop(j) * inv  # row k -= f * row i clears column j
            for c, v in row.items():
                x = rk.get(c, 0) - f * v
                if mod:  # over Z an int is canonical
                    x %= mod
                if x:
                    if c not in rk:
                        cols[c].add(k)
                    rk[c] = x
                else:
                    del rk[c]
                    cols[c].discard(k)
            todo.append(k)
        for c in row:
            cols[c].discard(i)
        row.clear()
        units += 1
    core = [r for r in rows if r]
    if not core:
        return [1] * units
    index = {j: n for n, j in enumerate(sorted({j for r in core for j in r}))}
    core = [{index[j]: v for j, v in r.items()} for r in core]
    _, d, _ = smith_normal_form(ExactMatrix._of_rows(ring, len(index), core))
    return [1] * units + [v for i in range(min(d.rows, d.cols)) if (v := d.get(i, i))]


def _echelon(rows, n, full, p):
    """Gaussian elimination of integer row dicts, in place, mod p if p.

    For each column c < n, a pivot of least |entry|, then of the shortest
    row, is taken from the live rows holding c (a column -> rows index), so
    it is +-1 whenever one exists.  Each other such row becomes
    a * row - b * pivot row (a, b coprime, a > 0) divided by the gcd of its
    entries, which bounds them by minors of the input (Bareiss 1968); over
    F_p the pivot row is scaled to 1 instead, so a = 1, and nothing is
    divided.  Columns >= n ride along.  Returns {pivot column: pivot row}
    in column order, each row starting at its column and emptied in
    ``rows``, or, with ``full``, None as soon as a column has no pivot.
    """
    cols = {}
    for i, r in enumerate(rows):
        for j in r:
            cols.setdefault(j, set()).add(i)
    pivots = {}
    for c in range(n):
        held = cols.pop(c, None)
        if not held:
            if full:
                return None
            continue
        i = min(held, key=lambda k: (abs(rows[k][c]), len(rows[k]), k))
        held.discard(i)
        prow, rows[i] = rows[i], {}
        piv = prow.pop(c)
        for j in prow:
            cols[j].discard(i)
        if p and piv != 1:
            inv = pow(piv, -1, p)
            for j in prow:
                prow[j] = prow[j] * inv % p
            piv = 1
        for k in held:
            rk = rows[k]
            f = rk.pop(c)
            g = gcd(piv, f)
            a, b = (piv // g, f // g) if piv > 0 else (-piv // g, -f // g)
            if a != 1:
                for j in rk:
                    rk[j] *= a
            for j, v in prow.items():
                x = rk.get(j, 0) - b * v
                if p:
                    x %= p
                if x:
                    if j not in rk:
                        cols[j].add(k)
                    rk[j] = x
                else:
                    del rk[j]
                    cols[j].discard(k)
            if not p and (g := gcd(*rk.values())) > 1:
                for j in rk:
                    rk[j] //= g
        prow[c] = piv
        pivots[c] = prow
    return pivots


def _integral(ring, rows):
    # over Q each row dict times the lcm of its denominators, in place:
    # integer rows with the same row space, and as a system the same solutions
    for r in rows if ring.kind == "Q" else ():
        d = lcm(*(v.denominator for v in r.values()))
        if d > 1:
            for j, v in r.items():
                r[j] = v.numerator * (d // v.denominator)
    return rows


# -- solving and kernels ------------------------------------------------------------


def rref(m: ExactMatrix):
    """Reduced row echelon form over a field; returns (R, pivot columns).

    One :func:`_echelon` of the rows, then, last pivot first, each pivot row
    scaled to a leading 1 and cleared of the later pivot columns; R is
    unique, whichever pivot rows the elimination picked.
    """
    if not m.ring.is_field:
        raise ExactLinalgError("rref needs field coefficients")
    ring = m.ring
    pivots = _echelon(_integral(ring, [dict(r) for r in m._data]), m.cols, False, ring.p)
    for c in reversed(pivots):
        prow = pivots[c]
        if prow[c] != 1:  # only over Q: an F_p pivot row leads with 1
            inv = ring.inv(prow[c])
            prow = pivots[c] = {j: ring.mul(inv, v) for j, v in prow.items()}
        for j in [j for j in prow if j != c and j in pivots]:
            ring.axpy(prow, ring.neg(prow[j]), pivots[j])
    data = list(pivots.values()) + [{} for _ in range(m.rows - len(pivots))]
    return ExactMatrix._of_rows(ring, m.cols, data), list(pivots)


def rank(m: ExactMatrix) -> int:
    return len(invariant_factors(m))


def is_invertible(m: ExactMatrix) -> bool:
    """Whether a square m has an inverse over its ring: all n factors are 1."""
    return m.rows == m.cols and invariant_factors(m) == [1] * m.rows


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of ker(m) acting on column vectors, as lists of scalars.

    Over Z this is a basis of the kernel lattice (the kernel of an integer
    matrix is a saturated sublattice, so integer combinations of the basis
    are exactly the integer kernel vectors).
    """
    return solve_many(m, [])[1]


def _snf_kernel(d: ExactMatrix, v: ExactMatrix) -> list:
    # The columns of V at the zero (or missing) diagonal entries of D.
    n = min(d.rows, d.cols)
    return [[v.get(i, j) for i in range(v.rows)]
            for j in range(d.cols) if j >= n or d.get(j, j) == 0]


def solve_linear(a: ExactMatrix, b: list):
    """Solve a * x = b exactly; return (particular, kernel basis) or None.

    Over Z the solve is in integers and None means there is no integer
    solution.  The kernel basis is the one
    :func:`kernel_basis` returns, read off the same factorization.
    """
    (x,), kernel = solve_many(a, [b])
    return None if x is None else (x, kernel)


def solve_many(a: ExactMatrix, bs):
    """Solve a * x = b for each list ``b`` in ``bs`` off one factorization of a.

    Returns (for each b the solution :func:`solve_linear` gives, or None;
    the kernel basis).  The factorization is one :func:`_echelon` of
    [a | b ...], where b lies in the span of a exactly when its column
    vanishes below the pivot rows of a.  Each b is back-substituted with the
    free variables at 0 and each kernel vector with one free variable at 1,
    which over a field reads them off the rref.  Over Z the elimination
    stops at the first column without a pivot; with none, a * x = b has at
    most one solution, even over Q, so exact division finds the integers
    any other method would, and a remainder means there are none.  Only
    dependent Z columns take the Smith form, whose V gives the kernel basis
    and the particular solution.
    """
    ring = a.ring
    bs = [[ring.coerce(x) for x in b] for b in bs]
    for b in bs:
        if len(b) != a.rows:
            raise ExactLinalgError("dimension mismatch: %d rows vs %d entries" % (a.rows, len(b)))
    rows = _integral(ring, [{**row, **{a.cols + j: b[i] for j, b in enumerate(bs) if b[i]}}
                            for i, row in enumerate(a._data)])
    pivots = _echelon(rows, a.cols, not ring.is_field, ring.p)
    if pivots is not None:
        left = set().union(*rows)  # the b columns left below the pivot rows
        return ([None if col in left else _back_substitute(ring, pivots, col, [0] * a.cols)
                 for col in range(a.cols, a.cols + len(bs))],
                [_back_substitute(ring, pivots, None, [int(j == fc) for j in range(a.cols)])
                 for fc in range(a.cols) if fc not in pivots])
    u, d, v = smith_normal_form(a)
    n = min(d.rows, d.cols)
    diag = [d.get(i, i) for i in range(n)] + [0] * (a.rows - n)
    sols = []
    for b in bs:
        # D y = U b: each entry of U b divisible by its diagonal entry, 0 if none
        ub = [sum(c * b[k] for k, c in row.items()) for row in u._data]
        y = [x // di if di else 0 for x, di in zip(ub, diag)] + [0] * (a.cols - n)
        sols.append(None if any(x % di if di else x for x, di in zip(ub, diag)) else
                    [sum(c * y[k] for k, c in row.items()) for row in v._data])
    return sols, _snf_kernel(d, v)


def _back_substitute(ring, pivots, col, x):
    # x, its free entries as given, with sum_j prow[j] * x[j] = prow[col]
    # for each pivot row prow, or None when a division over Z leaves a
    # remainder; an F_p pivot is 1
    n = len(x)
    for c in reversed(pivots):
        prow = pivots[c]
        s = prow.get(col, 0) - sum(v * x[j] for j, v in prow.items() if c != j < n)
        if ring.p:
            x[c] = s % ring.p
        elif ring.kind == "Q":
            x[c] = _canon(Fraction(s, prow[c]))
        else:
            x[c], rem = divmod(s, prow[c])
            if rem:
                return None
    return x


def solve_columns(ring: Ring, columns: dict, rows, bs=()):
    """Solve a system given by labelled columns, with labelled answers.

    ``columns`` maps each column label, in column order, to its column
    {row label: scalar}, ``rows`` orders the row labels and each b of
    ``bs`` is a {row label: scalar} dict; a label outside ``rows`` raises.
    One :func:`solve_many` of the :meth:`ExactMatrix.from_columns` matrix
    returns (for each b a solution {column label: c} or None; the kernel
    basis as {column label: c} dicts), in column order with zeros dropped.

    >>> solve_columns(Ring.Q(), {"u": {"x": 2}, "v": {"x": 1}}, ["x"], [{"x": 1}])
    ([{'u': Fraction(1, 2)}], [{'u': Fraction(-1, 2), 'v': 1}])
    """
    a = ExactMatrix.from_columns(ring, list(columns.values()), rows)
    b = ExactMatrix.from_columns(ring, bs, rows).transpose()  # row k is bs[k]
    sols, kernel = solve_many(a, [b.row_list(k) for k in range(b.rows)])

    def keyed(vec):
        return {l: c for l, c in zip(columns, vec) if c}

    return [None if x is None else keyed(x) for x in sols], [keyed(v) for v in kernel]


def solve_equations(ring: Ring, columns: dict, rhs: dict):
    """Solve equations keyed by label; return a particular solution or None.

    ``columns`` maps each unknown, in order, to its column {equation key:
    scalar} and ``rhs`` maps a key to its right-hand side, zero where
    missing.  The equations are every key a column or ``rhs`` holds,
    ordered by ``str``, which fixes the solution picked, over Z in
    particular; it comes as {unknown: c} in column order, zeros dropped.

    >>> solve_equations(Ring.Q(), {"u": {"x": 1, "y": 1}, "v": {"y": 2}}, {"y": 1})
    {'v': Fraction(1, 2)}
    """
    keys = sorted({k for col in columns.values() for k in col} | set(rhs), key=str)
    return solve_columns(ring, columns, keys, [rhs])[0][0]


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
    violation reports the offending degree and entry.  Then the invariant
    factors of each d_k are computed once and H^k is read off as in the
    module docstring: rank dim C^k - rk d_k - rk d_{k-1}, torsion the
    non-unit invariant factors of d_{k-1}, of which a field has none.
    """
    complex_spec.check_square_zero()
    ring = complex_spec.ring
    factored = {}

    def factor(deg):
        # (rank, non-unit invariant factors) of d_deg, computed once
        if deg not in factored:
            facs = invariant_factors(complex_spec.d(deg))
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
