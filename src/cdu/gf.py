"""Finite field construction and table-based arithmetic.

Fields F_{p^m} with q = p^m <= 2^16.  An element is an integer index in
[0, q) encoding its coefficient vector in base p, constant term least
significant, so index 0 is the additive identity and index 1 the
multiplicative identity.  All arithmetic goes through log/antilog tables,
which lets bulk operations run on whole numpy arrays of indices; that is
what makes full DDT sweeps affordable.

The tables are built with F_p matrices only: multiplying by g is the m x m
matrix whose row j is g*x^j mod f, so a coefficient row times it is the
row of the product.  Berlekamp's matrix of v -> v^p decides irreducibility,
matrix powers find the primitive element, and the antilog chain doubles
as a block of known powers times the matrix of the next power.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

MAX_FIELD_ORDER = 1 << 16

# classification constants for is_square
SQ = "SQ"
NSQ = "NSQ"
ZERO = "ZERO"


class CduError(Exception):
    """Base class for all library errors."""


class SpecParseError(CduError):
    pass


class CompositeCharacteristic(CduError):
    pass


class FieldTooLarge(CduError):
    pass


class ReducibleModulus(CduError):
    pass


class DivisionByZero(CduError):
    pass


class NonDivisorSubfield(CduError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# F_p matrices: the one representation of the bootstrap
# ---------------------------------------------------------------------------

def _times(row, f, p):
    """The m x m matrix of v -> g*v mod f, for g given by its coefficient row.

    Row j is g*x^j mod f (f monic of degree m), so a coefficient row times
    the matrix, mod p, is the row of the product with g.
    """
    m = len(f) - 1
    low = np.asarray(f[:m], dtype=np.int64)
    out = np.empty((m, m), dtype=np.int64)
    r = np.asarray(row, dtype=np.int64) % p
    for j in range(m):
        out[j] = r
        # times x: shift up one place, x^m = -(f_0 + f_1 x + ... + f_(m-1) x^(m-1))
        r = (np.concatenate(([0], r[:-1])) - r[-1] * low) % p
    return out


def _mat_pow(a, e, p):
    """a^e mod p for a square integer matrix a and e >= 0."""
    out = np.eye(len(a), dtype=a.dtype)
    while e:
        if e & 1:
            out = out @ a % p
        a = a @ a % p
        e >>= 1
    return out


def _rank(a, p):
    """Rank over F_p of an integer matrix, by Gaussian elimination."""
    a = np.array(a, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, col])
        if not len(nz):
            continue
        i = rank + nz[0]
        a[[rank, i]] = a[[i, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        a[rank + 1:] = (a[rank + 1:] - np.outer(a[rank + 1:, col], a[rank])) % p
        rank += 1
    return rank


def is_irreducible(coeffs, p):
    """Whether a monic polynomial over F_p (constant term first) is irreducible.

    Berlekamp's Q, the matrix of v -> v^p on F_p[x]/(f) (row j is x^(pj)
    mod f), decides it for f of degree m: Q^m = I exactly when f is
    squarefree and every factor degree d divides m, and then the kernel of
    Q^(m/r) - I, the elements fixed by v -> v^(p^(m/r)), has dimension the
    sum of gcd(d, m/r) over the factors.  That sum is m/r for every prime
    r | m only when f is one factor of degree m.

    Also rejects a zero constant term: 0 must not be a root, which for
    degree 1 selects x+1 rather than x (higher degrees force it anyway).
    """
    f = [int(c) % p for c in coeffs]
    m = len(f) - 1
    if m < 1 or f[-1] != 1 or f[0] == 0:
        return False
    if m == 1:
        return True
    eye = np.eye(m, dtype=np.int64)
    xp = _mat_pow(_times(eye[1], f, p), p, p)  # v -> x^p * v
    frob = eye.copy()
    for j in range(1, m):
        frob[j] = frob[j - 1] @ xp % p
    if (_mat_pow(frob, m, p) != eye).any():
        return False
    return all(_rank(_mat_pow(frob, m // r, p) - eye, p) == m - m // r
               for r in _prime_factors(m))


def _row(g, p, m):
    """The coefficient row of index g (its base-p digits, constant first)."""
    return g // p ** np.arange(m) % p


def _primitive(p, f):
    """The smallest index of order q-1 in the field F_p[x]/(f), f irreducible.

    g is primitive iff no proper power g^((q-1)/r), r a prime factor of
    q-1, is 1, that is iff no such power of its matrix is the identity.
    """
    m = len(f) - 1
    qm1 = p ** m - 1
    eye = np.eye(m, dtype=np.int64)
    exps = [qm1 // r for r in _prime_factors(qm1)]
    return next(g for g in range(1, qm1 + 1)
                if all((_mat_pow(_times(_row(g, p, m), f, p), e, p) != eye).any()
                       for e in exps))


def _antilog(p, f, g):
    """int32 indices of g^0 .. g^(q-2) in F_p[x]/(f).

    The coefficient rows fill by doubling: once rows [0, k) are known, rows
    [k, 2k) are those times the matrix of g^k, into one preallocated array.
    """
    m = len(f) - 1
    qm1 = p ** m - 1
    dt = np.int32 if m * p * p < 1 << 31 else np.int64  # exact matmul
    rows = np.zeros((qm1, m), dtype=dt)
    rows[0, 0] = 1
    step = _times(_row(g, p, m), f, p).astype(dt)
    k = 1
    while k < qm1:
        n = min(k, qm1 - k)
        np.matmul(rows[:n], step, out=rows[k:k + n])
        rows[k:k + n] %= p
        step = step @ step % p
        k += n
    return (rows @ (p ** np.arange(m)).astype(dt)).astype(np.int32)


def _rebase(v, k, src, dst):
    """int32: the k low base-src digits of v, each taken mod p = min(src,
    dst), read back in base dst."""
    p = min(src, dst)
    v = np.asarray(v, dtype=np.int32)
    return sum((v // src ** i % src % p * dst ** i for i in range(k)), 0 * v)


def default_modulus(p, m):
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Low-degree coefficients are compared first, i.e. candidates are tried
    in order of their base-p integer encoding.
    """
    monic = (tuple(int(c) for c in _row(n, p, m)) + (1,) for n in range(p ** m))
    return next(f for f in monic if is_irreducible(f, p))


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable description of F_{p^m}: modulus, primitive element, op tables.

    Addition is decided here, once.  An index is a base-p digit vector that
    adds digitwise; it splits as x_hi * lo + x_lo with lo = p^(m//2).  For
    p = 2 that is XOR and for a prime field (u + v) % p; otherwise indices
    add as carry-free wide codes (``carry_free``).

    Safe to share across threads once constructed; every operation is a pure
    function of (ctx, inputs).
    """

    def __init__(self, p, m, modulus=None):
        if p > MAX_FIELD_ORDER:  # before the trial division, which grows with p
            raise FieldTooLarge(f"p = {p} exceeds {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise CompositeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise CduError(f"extension degree must be >= 1, got {m}")
        if m >= MAX_FIELD_ORDER.bit_length():  # q >= 2^m; before p^m, too
            raise FieldTooLarge(f"q = {p}^{m} exceeds {MAX_FIELD_ORDER}")
        q = p ** m
        if q > MAX_FIELD_ORDER:
            raise FieldTooLarge(f"q = {p}^{m} = {q} exceeds {MAX_FIELD_ORDER}")
        if modulus is None:
            modulus = default_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {m}, got {modulus}")
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus)
        self.lo = p ** (m // 2)

        self._build_log_tables()
        self._build_aux_tables()

    # -- table construction --------------------------------------------------

    def _build_log_tables(self):
        q = self.q
        qm1 = q - 1
        self.primitive = _primitive(self.p, self.modulus)
        self.antilog_table = _antilog(self.p, self.modulus, self.primitive)
        # log with a sentinel 2(q-1) for 0 so products involving 0 fall in
        # the zero-padded tail of the doubled antilog table; int32, since a
        # sum of two logs stays below 4q <= 2^18
        log = np.full(q, 2 * qm1, dtype=np.int32)
        log[self.antilog_table] = np.arange(qm1, dtype=np.int32)
        self.log_table = log
        exp2 = np.zeros(4 * qm1 + 1, dtype=np.int32)
        exp2[:qm1] = self.antilog_table
        exp2[qm1:2 * qm1 - 1] = self.antilog_table[:qm1 - 1]
        self._exp2 = exp2

    @cached_property
    def carry_free(self):
        """(wide, r_hi, r_lo), read-only int32: addition with no carries,
        odd p only.

        wide[x] re-reads the digits of x_hi and of x_lo in base B = 2p - 1
        and packs them as code_hi << 16 | code_lo.  No digit of a sum of
        two codes passes 2p - 2, so nothing carries, and for that sum s,
        r_hi[s >> 16] + r_lo[s & 0xffff] is the index again (r_hi is
        scaled by lo).  Each half of a sum stays below B^(m - m//2), at most
        73^2 (F_{37^3}); only a prime field past p = 2^14 would overflow.
        """
        p, m, lo = self.p, self.m, self.lo
        b, k = 2 * p - 1, m - m // 2
        if b ** k > 1 << 15:
            raise FieldTooLarge(f"F_{p} is too large for carry-free addition")
        idx = np.arange(self.q, dtype=np.int32)
        wide = _rebase(idx // lo, k, p, b) << 16 | _rebase(idx % lo, m // 2, p, b)
        codes = (wide, _rebase(np.arange(b ** k), k, b, p) * lo,
                 _rebase(np.arange(b ** (m // 2)), m // 2, b, p))
        for a in codes:  # the native kernel reads them by address
            a.flags.writeable = False
        return codes

    def _build_aux_tables(self):
        p, m, q = self.p, self.m, self.q
        if p > 2 and m > 1:
            # as memoryviews, no copy: a scalar add is four Python lookups
            self._carry_free = [memoryview(t) for t in self.carry_free]
        self.neg_table = self.mul_row(p - 1)  # -x = (p - 1) * x
        qm1 = q - 1
        self.inv_table = np.zeros(q, dtype=np.int32)
        self.inv_table[self.antilog_table] = self.antilog_table[
            (-np.arange(qm1)) % qm1]
        # absolute trace to F_p; prime-subfield elements are the constant
        # polynomials, so a trace is directly an index < p.  Tr is F_p-linear
        # and index x = sum d_i p^i is the element sum d_i * w_i, so Tr(x) =
        # sum d_i * Tr(w_i) mod p, extended one digit at a time; this keeps
        # the pow_vec temporaries of trace_rel_vec off q-sized arrays
        basis = self.trace_rel_vec(1, p ** np.arange(m, dtype=np.int32))
        assert int(basis.max()) < p
        tr = np.zeros(1, dtype=np.int32)
        for ti in basis:
            tr = (np.arange(p, dtype=np.int32)[:, None] * ti + tr).ravel()
            tr %= p
        self.trace1_table = tr

    # -- scalar arithmetic on indices ---------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return int(a + b) % self.p
        wide, r_hi, r_lo = self._carry_free
        s = wide[a] + wide[b]
        return r_hi[s >> 16] + r_lo[s & 0xffff]

    def neg(self, a):
        return int(self.neg_table[a])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        qm1 = self.q - 1
        return int(self.antilog_table[(int(self.log_table[a]) + int(self.log_table[b])) % qm1])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """a^e with exponent reduced mod q-1 for nonzero base; 0^0 = 1."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        qm1 = self.q - 1
        return int(self.antilog_table[(int(self.log_table[a]) * e) % qm1])

    # -- vector arithmetic on numpy index arrays -----------------------------

    def add_vec(self, u, v):
        if self.p == 2:
            return np.bitwise_xor(u, v)
        if self.m == 1:
            return ((np.asarray(u) + v) % self.p).astype(np.int32, copy=False)
        wide, r_hi, r_lo = self.carry_free
        s = wide[u] + wide[v]
        return r_hi[s >> 16] + r_lo[s & 0xffff]

    def sub_vec(self, u, v):
        return self.add_vec(u, self.neg_table[v])

    def mul_vec(self, u, v):
        return self.mul_log_vec(self.log_table[u], v)

    def mul_log_vec(self, log_u, v):
        """mul_vec(u, v) with u given by its logs, ``log_table[u]``."""
        return self._exp2[log_u + self.log_table[v]]

    def pow_vec(self, u, e):
        """Elementwise u^e for a fixed integer exponent e >= 0."""
        if e == 0:
            return np.ones_like(u)
        qm1 = self.q - 1
        u = np.asarray(u)
        out = np.zeros(u.shape, dtype=np.int32)
        nz = u != 0
        # int64: log * (e mod (q-1)) passes 2^31 at q = 2^16
        logs = self.log_table[u[nz]].astype(np.int64)
        out[nz] = self.antilog_table[logs * (e % qm1) % qm1]
        return out

    def mul_row(self, s):
        """Lookup table v -> s*v over the whole field."""
        return self.mul_vec(np.int32(s), np.arange(self.q, dtype=np.int32))

    # -- structure maps -------------------------------------------------------

    def frobenius(self, x, e):
        """x^(p^e); e is taken mod m, so frobenius(x, m) is the identity."""
        return self.pow(x, self.p ** (e % self.m))

    def frobenius_vec(self, u, e):
        return self.pow_vec(u, self.p ** (e % self.m))

    def gold_vec(self, u, k):
        """Elementwise u^(p^k+1), as u^(p^k) * u: k is taken mod m, so no
        power p^k is ever formed, whatever the size of k."""
        return self.mul_vec(self.frobenius_vec(u, k), u)

    def trace_rel_vec(self, l, u):
        """Relative trace to F_{p^l}: sum of u^(p^(l*i)), i < m/l, elementwise."""
        if self.m % l != 0:
            raise NonDivisorSubfield(f"{l} does not divide {self.m}")
        acc = np.asarray(u).copy()
        cur = u
        for _ in range(self.m // l - 1):
            cur = self.pow_vec(cur, self.p ** l)
            acc = self.add_vec(acc, cur)
        return acc

    def trace1(self, x):
        """Absolute trace to F_p, returned as an index < p."""
        return int(self.trace1_table[x])

    def in_subfield(self, x, d):
        """True iff x lies in the subfield F_{p^d} (requires d | m)."""
        if self.m % d != 0:
            raise NonDivisorSubfield(f"{d} does not divide {self.m}")
        if x == 0:
            return True
        step = (self.q - 1) // (self.p ** d - 1)
        return int(self.log_table[x]) % step == 0

    def is_square(self, x):
        """SQ / NSQ / ZERO classification; every nonzero element is SQ for p=2."""
        if x == 0:
            return ZERO
        if self.p == 2:
            return SQ
        return SQ if int(self.log_table[x]) % 2 == 0 else NSQ

    # -- formatting -----------------------------------------------------------

    def elem_str(self, x, letter="w"):
        if x == 0:
            return "0"
        return f"{letter}^{int(self.log_table[x])}"

    def parse_elem(self, s, letter="w"):
        """Parse "<letter>^k" or a decimal literal 0..p-1 of the prime
        subfield, k and the literal written in the ASCII digits 0-9
        (``parse_count``).  The letter names the field ("w" for F_q, "W"
        for F_{q^2}), so the other case is rejected, not read in the wrong
        field."""
        s = s.strip()
        if s.startswith(letter.swapcase() + "^"):
            raise SpecParseError(
                f"{s!r}: an element of F_{self.q} is written {letter}^k here")
        if s.startswith(letter + "^"):
            k = parse_count(s[2:], f"the exponent of {s!r}")
            return int(self.antilog_table[k % (self.q - 1)])
        if not (s.isascii() and s.isdigit()):
            raise CduError(f"cannot parse field element {s!r}")
        # compared with p as digit strings, so that a literal past int()'s
        # 4300 digits is out of range, not unreadable
        digits, top = s.lstrip("0"), str(self.p)
        if (len(digits), digits) >= (len(top), top):
            raise CduError(f"decimal literal {s} is not in 0..{self.p - 1}; "
                           f"write other elements as {letter}^k")
        return parse_count(s, "a decimal literal")

    def modulus_str(self):
        return ",".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m}, modulus={self.modulus_str()})"

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))


def parse_count(text, what):
    """The integer that ``text`` writes in the ASCII digits 0-9, and nothing
    else: a sign, a space, ``_`` or a digit of another script, all of which
    int() takes, is a SpecParseError naming ``what``, and so is text past
    int()'s limit of 4300 digits.  Every integer in argument text is read
    here; a caller strips a whole token where its grammar allows that."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise SpecParseError(f"{what} must be 1 to 4300 ASCII digits 0-9, got {text!r}")


def parse_modulus(s):
    """Parse the CLI serialization "1,1,0,0,1" (constant term first)."""
    return tuple(parse_count(c.strip(), "a --modulus coefficient")
                 for c in s.split(","))


_field = cache(FieldCtx)


def make_field(p, m, modulus=None):
    """The FieldCtx of (p, m, modulus), built once per process; a modulus
    is keyed as a tuple, and the default one is deterministic."""
    return _field(p, m, None if modulus is None else tuple(modulus))
