"""Sparse exact-integer multivariate polynomials and their Z_p quotient forms.

A polynomial is a term table mapping exponent tuples to nonzero integer
coefficients over a fixed, ordered tuple of variable names.  Coefficients are
Python ints, so arithmetic never overflows.  Values are treated as immutable:
every operation returns a new object.
"""

from __future__ import annotations

from operator import add


class VariableMismatchError(ValueError):
    """Operands declare different variable tuples."""


class NonDivisibleTermError(ValueError):
    """A term is not divisible by the requested monomial."""


# Miller-Rabin on the prime bases 2..41 is exact below _PRIME_TEST_LIMIT
# (Sorenson & Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError from _PRIME_TEST_LIMIT on."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large to test for primality")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        # b witnesses compositeness unless b^d = 1 or some b^(d 2^i) = -1
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


class Polynomial:
    """Sparse polynomial with exact integer coefficients.

    ``terms`` maps exponent tuples (one entry per variable, all >= 0) to
    nonzero coefficients.  Equality is exact term-table equality.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=()):
        variables = tuple(variables)
        width = len(variables)
        table = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(
                    f"exponent tuple {exps} does not match variables {variables}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = int(coeff)
            if coeff:
                table[exps] = table.get(exps, 0) + coeff
                if not table[exps]:
                    del table[exps]
        self.variables = variables
        self.terms = table

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict):
        """A Polynomial built without the checks of ``__init__``, for
        results computed here: ``variables`` is a tuple and ``terms`` maps
        exponent tuples of its width, all >= 0, to nonzero ints."""
        out = cls.__new__(cls)
        out.variables = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables):
        return cls(variables, ())

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        zeros = (0,) * len(variables)
        return cls(variables, {zeros: int(value)})

    @classmethod
    def monomial(cls, variables, exps, coefficient=1):
        return cls(variables, {tuple(exps): coefficient})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not one of {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variable sets differ: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.variables, other)
        return NotImplemented

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        table = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = table.get(exps, 0) + coeff
            if acc:
                table[exps] = acc
            elif exps in table:
                del table[exps]
        return Polynomial._trusted(self.variables, table)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        table = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                acc = table.get(exps, 0) + c1 * c2
                if acc:
                    table[exps] = acc
                elif exps in table:
                    del table[exps]
        return Polynomial._trusted(self.variables, table)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return render_terms(self.variables, self.terms)

    def __repr__(self):
        return f"Polynomial({self.variables!r}, {self.terms!r})"


class ModPolynomial:
    """A polynomial over Z_p: coefficients normalized into 0..p-1.

    The constructor tests that p is prime; results built from a
    ModPolynomial reuse its modulus and skip the test.
    """

    __slots__ = ("polynomial", "modulus")

    def __init__(self, polynomial: Polynomial, modulus: int):
        _require_prime(modulus)
        self.polynomial = _reduced(polynomial, modulus)
        self.modulus = modulus

    @classmethod
    def _trusted(cls, polynomial: Polynomial, modulus: int):
        """``polynomial`` reduced modulo ``modulus``, a prime already tested."""
        out = cls.__new__(cls)
        out.polynomial = _reduced(polynomial, modulus)
        out.modulus = modulus
        return out

    @property
    def variables(self):
        return self.polynomial.variables

    @property
    def terms(self):
        return self.polynomial.terms

    def _coerce(self, other):
        if isinstance(other, ModPolynomial):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"moduli differ: {self.modulus} vs {other.modulus}"
                )
            return other
        if isinstance(other, (Polynomial, int)):
            if isinstance(other, int):
                other = Polynomial.constant(self.variables, other)
            return ModPolynomial._trusted(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModPolynomial._trusted(self.polynomial + other.polynomial, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModPolynomial._trusted(self.polynomial - other.polynomial, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModPolynomial._trusted(self.polynomial * other.polynomial, self.modulus)

    __rmul__ = __mul__

    def fold_variable(self, name: str) -> "ModPolynomial":
        """Canonical representative modulo ``name``^p - ``name``.

        Exponents e >= 1 fold into the window 1..p-1 via
        ((e - 1) mod (p - 1)) + 1; exponent 0 is untouched.  Two
        ModPolynomials are congruent modulo (p, v^p - v) iff their folded
        forms are identical term tables.
        """
        try:
            i = self.variables.index(name)
        except ValueError:
            raise ValueError(f"{name!r} is not one of {self.variables}") from None
        p = self.modulus
        window = p - 1
        table = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e >= 1:
                folded = (e - 1) % window + 1
                if folded != e:
                    exps = exps[:i] + (folded,) + exps[i + 1 :]
            acc = (table.get(exps, 0) + coeff) % p
            if acc:
                table[exps] = acc
            elif exps in table:
                del table[exps]
        return ModPolynomial._trusted(Polynomial._trusted(self.variables, table), p)

    def fold(self, names) -> "ModPolynomial":
        out = self
        for name in names:
            out = out.fold_variable(name)
        return out

    def __eq__(self, other):
        if not isinstance(other, ModPolynomial):
            return NotImplemented
        return self.modulus == other.modulus and self.polynomial == other.polynomial

    def __bool__(self):
        return bool(self.polynomial)

    def __str__(self):
        return str(self.polynomial)

    def __repr__(self):
        return f"ModPolynomial({self.polynomial!r}, {self.modulus})"


def _reduced(polynomial: Polynomial, p: int) -> Polynomial:
    """Coefficients reduced into 0..p-1, the terms that vanish dropped."""
    table = {}
    for exps, coeff in polynomial.terms.items():
        c = coeff % p
        if c:
            table[exps] = c
    return Polynomial._trusted(polynomial.variables, table)


# -- module-level operations ------------------------------------------


def reduce_mod_p(a: Polynomial, p: int) -> ModPolynomial:
    """Reduce coefficients into 0..p-1, pruning terms that vanish."""
    return ModPolynomial(a, p)


def power_mod(a: ModPolynomial, k: int, fold_names) -> ModPolynomial:
    """a**k folded in each of ``fold_names``, for k a power of the modulus p
    (k = 1 included); any other k raises ValueError.

    Modulo p the Frobenius map is a ring morphism and c^p == c, so
    (sum c*m)^k == sum c*m^k: every exponent is multiplied by k and the
    result is folded once, with no polynomial products.
    """
    p = a.modulus
    if not isinstance(k, int) or k < 1:
        raise ValueError("exponent must be a positive integer")
    rest = k
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError(f"exponent {k} is not a power of the modulus {p}")
    scaled = {tuple(e * k for e in exps): c for exps, c in a.terms.items()}
    # exps -> k*exps is one-to-one, so the terms stay distinct
    return ModPolynomial._trusted(Polynomial._trusted(a.variables, scaled), p).fold(fold_names)


def substitute(a: Polynomial, mapping: dict, variables=None) -> Polynomial:
    """Simultaneously replace variables of ``a`` by values in ``mapping``.

    Values are ints or Polynomials over the target variable tuple
    (``variables``, defaulting to ``a.variables``).  Variables not mapped must
    exist in the target set and map to themselves.
    """
    target = tuple(variables) if variables is not None else a.variables
    unknown = [v for v in mapping if v not in a.variables]
    if unknown:
        raise ValueError(f"mapping for unknown variables {unknown}")
    images = {}
    for name in a.variables:
        if name in mapping:
            value = mapping[name]
            if isinstance(value, int):
                value = Polynomial.constant(target, value)
            elif value.variables != target:
                raise VariableMismatchError(
                    f"image of {name!r} is over {value.variables}, expected {target}"
                )
            images[name] = value
        else:
            images[name] = Polynomial.variable(target, name)

    power_cache = {}

    def image_power(name, e):
        key = (name, e)
        cached = power_cache.get(key)
        if cached is None:
            cached = images[name] ** e
            power_cache[key] = cached
        return cached

    result = Polynomial.zero(target)
    for exps, coeff in a.terms.items():
        term = Polynomial.constant(target, coeff)
        for name, e in zip(a.variables, exps):
            if e:
                term = term * image_power(name, e)
        result = result + term
    return result


def divide_exact_monomial(a: Polynomial, monomial: dict) -> Polynomial:
    """Exact quotient of ``a`` by a monomial given as {variable: exponent}.

    Raises NonDivisibleTermError if any term of ``a`` has an exponent below
    the divisor's.
    """
    unknown = [v for v in monomial if v not in a.variables]
    if unknown:
        raise ValueError(f"monomial uses unknown variables {unknown}")
    offsets = tuple(int(monomial.get(v, 0)) for v in a.variables)
    if any(o < 0 for o in offsets):
        raise ValueError("monomial exponents must be non-negative")
    table = {}
    for exps, coeff in a.terms.items():
        shifted = tuple(e - o for e, o in zip(exps, offsets))
        if any(e < 0 for e in shifted):
            raise NonDivisibleTermError(
                f"term {render_terms(a.variables, {exps: coeff})} is not divisible "
                f"by {render_monomial(a.variables, offsets)}"
            )
        table[shifted] = coeff
    return Polynomial(a.variables, table)


# -- text form ---------------------------------------------------------


def render_monomial(variables, exps) -> str:
    """Render one monomial with coefficient 1: ``^`` for powers, ``*``
    between factors; the empty product renders as ``1``."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exps) if e
    ) or "1"


def render_terms(variables, terms) -> str:
    """Render a term table: ascending exponents with the last variable most
    significant, each term as its monomial, unit coefficients omitted.  The
    zero polynomial renders as ``0``."""
    if not terms:
        return "0"
    pieces = []
    for exps, coeff in sorted(terms.items(), key=lambda kv: tuple(reversed(kv[0]))):
        monomial = render_monomial(variables, exps)
        mag = abs(coeff)
        if mag == 1:
            body = monomial
        elif monomial == "1":
            body = str(mag)
        else:
            body = f"{mag}*{monomial}"
        pieces.append((coeff < 0, body))
    negative, body = pieces[0]
    out = ("-" if negative else "") + body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out
