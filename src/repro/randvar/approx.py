"""i-bit approximation engines (Definition 3.2, Lemmas 3.3 and 3.4).

Every function here returns integers ``v`` satisfying the Definition 3.2
contract ``|v / 2^i - p| <= 2^-i`` for its target value ``p``, computed with
conservative integer fixed-point arithmetic (never floats, so error bounds
are provable and platform-independent):

- powers ``(num/den)^e`` of rationals in [0, 1] via binary exponentiation
  — needed for ``Ber((1-p)^k)`` in Algorithm 5 and in B-Geo;
- ``p* = (1 - (1-q)^n) / (n q)`` via the truncated binomial series of
  Lemma 3.3 (``i+4`` terms, factorially small tail);
- ``1/(2 p*)`` via interval division (Lemma 3.4);
- the partial Euler products ``phi(t) = prod_{g>=t} (1 - 2^-g)`` used by the
  dyadic Bernoulli process of the float-weight DPSS.

Approximation quality affects only the *speed* of the lazy Bernoulli
framework, never the exactness of sampled distributions; the contract is
enforced by tests against exact big-rational evaluation.
"""

from __future__ import annotations

from .lazy import ApproxFn

#: Cache for fixed-point rational powers: HALT queries repeatedly evaluate
#: powers with identical (num, den, e) — e.g. (1 - 1/N^2)^m with N fixed
#: between rebuilds.  Keyed by (num, den, exponent, precision).
_POW_CACHE: dict[tuple[int, int, int, int], int] = {}
_POW_CACHE_LIMIT = 8192


def rescale(value: int, from_bits: int, to_bits: int) -> int:
    """Re-express ``value / 2^from_bits`` at scale ``2^to_bits``, rounding.

    Rounding error is at most ``2^-(to_bits+1)`` when shrinking.
    """
    if to_bits >= from_bits:
        return value << (to_bits - from_bits)
    shift = from_bits - to_bits
    return (value + (1 << (shift - 1))) >> shift


def fixed_pow(num: int, den: int, exponent: int, frac_bits: int) -> int:
    """``floor``-style fixed-point ``(num/den)^exponent`` at ``2^frac_bits``.

    Requires ``0 <= num <= den`` and ``exponent >= 0``.  The absolute error
    is below ``2^(k - frac_bits)`` where ``k`` is the number of
    multiplication steps (≤ 2·bit_length(exponent)); callers add guard bits
    accordingly.  Truncation is always downward, keeping results in [0, 1].
    """
    if not 0 <= num <= den:
        raise ValueError(f"base must be in [0, 1], got {num}/{den}")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    one = 1 << frac_bits
    if exponent == 0 or num == den:
        return one
    if num == 0:
        return 0
    base = (num << frac_bits) // den
    result = one
    e = exponent
    while e > 0:
        if e & 1:
            result = (result * base) >> frac_bits
        e >>= 1
        if e > 0:
            base = (base * base) >> frac_bits
    return result


def approx_pow(num: int, den: int, exponent: int, i: int) -> int:
    """i-bit approximation of ``(num/den)^exponent`` (Definition 3.2).

    Cost is ``poly(i, log exponent)`` — the repeated-squaring evaluation the
    paper's Fact 3 relies on for ``(1-p)^m`` style Bernoullis.
    """
    key = (num, den, exponent, i)
    cached = _POW_CACHE.get(key)
    if cached is not None:
        return cached
    # 2*bit_length(e) multiplication steps, each losing <= 2^-r and at most
    # doubling accumulated error; r = i + 2*bitlen + 8 keeps the internal
    # error below 2^-(i+2), and the final rounding adds <= 2^-(i+1).
    steps = 2 * max(1, exponent.bit_length())
    r = i + steps + 8
    value = rescale(fixed_pow(num, den, exponent, r), r, i)
    if len(_POW_CACHE) >= _POW_CACHE_LIMIT:
        _POW_CACHE.clear()
    _POW_CACHE[key] = value
    return value


def pow_approx_fn(num: int, den: int, exponent: int) -> ApproxFn:
    """Approximator closure for ``(num/den)^exponent``."""

    def approx(i: int) -> int:
        return approx_pow(num, den, exponent, i)

    return approx


def approx_p_star(q_num: int, q_den: int, n: int, i: int) -> int:
    """i-bit approximation of ``p* = (1 - (1-q)^n) / (n q)`` (Lemma 3.3).

    Uses the truncated binomial series ``p* = sum_j (-1)^(j+1) a_j`` with
    ``a_j = q^(j-1) C(n-1, j-1) / j``; ``|a_j| <= 1/j!`` when ``n q <= 1``,
    so ``i+4`` terms leave a tail below ``2^-(i+3)``.  Cost is poly(i),
    independent of n, exactly as Lemma 3.3 requires.
    """
    if q_num <= 0 or q_den <= 0 or n <= 0:
        raise ValueError("need q > 0 and n > 0")
    if n * q_num > q_den:
        raise ValueError("approx_p_star requires n*q <= 1")
    terms = min(n, i + 4)
    r = i + 8 + max(1, (terms + 1).bit_length())
    # a_1 = 1; a_{j+1} = a_j * q * (n - j) / (j + 1).  Terms are decreasing
    # and in [0, 1]; floor division loses <= 2^-r per step with multipliers
    # <= 1, so the accumulated error stays below terms * 2^-r.
    term = 1 << r
    acc = term
    sign = -1
    for j in range(1, terms):
        term = (term * q_num * (n - j)) // (q_den * (j + 1))
        if term == 0:
            break
        acc += sign * term
        sign = -sign
    acc = min(max(acc, 0), 1 << r)
    return rescale(acc, r, i)


def p_star_approx_fn(q_num: int, q_den: int, n: int) -> ApproxFn:
    """Approximator closure for ``p*`` — Bernoulli type (ii) of Theorem 3.1."""

    def approx(i: int) -> int:
        return approx_p_star(q_num, q_den, n, i)

    return approx


def approx_half_over_p_star(q_num: int, q_den: int, n: int, i: int) -> int:
    """i-bit approximation of ``1/(2 p*)`` (Lemma 3.4).

    With ``n q <= 1`` we have ``p* >= 1/2``, so ``1/(2x)`` is 2-Lipschitz on
    the relevant range and interval division preserves the error bound.
    """
    inner = i + 6
    w = approx_p_star(q_num, q_den, n, inner)  # |w/2^inner - p*| <= 2^-inner
    if w <= 0:
        raise ArithmeticError("p* approximation collapsed to zero")
    # y = 1/(2 p*); at scale s: y*2^s ~= 2^(s + inner - 1) / w.
    s = i + 3
    v = ((1 << (s + inner - 1)) + w // 2) // w
    return rescale(v, s, i)


def half_over_p_star_approx_fn(q_num: int, q_den: int, n: int) -> ApproxFn:
    """Approximator closure for ``1/(2 p*)`` — type (iii) of Theorem 3.1."""

    def approx(i: int) -> int:
        return approx_half_over_p_star(q_num, q_den, n, i)

    return approx


def approx_phi(t: int, i: int) -> int:
    """i-bit approximation of ``phi(t) = prod_{g >= t} (1 - 2^-g)``.

    Truncating the product at ``G = t + i + 4`` discards a factor whose
    distance from 1 is below ``2^-(t+i+3)``; each retained factor is exactly
    representable (or within ``2^-r``) at the working precision.
    """
    if t < 1:
        raise ValueError("phi(t) defined for t >= 1")
    upper = t + i + 4
    r = i + 8 + max(1, (upper - t + 1).bit_length())
    acc = 1 << r
    for g in range(t, upper + 1):
        factor = (1 << r) - (1 << (r - g)) if g <= r else (1 << r) - 1
        acc = (acc * factor) >> r
    return rescale(acc, r, i)


def dyadic_hit_approx_fn(t: int) -> ApproxFn:
    """Approximator for ``1 - phi(t)``: P(some coin Ber(2^-g), g >= t, hits)."""

    def approx(i: int) -> int:
        return (1 << i) - approx_phi(t, i)

    return approx


def dyadic_first_given_hit_approx_fn(g: int) -> ApproxFn:
    """Approximator for ``2^-g / (1 - phi(g))`` — in [1/2, 1].

    This is the conditional probability that the dyadic coin at position g
    succeeds given that at least one coin at position >= g succeeds.
    """

    def approx(i: int) -> int:
        inner = g + i + 8
        phi = approx_phi(g, inner)
        d = (1 << inner) - phi  # ~ (1 - phi(g)) * 2^inner, error <= 2^-inner
        if d <= 0:
            raise ArithmeticError("1 - phi(g) approximation collapsed")
        s = i + 3
        # y * 2^s ~= 2^(s - g) * 2^inner / d = 2^(s - g + inner) / d.
        v = ((1 << (s - g + inner)) + d // 2) // d
        return rescale(v, s, i)

    return approx
