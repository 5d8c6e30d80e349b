"""Class counts from Polya-Otter generating functions: a referee for the
enumerators that never lists a class.

Integer arithmetic only.  A series in x (black vertices) and y (white
vertices) is a square table ``s[i][j]``, the coefficient of x^i y^j,
truncated at ``size`` in each variable.  The colors are the two signs.

* B counts rooted trees with a black root: B = x exp(sum_k W(x^k, y^k)/k),
  where W(x, y) = B(y, x) counts those with a white root.
* Free bicolored trees: B + W - B W, by Otter's dissimilarity theorem
  ("The number of trees", 1948).  It has no symmetric-edge term, because
  every edge joins two colors.  With the swap identified, Burnside over
  {identity, swap} adds the trees with a color-exchanging automorphism:
  two equal rooted halves on a central edge, counted by B(x, x).
* Genus-1 torus trees: the genus region is the root and lies in the
  larger color class, so 2k curves give 2 [x^(k+1) y^k] B classes, one
  per sign of the larger class, or half that with the swap identified.
* Unicyclic classes with a cycle of 2m vertices: Polya over the order-2m
  dihedral group of the cycle that keeps colors, acting on the rooted
  trees hung at the cycle vertices.  With the swap identified, the
  color-exchanging rotations and edge reflections join it; each of their
  orbits alternates colors, so it carries one rooted tree of either root
  color and its swap, r((xy)^(length/2)) with r(t) = B(t, t).
"""

from __future__ import annotations

from math import gcd


def _zero(size: int) -> list[list[int]]:
    return [[0] * (size + 1) for _ in range(size + 1)]


def _rooted(size: int) -> list[list[int]]:
    """B[i][j]: rooted trees with a black root, i black and j white vertices.

    F = exp(sum_k W(x^k, y^k)/k) is found degree by degree from
    D F = F D(log F) with D = x d/dx + y d/dy, which keeps every step in
    integers: (i + j) f[i][j] = sum of c[a][b] f[i - a][j - b], where
    c[a][b] = sum over k dividing a and b of (a + b)/k * w[a/k][b/k].
    Then B = x F and w[a][b] = B[b][a] = f[b - 1][a].
    """
    f = _zero(size)
    c = _zero(size)
    f[0][0] = 1
    for total in range(1, 2 * size + 1):
        cells = [(i, total - i) for i in range(size + 1) if 0 <= total - i <= size]
        for a, b in cells:
            c[a][b] = sum(
                (a + b) // k * f[b // k - 1][a // k]
                for k in range(1, b + 1)
                if a % k == 0 and b % k == 0
            )
        for i, j in cells:
            acc = sum(
                c[a][b] * f[i - a][j - b]
                for a in range(i + 1)
                for b in range(j + 1)
                if a or b
            )
            f[i][j], rest = divmod(acc, total)
            assert rest == 0
    b = _zero(size)
    for i in range(1, size + 1):
        b[i] = list(f[i - 1])
    return b


def _transpose(s):
    return [list(row) for row in zip(*s)]


def _mul(s, t):
    size = len(s) - 1
    out = _zero(size)
    for i, row in enumerate(s):
        for j, coefficient in enumerate(row):
            if coefficient:
                for a in range(size + 1 - i):
                    for b in range(size + 1 - j):
                        out[i + a][j + b] += coefficient * t[a][b]
    return out


def _pow(s, e: int):
    out = _zero(len(s) - 1)
    out[0][0] = 1
    for _ in range(e):
        out = _mul(out, s)
    return out


def _dilate(s, k: int):
    """s(x^k, y^k)."""
    size = len(s) - 1
    out = _zero(size)
    for i in range(0, size + 1, k):
        for j in range(0, size + 1, k):
            out[i][j] = s[i // k][j // k]
    return out


def _add(*series):
    return [[sum(cells) for cells in zip(*rows)] for rows in zip(*series)]


def _rooted_diagonal(b, size: int):
    """r((xy)^1) with r(t) = B(t, t): rooted trees by total size, on x^n y^n."""
    out = _zero(size)
    for n in range(size + 1):
        out[n][n] = sum(b[i][n - i] for i in range(n + 1))
    return out


def sphere_counts(max_n: int, modulo_swap: bool) -> list[int]:
    """Equicolored tree classes on 2n vertices, n = 1..max_n."""
    b = _rooted(max_n)
    w = _transpose(b)
    bw = _mul(b, w)
    counts = []
    for n in range(1, max_n + 1):
        free = b[n][n] + w[n][n] - bw[n][n]
        if modulo_swap:
            symmetric = sum(b[i][n - i] for i in range(n + 1))
            free, rest = divmod(free + symmetric, 2)
            assert rest == 0
        counts.append(free)
    return counts


def torus_counts(max_curves: int, modulo_swap: bool) -> tuple[list[int], list[int]]:
    """Genus-1 tree classes and unicyclic classes (slopes aside) with
    1..max_curves curves, as two lists indexed by curves - 1."""
    half = max_curves // 2
    size = half + 1
    b = _rooted(size)
    w = _transpose(b)
    trees = [0] * max_curves
    cycles = [0] * max_curves
    for k in range(1, half + 1):
        trees[2 * k - 1] = b[k + 1][k] * (1 if modulo_swap else 2)
    r = _rooted_diagonal(b, size)
    b2, w2 = _dilate(b, 2), _dilate(w, 2)
    for m in range(1, half + 1):
        # Color-keeping rotations by 2s: gcd(s, m) black and as many white
        # orbits, each of length m / gcd(s, m).
        terms = []
        for s in range(m):
            g = gcd(s, m)
            bk, wk = _dilate(b, m // g), _dilate(w, m // g)
            terms.append(_pow(_mul(bk, wk), g))
        # Color-keeping reflections i -> c - i, c even: two fixed vertices,
        # m - 1 swapped pairs.
        if m % 2:
            reflection = _mul(_mul(b, w), _pow(_mul(b2, w2), (m - 1) // 2))
            terms += [reflection] * m
        else:
            black = _mul(_mul(b, b), _mul(_pow(b2, m // 2 - 1), _pow(w2, m // 2)))
            white = _mul(_mul(w, w), _mul(_pow(w2, m // 2 - 1), _pow(b2, m // 2)))
            terms += [black] * (m // 2) + [white] * (m // 2)
        order = 2 * m
        if modulo_swap:
            # Color-exchanging rotations by odd r: gcd(r, 2m) orbits of
            # length 2m / gcd(r, 2m); edge reflections: m orbits of length 2.
            for odd in range(1, 2 * m, 2):
                g = gcd(odd, 2 * m)
                terms.append(_pow(_dilate(r, m // g), g))
            terms += [_pow(r, m)] * m
            order = 4 * m
        total = _add(*terms)
        for k in range(m, half + 1):
            count, rest = divmod(total[k][k], order)
            assert rest == 0
            cycles[2 * k - 1] += count
    return trees, cycles
