"""The last three points of a 5-arc search of PG(3, q), counted at each
pair of its first point by the planes through the pair's line.

A 5-arc search of PG(3, q) (n = 3, m = 5: frames of PG(3, q), 5-arcs with
or without avoid, sectioned configurations at n = 2) counts each pair
(a, b), a < b, in the node of a, charging what the node (a, b) would, and
enters no node of two or three points.  With C the pool points above b off
the line ab, and k_X = |X & C|, let pi run over the q + 1 planes through
ab, and e3 be the third elementary symmetric sum over them.  The
completions are
  e3(k_pi) - sum over the planes s through a, not b, of e3(k_(s & pi))
           - sum over the planes s through b, not a, of e3(k_(s & pi))
           + sum over the lines L that miss ab of C(k_L, 3).
A 3-set {j, k, l} of C completes a 5-arc exactly when no four of a, b, j,
k, l are coplanar.  Each point of C lies on one plane through ab, so
{a, b, x, y} is coplanar exactly when x and y share one, and e3(k_pi)
counts the sets with their points on three of them.  Of those,
{a, j, k, l} is coplanar exactly when the set lies in a plane s through a;
s misses b, as it would otherwise be a plane through ab holding two of the
points, and s meets each pi in a line through a, so s holds e3(k_(s & pi))
such sets; and s is the span of the set with a, so each set is taken once.
Likewise for b.  Both happen exactly when the set spans a plane with a and
one with b, which are distinct, so the set lies on their common line L,
which misses ab; conversely any three points of C on such a line lie on
three planes through ab.  Inclusion and exclusion give the count.

Incidences.  The sums are read from `incidences`, built once: each line
with two or more root pool points, joined from its lowest pool point, and
the q + 1 planes through it, the points of its dual line.  With D the pool
points above b and k_L = |L & D|, a plane s through a point x holds the
symmetric sums of k over its lines through x; a line through a or b meets
ab in that point, so its points of C are those of D.  The b terms do not
depend on a: the lines that miss ab are those not through b less those on
a plane pi, and a line not through b lies on one plane through b.  So one
pass from the highest pool point down keeps each k_L and each plane's
collinear triples of D, which grow as a point joins D (a line's by
C(k_L, 2)), and keeps for b the terms summed over every plane through b,
and for each line through b those of the planes through it.  The a terms
are kept as the pairs of a advance: b leaves D, so the line ab loses a
point, and each plane through it updates its sums; the points of C on a
plane pi are its points of D less those of ab.  So a pair reads the q + 1
planes through ab once.

Charges.  A pair also charges what its children (a, b, j) would:
pool(a, b, j) is pool(a, b) less the plane abj, so
3! (|C| |pool(a, b)| - sum over pi of k_pi |pi & pool(a, b)|) in all, and
its own 2! |pool(a, b)| and 5! per completion.  Reading the lines and
planes of PG(3, q) at the first pair would cost every line before the
budget could stop the job, so the first pair of each first point charges a
floor first: the line ab holds at most q + 1 pool points and q - 1 of D, a
plane through it at most q^2 points of pool(a, b), and a 5-arc picks j in
C, k off the plane abj and l off the planes abj, abk, ajk and bjk, which
hold at most 4 q^2 + 2 q points of C; so with c the lower bound of |C|,
the pair completes at least c (c - q^2) (c - 4 q^2 - 2 q) / 3! sets when
that is positive.  The pair's later charge is its total less the floor, so
every charge is at least 0.

`enumeration._ArcSearch` calls `count_pairs` at the node of each first
point of such a search and imports this module there, so a search of a
line or a plane does not compile it."""

from .projlin import nullspace


def count_pairs(search, a, pool, cand):
    """The pairs (a, b) of a 5-arc search of PG(3, q) with first point
    a, each counted as a node: its charge, its children's charges and
    its completions by three points of its candidates C, the pool
    points above b off the line ab (see the module docstring).  With
    D the pool points above b, a plane through a holds the elementary
    symmetric sums e1, e2, e3 of the points of D on its lines through
    a and its pool points other than a (`sums`), and `spread` sums
    their e3.  The first pair charges a floor before the planes are
    read."""
    size = cand.bit_count()
    if not size:
        return
    q, leaf = search.q, search.leaf
    # the root pool: pool(a) and a
    total = pool.bit_count() + 1
    # the first pair: pool(a, b) misses the q + 1 points of the line ab,
    # C at most q - 1 more of D, and each plane through ab holds at most
    # q^2 points of pool(a, b); a 5-arc takes its third point in C, its
    # fourth off a plane and its fifth off four planes, which hold at
    # most 4 q^2 + 2 q points of C
    rest = max(total - q - 1, 0)
    c = max(size - q, 0)
    floor = 2 * rest + 6 * c * max(rest - q * q, 0)
    if c > 4 * q * q + 2 * q:
        floor += c * (c - q * q) * (c - 4 * q * q - 2 * q) // 6 * leaf
    search._charge(floor)
    if search.space is None:
        incidences(search)
    masks, points_on, pooled, planes_of, stars, base, ends = search.space
    # the points of D on each line through a, and the line through a
    # and each candidate
    weight, line_to, sums = {}, {}, {}
    for line in stars[a][1]:
        weight[line] = (masks[line] & cand).bit_count()
        for x in points_on[line]:
            line_to[x] = line
    spread = 0
    for plane, lines in stars[a][0]:
        e1 = e2 = e3 = p = 0
        for line in lines:
            k = weight[line]
            e3 += k * e2
            e2 += k * e1
            e1 += k
            p += pooled[line]
        sums[plane] = [e1, e2, e3, p - len(lines)]
        spread += e3
    count = 0
    while cand:
        low = cand & -cand
        cand ^= low
        b = low.bit_length() - 1
        ab = line_to[b]
        # b leaves D; the planes through ab give C's points k, their
        # symmetric sums, the planes' own e3 and the children's pools
        k_ab = weight[ab] = weight[ab] - 1
        on_ab = pooled[ab] - 1
        e1 = e2 = e3 = own = shared = 0
        for plane in planes_of[ab]:
            s = sums[plane]
            k = s[0] - k_ab - 1
            d2 = s[1] - (k_ab + 1) * k
            s[2] -= d2
            s[1] -= k
            s[0] -= 1
            spread -= d2
            e3 += k * e2
            e2 += k * e1
            e1 += k
            own += s[2]
            shared += k * (s[3] - on_ab)
        sets = e3 - spread + own + base[b] + ends[b][ab]
        rest = total - on_ab - 1
        count += sets
        search._charge(2 * rest + 6 * (e1 * rest - shared) + leaf * sets - floor)
        floor = 0
    search.count += count * leaf


def incidences(search):
    """The incidences `count_pairs` reads, built once: the lines
    with two or more root pool points, each joined once from its lowest
    pool point, with their masks, their point ids and their number of
    pool points; the q + 1 planes through each, as ids of their
    normalized dual vectors, the points of the nullspace of the line's
    basis; and for each pool point x its planes, each with the lines
    through x in it, and its lines.  Then, with D the pool points above
    b, from the highest pool point b down, the sums a pair (a, b) reads
    of b: `base[b]` and `ends[b][line]` for each line through b (see the
    module docstring)."""
    pool, field = search.pool0, search.field
    index, sub_row, q = search.index, field.sub_row, search.q
    width = search.n + 1
    masks, points_on, pooled, planes_of = [], [], [], []
    lines_at = [[] for _ in search.points]
    ids = [x for x in range(len(search.points)) if pool >> x & 1]
    for x in ids:
        rest = pool >> (x + 1) << (x + 1)
        for line in lines_at[x]:
            rest &= ~masks[line]
        while rest:
            y = (rest & -rest).bit_length() - 1
            mask, on_line, basis = search._line(x, y)
            line = len(masks)
            masks.append(mask)
            points_on.append(on_line)
            on = [y for y in on_line if pool >> y & 1]
            pooled.append(len(on))
            for y in on:
                lines_at[y].append(line)
            # the planes through the line: the points of its dual line
            u0, u1 = nullspace(field, basis, width)
            planes_of.append([index[u1]] + [index[tuple(sub_row(c, u0, u1))]
                                            for c in range(q)])
            rest &= ~mask
    stars = [None] * len(search.points)
    for x in ids:
        star = {}
        for line in lines_at[x]:
            for plane in planes_of[line]:
                star.setdefault(plane, []).append(line)
        stars[x] = (list(star.items()), lines_at[x])
    # from the top down: D grows by b after b's sums are read.  in_d[L]
    # is k_L, and the collinear triples of D are kept in all and per
    # plane
    in_d = [0] * len(masks)
    collinear, in_plane = 0, [0] * len(search.points)
    base, ends = [0] * len(search.points), [None] * len(search.points)
    for b in reversed(ids):
        spread, diff = 0, {}
        for plane, lines in stars[b][0]:
            e1 = e2 = e3 = through = 0
            for line in lines:
                k = in_d[line]
                e3 += k * e2
                e2 += k * e1
                e1 += k
                through += _triples(k)
            spread += e3
            # the plane's e3, less its collinear triples off b
            diff[plane] = e3 - in_plane[plane] + through
        lines = stars[b][1]
        base[b] = collinear - sum(_triples(in_d[line]) for line in lines) - spread
        ends[b] = {line: sum(diff[plane] for plane in planes_of[line])
                   for line in lines}
        for line in lines:
            k = in_d[line]
            in_d[line] = k + 1
            if k > 1:
                k2 = k * (k - 1) // 2
                collinear += k2
                for plane in planes_of[line]:
                    in_plane[plane] += k2
    search.space = (masks, points_on, pooled, planes_of, stars, base, ends)


def _triples(k: int) -> int:
    """C(k, 3): the 3-sets of k points."""
    return k * (k - 1) * (k - 2) // 6
