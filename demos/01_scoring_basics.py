"""
Scoring graph sequences
=======================

A temporal graph is a sequence of frames over one shared vertex set.  This
walk-through builds a tiny two-frame instance, round-trips it through the
text format, and evaluates every aggregate-density objective exactly.
"""

from dcs import AA, AM, KMA, MA, MM, parse, score, serialize

# frame 0 has one edge; frame 1 adds a second edge hanging off vertex 1
text = """\
3 2
0 0 1
1 0 1
1 1 2
"""
g = parse(text)
print(f"instance: n={g.n}, T={g.T}, frames={g.frames}")

# serialization is canonical: parse(serialize(g)) is byte-for-byte stable
assert serialize(g) == text

# per-frame densities |E_t[S]| / |S| for the full vertex set: the
# quantities the MA score takes the minimum of
print("densities of V:", score(g, range(g.n), MA).per_frame)

# the five objectives, all exact rationals (no floating point anywhere)
for kind in (MM, MA, AM, AA, KMA(1), KMA(2)):
    s = score(g, range(g.n), kind)
    print(f"{kind!r:>8} value={s.value}    per-frame={s.per_frame}")

# the pair {0, 1} looks better under the min-over-frames density:
# both frames induce the single edge (0, 1), giving 1/2 in each
print("MA of {0,1}:", score(g, [0, 1], MA).value)
print("MA of V:   ", score(g, [0, 1, 2], MA).value)
