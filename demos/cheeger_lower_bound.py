#!/usr/bin/env python
"""Cheeger quotients and the lower bound on Re W of the truncated operator.

With unit vertex measure, the isoperimetric quotient of the nested sets
V_n = {origin, first n spheres} of the two-rail graph is 2(n+1)/(2n+1),
decreasing to 1.  With h = 1 and maximal degree 3 the real part of the
numerical range is bounded below by h^2/(2*3) = 1/6; the truncations sit
well above that line.
"""

import dirlap as dl

ladder = dl.make_ladder(dl.LadderSpec(depth=22, measure_mode="unit"))

print("n   quotient 2(n+1)/(2n+1)")
family = [dl.ball(ladder, 0, n).vertices for n in range(1, 22)]
for n, member in zip((1, 2, 5, 10, 21), (family[0], family[1], family[4], family[9], family[20])):
    value = dl.cheeger_nested(ladder, [member]).value
    print(f"{n:2d}   {value:.6f}")

nested = dl.cheeger_nested(ladder, family)
print(f"family minimum: {nested.value:.6f} at member {nested.witness_index} (tends to 1)")

bound = dl.cheeger_bound_check(ladder, dl.ball(ladder, 0, 10), h=1.0)
print(f"\nlower bound h^2/(2M) = {bound.lambda0:.6f} with M = {ladder.max_degree}")
for radius in (5, 10, 20):
    ball = dl.ball(ladder, 0, radius)
    sample = dl.numrange_boundary(dl.assemble(ladder, ball, "laplacian"), 36)
    print(f"radius {radius:2d}: min Re W = {sample.min_real:.6f}  >= 1/6: {sample.min_real >= 1/6}")

print("\nexact small-graph constants (connected-subset enumeration):")
two = dl.DirectedGraph([("u", 1.0), ("v", 1.0)], [("u", "v", 1.0), ("v", "u", 1.0)])
print("single edge:", dl.cheeger_bruteforce(two).value)
# The quotients read sqrt(b') with b' = (b + b~)/2, so the directed graph needs no symmetrizing.
small = dl.make_random_balanced(10, seed=4)
vertices = [(small.label(x), 1.0) for x in small.vertex_ids()]
edges = [(small.label(x), small.label(y), w) for x, y, w in small.iter_edges()]
unit = dl.DirectedGraph(vertices, edges)
result = dl.cheeger_bruteforce(unit)
print(f"random balanced, symmetrized: h = {result.value:.4f}, witness {result.witness}")
