#!/usr/bin/env python
"""Contraction, exponential decay and resolvent bounds of exp(-tA).

The semigroup of an accretive truncation never exceeds norm 1; on the
unit-measure two-rail graph the Cheeger lower bound 1/6 upgrades this to
||exp(-tA)|| <= exp(-t/6).  The resolvent obeys ||(A+lam)^{-1}|| <= 1/Re(lam)
on the right half-plane.
"""

import math

import numpy as np

import dirlap as dl

ladder = dl.make_ladder(dl.LadderSpec(depth=22, measure_mode="unit"))
op = dl.assemble(ladder, dl.ball(ladder, 0, 10), "laplacian")

print("t      ||exp(-tA)||    e^(-t/6)   within bound")
for t in (0.0, 0.5, 1.0, 2.0, 5.0):
    norm = dl.operator_norm_expm(op, t)
    bound = math.exp(-t / 6)
    print(f"{t:4.1f}   {norm:12.6e}   {bound:.6f}   {norm <= bound + 1e-9}")

v0 = np.zeros(op.n)
v0[op.row_of(0)] = 1.0
trace = dl.evolve_trace(op, v0, 0.0, 0.5, 11, lambda0=1 / 6)
print(f"\ntrace over {len(trace['times'])} times: flagged points {trace['flagged']} (none expected)")
print("state norm of the evolved unit impulse:", np.round(trace["state_norms"][:6], 6))

print("\nheat kernel positivity at t = 1:", dl.positivity_check(op, 1.0))

print("\nresolvent norms against 1/Re(lambda):")
for lam in (0.1, 1.0, 1 + 10j, 10.0):
    norm = dl.resolvent_norm(op, lam)
    print(f"lambda = {lam!s:8s}: {norm:.6f} <= {1 / complex(lam).real:.4f}")

print("\ncontraction also holds on random balanced graphs:")
for seed in (1, 2, 3):
    g = dl.make_random_balanced(12, seed=seed)
    rop = dl.assemble(g, dl.full_ball(g, 0), "laplacian")
    norms = [dl.operator_norm_expm(rop, t) for t in (0.5, 1.0, 2.0)]
    print(f"seed {seed}: norms {np.round(norms, 6)}")
