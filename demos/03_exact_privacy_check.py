"""Exact likelihood-ratio check on a small integer instance.

Under integer noise the output distribution of a small workload can be
computed exactly.  Every draw is held to a box whose outside mass is below
1e-12.  The default oracle goes query by query: for each threshold draw it
takes the law of each query's answer from the noise pmf, multiplies along
the output prefixes, and sums over the threshold draw.  Running the
mechanism on every tape of the box, each weighted by its probability, is
the independent cross-check (``method="per-tape"``).  Comparing the two
sides output by output tests the differential-privacy inequality itself,
not a proxy.
"""

from gapsvt import (
    SVT_GAP,
    Side,
    Workload,
    enumerate_output_dist,
    max_privacy_loss,
    mc_output_dist,
    tv_distance,
)

w = Workload.from_values([(1, 0), (0, 1)], threshold=0, k=1, epsilon=1.0)

p = enumerate_output_dist(SVT_GAP, w, Side.D)
q = enumerate_output_dist(SVT_GAP, w, Side.DPRIME)
print(f"grid: {p.meta['grid_points']:,} tapes, per-coordinate bounds {p.meta['bounds']}")
print(f"distinct outputs: {len(p.masses)}; unassigned tail mass {p.truncation_loss:.2e}")

print("\nlargest-mass outputs on side D:")
for key, mass in sorted(p.masses.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  {key!r:30} {mass:.6f}   (D' side: {q.masses.get(key, 0.0):.6f})")

loss = max_privacy_loss(p, q)
print(f"\nmax |log ratio| padded by the tail bound: {loss.padded_max:.6f}")
print(f"certified upper-bound statistic:          {loss.certified_max:.6f}")
print(f"epsilon:                                  {w.epsilon}")
assert loss.certified_max <= w.epsilon + 1e-9
print("the likelihood-ratio bound holds on this instance")

# cross-check the enumeration against plain sampling
mc = mc_output_dist(SVT_GAP, w, Side.D, samples=10**6, seed=5)
print(f"\ntotal variation vs a 1e6-sample Monte Carlo run: {tv_distance(p, mc):.2e}")
