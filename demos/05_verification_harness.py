"""The Monte-Carlo verification harness and its independent oracles.

Every identity, special-value recovery and certified inequality can be
exercised in bulk on reproducible Dirichlet pairs.  Reports are
deterministic functions of the configuration, violations are shrunk toward
the uniform pair and recorded as witnesses (none arise here), and the bound
engine is cross-validated against a deliberately plain dense-grid oracle.
"""

from divbound import InequalityFamily, VerifyConfig, brute_force_mM, numeric_mM, run, tightness_scan
from divbound.bounds import family_generators

config = VerifyConfig(
    trials=400,
    n_range=(2, 6),
    seed=7,
    concentration=1.0,
    subjects=("identities", "families", "corollaries"),
)
report = run(config)
print(f"checks run: {len(report.checks)}   all passed: {report.all_passed}"
      f"   wall time: {report.wall_time:.2f}s")

worst_res = max(
    (r for r in report.checks.values() if r.kind == "residual"),
    key=lambda r: r.worst_slack,
)
worst_slk = min(
    (r for r in report.checks.values() if r.kind == "slack"),
    key=lambda r: r.worst_slack,
)
print(f"largest identity residual : {worst_res.worst_slack:.3e}")
print(f"smallest inequality slack : {worst_slk.worst_slack:.3e}")

print()
print("numeric enclosure vs plain-grid oracle on family X at s=3, t=2:")
num, den = family_generators(InequalityFamily.X, 3.0, 2.0)
for (r, R) in [(0.25, 4.0), (0.6, 1.8), (1.0, 15.0)]:
    nm, nM = numeric_mM(num, den, r, R)
    bm, bM = brute_force_mM(num, den, r, R, 100_000)
    print(f"  [{r:>5}, {R:>5}]  enclosure ({nm:.10f}, {nM:.10f})"
          f"  grid ({bm:.10f}, {bM:.10f})")

print()
print("empirical sharpness: contracting pairs toward uniform drives the")
print("sandwich slack to zero (family II at s=2, t=1):")
scan = tightness_scan(InequalityFamily.II, 2.0, 1.0, trials=60, seed=3, shrink_levels=12)
print(f"  pairs evaluated: {scan.pairs_evaluated}")
print(f"  smallest lower slack: {scan.min_slack_low:.3e}")
print(f"  smallest upper slack: {scan.min_slack_high:.3e}")
