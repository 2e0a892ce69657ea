"""Sweep the LP service-rate target down toward the arrival rate and
watch the lifted policy's queue-aware behavior approach the reduced
chain: utilization, busy-marginal L1 distance, and empty-queue mass.

Usage: python scripts/convergence_study.py [--config ...] [--lambda 0.15]
       [--eps 1e-3] [--points 8]
"""

import argparse
from pathlib import Path

import numpy as np

from minwork import frontier, lift_policy, load_spec, policy_from_occupation, qbd_stationary, solve_lp
from minwork.chain import stationary_pmf_y
from minwork.cli import _ranged


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--config",
        default=Path(__file__).resolve().parent.parent / "configs" / "example1.yaml",
    )
    ap.add_argument("--lambda", dest="lam", type=_ranged(float, "lie in (0, 1)", lambda x: 0.0 < x < 1.0), default=0.15)
    ap.add_argument("--eps", type=_ranged(float, "lie in [0, 1]", lambda x: 0.0 <= x <= 1.0), default=1e-3)
    ap.add_argument("--points", type=_ranged(int, "be at least 1", lambda x: x >= 1), default=8)
    args = ap.parse_args()
    spec = load_spec(args.config)

    front = frontier(spec)
    if not 0.0 < args.lam < front.nu_star:
        raise SystemExit(f"lambda must lie in (0, {front.nu_star:.4f})")
    floor = front(args.lam)
    print(f"frontier({args.lam}) = {floor:.6f}, nu_star = {front.nu_star:.6f}")
    print("nu_bar     lp_value   oracle_util  l1_distance  empty_mass  mean_queue")

    # geometric approach nu_bar -> lambda
    for m in range(1, args.points + 1):
        nu = args.lam + (front.nu_star - args.lam) * 2.0**-m
        res = solve_lp(spec, nu, args.eps)
        if not res.feasible:
            print(f"{nu:.6f}  infeasible")
            continue
        phi = policy_from_occupation(res.measure)
        theta = lift_policy(phi)
        pmf = qbd_stationary(spec, args.lam, theta)
        dist = float(np.sum(np.abs(stationary_pmf_y(spec, phi) - pmf.y_marginal)))
        print(
            f"{nu:.6f}  {res.value:9.6f}  {pmf.utilization:11.6f}"
            f"  {dist:11.6f}  {pmf.empty_mass():10.6f}  {pmf.mean_queue:10.4g}"
        )


if __name__ == "__main__":
    main()
