"""Command-line surface.

Subcommands: rates, frontier, policy, simulate, verify. Human output
uses 4 decimals; files written with --out carry full double precision.
Exit codes: 0 success, 1 numerical failure, 2 config or argument
error, 3 infeasible or unstabilizable request, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .chain import max_service_rate, threshold_policy, threshold_rates
from .frontier import NotStabilizableError, frontier, policy_from_occupation, solve_lp
from .model import NumericalFailure, load_spec
from .sim import SimConfig, qbd_stationary, simulate
from .synthesis import GapUnachievableError, lift_policy, synthesize
from .verify import run_all


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _outdir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows):
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {path}")


def cmd_rates(spec, args) -> int:
    taus = range(1, spec.n_s + 2)
    rows = [(tau, *threshold_rates(spec, tau)) for tau in taus]
    print("tau  service   utilization")
    for tau, nu, u in rows:
        print(f"{tau:>3}  {nu:8.4f}  {u:11.4f}")
    nu_star, tau_star = max_service_rate(spec)
    print(f"maximal service rate {nu_star:.4f} at tau={tau_star}")
    out = _outdir(args)
    if out is not None:
        _write_csv(out / "rates.csv", ("tau", "service_rate", "utilization"), rows)
    return 0


def cmd_frontier(spec, args) -> int:
    front = frontier(spec)
    print("breakpoints (service rate, utilization):")
    for nu, u in front.breakpoints:
        print(f"  {nu:.4f}  {u:.4f}")
    out = _outdir(args)
    if out is not None:
        _write_csv(
            out / "frontier_breakpoints.csv",
            ("service_rate", "utilization"),
            [(float(a), float(b)) for a, b in front.breakpoints],
        )
        curve = front.sample(101)
        _write_csv(
            out / "frontier_curve.csv",
            ("service_rate", "utilization"),
            [(float(a), float(b)) for a, b in curve],
        )
    return 0


def cmd_policy(spec, args) -> int:
    result = synthesize(spec, args.lam, args.delta)
    phi = result.policy.base
    print(f"eps: {result.eps_star:.4g}")
    print(f"nu_bar: {result.nu_star_rate:.6f}")
    print("work probabilities (available states):", " ".join(f"{p:.4f}" for p in phi.work_prob))
    print(f"predicted utilization: {result.predicted_utilization:.6f}")
    print(f"verified utilization (exact QBD oracle): {result.verified_utilization:.6f}")
    print(
        f"queue: mean {result.mean_queue:.4g}, tail decay sp(R) {result.tail_decay:.6f}, "
        f"mass {result.tail_mass:.2e} above level K={result.q_max_used}"
    )
    print(f"delta: {result.bound_gap}")
    out = _outdir(args)
    if out is not None:
        payload = {
            "eps": result.eps_star,
            "nu_bar": result.nu_star_rate,
            "work_prob": [float(p) for p in phi.work_prob],
            "predicted_utilization": result.predicted_utilization,
            "verified_utilization": result.verified_utilization,
            "delta": result.bound_gap,
            "q_max": result.q_max_used,
            "tail_mass": result.tail_mass,
            "mean_queue": result.mean_queue,
            "tail_decay": result.tail_decay,
        }
        path = out / "policy.json"
        path.write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_simulate(spec, args) -> int:
    if (args.eps is None) != (args.nu_bar is None):
        print("error: --eps and --nu-bar must be given together", file=sys.stderr)
        return 2
    if args.eps is not None:
        res = solve_lp(spec, args.nu_bar, args.eps)
        if not res.feasible:
            print(f"error: LP infeasible at nu_bar={args.nu_bar}, eps={args.eps}", file=sys.stderr)
            return 3
        phi = policy_from_occupation(res.measure)
    else:
        _, tau_star = max_service_rate(spec)
        phi = threshold_policy(spec.n_s, tau_star)
    theta = lift_policy(phi)

    pmf = qbd_stationary(spec, args.lam, theta)
    u_oracle, s_oracle = pmf.utilization, pmf.service_rate

    cfg = SimConfig(horizon=args.horizon, replications=args.reps, seed=args.seed, trace=args.trace)
    start = time.perf_counter()
    sim = simulate(spec, args.lam, theta, cfg)
    seconds = time.perf_counter() - start
    print(f"policy work probabilities: {' '.join(f'{p:.4f}' for p in phi.work_prob)}")
    print(
        f"oracle (exact QBD): utilization {u_oracle:.6f}, service rate {s_oracle:.6f}, "
        f"mean queue {pmf.mean_queue:.4g}"
    )

    def se(value):  # one replication has no standard error
        return "n/a" if math.isnan(value) else f"{value:.2e}"

    print(
        f"pooled: utilization {sim.empirical_utilization:.6f} (se {se(sim.utilization_se)}), "
        f"service rate {sim.empirical_service_rate:.6f} (se {se(sim.service_rate_se)})"
    )
    print(
        f"deltas vs oracle: utilization {sim.empirical_utilization - u_oracle:+.6f}, "
        f"service rate {sim.empirical_service_rate - s_oracle:+.6f}"
    )
    steps = cfg.horizon * cfg.replications
    print(f"simulated {steps} steps in {seconds:.2f} s ({seconds / steps * 1e9:.0f} ns per step)")
    out = _outdir(args)
    if out is not None:
        header = (
            "rep", "utilization", "service_rate", "empty_fraction",
            "queue_mean", "queue_max", "utilization_minus_oracle",
        )
        rows = [
            (
                str(r),
                float(sim.rep_utilization[r]),
                float(sim.rep_service_rate[r]),
                float(sim.rep_empty_fraction[r]),
                float(sim.rep_queue_mean[r]),
                int(sim.rep_queue_max[r]),
                float(sim.rep_utilization[r] - u_oracle),
            )
            for r in range(cfg.replications)
        ]
        rows.append(
            (
                "pooled",
                sim.empirical_utilization,
                sim.empirical_service_rate,
                sim.empty_queue_fraction,
                sim.queue_mean,
                int(sim.queue_max),
                sim.empirical_utilization - u_oracle,
            )
        )
        _write_csv(out / "simulation.csv", header, rows)
        if sim.trace is not None:
            path = out / "trace.csv"
            header = "step,s,w,q,action,arrival,completion"
            np.savetxt(path, sim.trace, fmt="%d", delimiter=",", header=header, comments="")
            print(f"wrote {path}")
    return 0


def cmd_verify(spec, args) -> int:
    results = run_all(spec, seed=args.seed, lam=args.lam, only=args.only)
    for res in results:
        print(res.line())
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    out = _outdir(args)
    if out is not None:
        payload = [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail, "values": r.values}
            for r in results
        ]
        path = out / "verify.json"
        path.write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")
        print(f"wrote {path}")
    return 0 if passed == len(results) else 4


def _ranged(cast, must: str, ok):
    """An argparse type that casts the flag's text and requires ok of
    the value; argparse names the flag in the error and exits 2."""

    def parse(text):
        value = cast(text)
        if not ok(value):  # NaN fails every range
            raise argparse.ArgumentTypeError(f"must {must}, got {text}")
        return value

    parse.__name__ = cast.__name__  # a failed cast reads "invalid float value"
    return parse


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="model config file (YAML)")
    common.add_argument("--out", default=None, help="directory for full-precision output files")
    rate = _ranged(float, "lie in (0, 1)", lambda x: 0.0 < x < 1.0)  # every --lambda
    positive = _ranged(float, "be positive and finite", lambda x: 0.0 < x < math.inf)
    seed = _ranged(int, "be nonnegative", lambda x: x >= 0)

    p = argparse.ArgumentParser(prog="minwork", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rates", parents=[common], help="threshold service and utilization rates")
    sp.set_defaults(func=cmd_rates)

    sp = sub.add_parser("frontier", parents=[common], help="infimum-utilization frontier")
    sp.set_defaults(func=cmd_frontier)

    sp = sub.add_parser("policy", parents=[common], help="synthesize a near-optimal policy")
    sp.add_argument("--lambda", dest="lam", type=rate, required=True, help="arrival rate")
    sp.add_argument("--delta", type=positive, default=0.05, help="utilization gap target")
    sp.set_defaults(func=cmd_policy)

    sp = sub.add_parser("simulate", parents=[common], help="simulate a lifted policy")
    sp.add_argument("--lambda", dest="lam", type=rate, required=True, help="arrival rate")
    sp.add_argument("--eps", type=_ranged(float, "lie in [0, 1]", lambda x: 0.0 <= x <= 1.0),
                    default=None, help="LP floor for policy extraction")
    sp.add_argument("--nu-bar", dest="nu_bar", type=positive, default=None, help="LP service-rate target")
    sp.add_argument("--horizon", type=_ranged(int, "be at least 10", lambda x: x >= 10),
                    default=10**6, help="steps per replication")
    sp.add_argument("--reps", type=_ranged(int, "be at least 1", lambda x: x >= 1), default=5, help="replications")
    sp.add_argument("--seed", type=seed, default=0, help="RNG seed")
    sp.add_argument("--trace", action="store_true", help="write a per-step trace (large)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", parents=[common], help="run the built-in verification suite")
    sp.add_argument("--lambda", dest="lam", type=rate, default=0.15,
                    help="arrival rate of C9 and C11; C10 runs at its reference rate 0.15")
    sp.add_argument("--seed", type=seed, default=0, help="RNG seed")
    sp.add_argument("--only", nargs="+", default=None, metavar="ID", help="run only these criterion ids (e.g. C1 C4)")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help, or a flag's error (code 2)
        return exc.code
    try:
        spec = load_spec(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(spec, args)
    except (NotStabilizableError, GapUnachievableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # values no single flag's range can judge, such as an unknown check id
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
