#!/usr/bin/env python3
"""Lowest-eigenvalue scan over the coupling and the radius.

Estimates lambda0 from the large-T slope of the log partition function at
several couplings, then probes the conjectured large-R growth by fitting the
log-log slope of lambda0(mu_R) against R.  Directional output only: the R^2
law is an asymptotic statement far beyond desk scale.
"""

import argparse
import json

import sinhgordon as sg
from sinhgordon.parallel import stateless_children
from sinhgordon.smc import SmcSettings, smc_log_partition


def lambda0_at(params, t_list, dt, n_modes, theta_cells, particles, runs, seed):
    settings = SmcSettings(n_particles=particles, n_runs=runs)
    pairs = smc_log_partition(params, t_list, dt, n_modes, theta_cells, settings, seed)
    fit = sg.lambda0_fit(t_list, pairs)
    return fit.value, fit.std_error, pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--radii", type=float, nargs="+", default=[1.0, 2.0, 4.0])
    ap.add_argument("--t-list", type=float, nargs="+", default=[1.0, 1.5, 2.0, 3.0])
    ap.add_argument("--dt", type=float, default=1 / 16)
    ap.add_argument("--n-modes", type=int, default=48)
    ap.add_argument("--theta-cells", type=int, default=96)
    ap.add_argument("--particles", type=int, default=2048)
    ap.add_argument("--runs", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="lambda0_scan.json")
    args = ap.parse_args()

    rows = []
    # radius i draws from the i-th child of the seed, so no two scans share a stream
    for radius, child in zip(args.radii, stateless_children(args.seed, len(args.radii))):
        p = sg.validate_params(args.gamma, args.mu, radius)
        lam, se, pairs = lambda0_at(p, args.t_list, args.dt, args.n_modes,
                                    args.theta_cells, args.particles, args.runs, child)
        print(f"R={radius}: mu_R={p.mu_scaled:.4f}  lambda0={lam:.4f} +- {se:.4f}")
        rows.append({"radius": radius, "mu_scaled": p.mu_scaled, "lambda0": lam,
                     "std_error": se,
                     "log_z_curve": [{"t_half": t, "log_z": v, "se": s}
                                     for t, (v, s) in zip(args.t_list, pairs)]})

    payload = {"rows": rows}
    if len(args.radii) >= 3:
        probe = sg.lambda0_scaling_probe(args.radii, [(r["lambda0"], r["std_error"])
                                                      for r in rows])
        print(f"log-log slope of lambda0 vs R: {probe.value:.3f} +- {probe.std_error:.3f} "
              "(EXPERIMENTAL, directional only)")
        payload.update({"slope": probe.value, "slope_se": probe.std_error})
    else:
        print("fewer than 3 radii: skipping the growth-exponent probe")
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
