"""Map the stable region of the (theta, dt) plane for given damping terms.

Prints one row per time step and one column per theta; '#' marks parameter
pairs whose worst Fourier amplification exceeds 1 + 1e-12.
"""

import argparse
import math

from telespline import UniformMesh, stability_scan, stability_sweep


def linspace01(n):
    """n evenly spaced values from 0 to 1, bit for bit as numpy.linspace(0, 1, n)."""
    if n < 2:
        return [0.0] * n
    step = 1.0 / (n - 1)
    return [i * step for i in range(n - 1)] + [1.0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=4.0)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--n", type=int, default=40, help="mesh cells on [0, pi]")
    parser.add_argument("--thetas", type=int, default=21, help="theta samples on [0, 1]")
    args = parser.parse_args()

    mesh = UniformMesh(0.0, math.pi, args.n)
    thetas = linspace01(args.thetas)
    steps = [10.0**e for e in range(-3, 1)]

    print(f"alpha = {args.alpha}, beta = {args.beta}, h = pi/{args.n}")
    print("rows: dt, columns: theta from 0 to 1 ('.' stable, '#' unstable)\n")
    header = "          " + " ".join(f"{t:4.2f}" for t in thetas)
    print(header)
    for dt in steps:
        stable = stability_sweep(args.alpha, args.beta, thetas, dt, mesh).stable
        cells = ["  . " if s else "  # " for s in stable]
        print(f"dt={dt:<7g}" + " ".join(cells))

    # the boundary of exact marginal stability: theta = 1/2 with no damping
    report = stability_scan(0.0, 0.0, 0.5, 1.0, mesh)
    print(
        f"\nundamped midpoint check: max|delta| = {report.max_amplification:.12f} "
        f"({'stable' if report.stable else 'unstable'})"
    )


if __name__ == "__main__":
    main()
