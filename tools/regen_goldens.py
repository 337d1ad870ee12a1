#!/usr/bin/env python3
"""Regenerate the unit-disk golden values used by the regression tests.

The values are the closed forms of the unit disk: lambda0 = j01^2,
lambda1 = 2 j01^2, lambda2 = 3 j01^2, flux0 = flux1 = j01/sqrt(pi).  The
script refuses to write the fixture unless the series and recurrence routes
give j01 to within 1e-13 of each other and disk_asymptotic_coeffs reproduces
every closed form, so a broken zero finder or coefficient routine cannot
silently refresh the goldens.

Usage: python tools/regen_goldens.py [output-path]
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thinspec import bessel  # noqa: E402


def main(out_path):
    j01 = bessel.bessel_j_zero(0, 1)
    j01_rec = bessel.bessel_j_zero(0, 1, method="recurrence")
    if abs(j01 - j01_rec) > 1e-13:
        sys.exit(f"zero-finding routes disagree on j01 by {abs(j01 - j01_rec):.3e}")
    j11 = bessel.bessel_j_zero(1, 1)

    closed = {
        "lambda0": j01**2,
        "lambda1": 2.0 * j01**2,
        "lambda2": 3.0 * j01**2,
        "flux0": j01 / math.sqrt(math.pi),
        "flux1": j01 / math.sqrt(math.pi),
    }
    coeffs = bessel.disk_asymptotic_coeffs(1.0)
    for key, value in closed.items():
        got = getattr(coeffs, key)
        if abs(got - value) > 1e-15 * abs(value):
            sys.exit(f"disk_asymptotic_coeffs gives {key} = {got!r}, closed form {value!r}")

    lines = [
        "# unit-disk golden values (15 significant digits)",
        "# regenerate with: python tools/regen_goldens.py",
        f"j01 {j01:.15g}",
        f"j11 {j11:.15g}",
    ] + [f"{key} {value:.15g}" for key, value in closed.items()]
    Path(out_path).write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else str(
        Path(__file__).resolve().parents[1] / "tests" / "goldens" / "unit_disk.txt"
    )
    main(out)
