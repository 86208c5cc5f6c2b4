#!/usr/bin/env python3
"""Generate the ziggurat layer tables behind dsp::Xoshiro256::gaussian().

    python3 tools/gen_ziggurat.py           # rewrite src/dsp/ziggurat_tables.h
    python3 tools/gen_ziggurat.py --check   # exit 1 if the checked-in file differs

The tables describe Marsaglia & Tsang's 256-layer ziggurat for the
unnormalised density f(x) = exp(-x^2 / 2) on x >= 0, in Doornik's layout:

    x[0]   = V / f(R)             virtual width of the base layer (box + tail)
    x[1]   = R
    x[i+1] = f^-1(V / x[i] + f(x[i]))     for i = 1 .. 254
    x[256] = 0
    r[i]   = x[i+1] / x[i]        fast-path acceptance ratio of layer i

Every layer has area V. All arithmetic runs in 60-digit decimal, whose exp,
ln and sqrt are correctly rounded, and each entry is then rounded once to
the nearest double. The output therefore does not depend on the platform's
libm, and --check is exact on every machine.
"""

import argparse
import decimal
import sys
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "src" / "dsp" / "ziggurat_tables.h"

LAYERS = 256
R = Decimal("3.6541528853610088")
V = Decimal("4.92867323399e-3")


def tables():
    decimal.getcontext().prec = 60
    half = Decimal("0.5")

    def f(x):
        return (-half * x * x).exp()

    def f_inv(y):
        return (-2 * y.ln()).sqrt()

    x = [V / f(R), R]
    for i in range(1, LAYERS - 1):
        x.append(f_inv(V / x[i] + f(x[i])))
    # The top layer must close on f(0) = 1; R and V are chosen so it does.
    top = V / x[LAYERS - 1] + f(x[LAYERS - 1])
    if abs(top - 1) > Decimal("1e-9"):
        sys.exit(f"ziggurat does not close: V/x[255] + f(x[255]) = {top}")
    x.append(Decimal(0))
    r = [x[i + 1] / x[i] for i in range(LAYERS)]
    return [float(v) for v in x], [float(v) for v in r]


def emit_array(name, values):
    lines = [f"inline constexpr double {name}[{len(values)}] = {{"]
    for k in range(0, len(values), 3):
        row = ", ".join(v.hex() for v in values[k:k + 3])
        lines.append(f"    {row},")
    lines.append("};")
    return "\n".join(lines)


def render():
    x, r = tables()
    return "\n".join([
        "// Generated by tools/gen_ziggurat.py -- do not edit by hand.",
        "//",
        "// 256-layer Marsaglia-Tsang ziggurat for f(x) = exp(-x^2/2) with",
        f"// R = {R} and V = {V:.11e}.",
        "// kZigX[i] is the right edge of layer i (kZigX[0] = V / f(R) is the",
        "// base layer's virtual width, kZigX[256] = 0); kZigR[i] is",
        "// kZigX[i+1] / kZigX[i], the fast-path acceptance ratio of layer i.",
        "// See DESIGN.md \"Gaussian sampler\".",
        "#pragma once",
        "",
        "namespace itb::dsp::detail {",
        "",
        emit_array("kZigX", x),
        "",
        emit_array("kZigR", r),
        "",
        "}  // namespace itb::dsp::detail",
        "",
    ])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the checked-in header instead of "
                         "writing it")
    ap.add_argument("--out", type=Path, default=OUT,
                    help="header path (default: src/dsp/ziggurat_tables.h)")
    args = ap.parse_args()
    text = render()
    if args.check:
        current = args.out.read_text() if args.out.exists() else ""
        if current != text:
            print(f"{args.out} differs from the generator output; run "
                  "python3 tools/gen_ziggurat.py", file=sys.stderr)
            return 1
        print(f"{args.out} matches the generator output")
        return 0
    args.out.write_text(text)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
