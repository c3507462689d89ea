"""Rewrite bench/records.json: the pinned outputs the benchmark checks.

    python3 bench/record.py

Run from the root of a checkout whose outputs are the reference.  Every
item of the float, cone and command universes (both the tuning and the
held-out ones, as listed in strata.json) runs once, and so does each
verify suite.  Only output that must stay byte-identical is recorded:
suites at their default seed, regular-point vertical fibers, limits and
verdict certificates.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import weilkit as wk  # noqa: E402

import workloads as W  # noqa: E402


def record_floats():
    out = {}
    for k in W.items("float"):
        text, at, order = W.float_item(k)
        f = wk.parse_map(text)
        coeffs = wk.jet(f, at, order, wk.Mode.FLOAT)[0]
        out[str(k)] = {"text": W.digest(text), "values": [float(W.num(c)) for c in coeffs]}
    return out


def record_cones():
    expect = {"is_limit_cone": True, "microlinear1": True, "microlinear2": True,
              "microlinear3": True, "mutant": False}
    out = {}
    for i in W.items("cones"):
        calls = W.cone_calls(*W.cone_item(i))
        rec = {kind: calls[kind]() for kind in W.CONE_KINDS}
        for kind, ok in expect.items():
            if rec[kind][0] is not ok:
                raise SystemExit(f"cone item {i}: {kind} gave {rec[kind]}")
        out[str(i)] = rec
    return out


def record_verify():
    return {name: W.run_cli(argv) for name, argv in W.VERIFY_SUITES.items()}


def record_commands():
    out = {}
    for kind in W._CMD_KINDS:
        for k in W.items("commands", kind):
            argv = W.command_item(kind, k)
            code, text = W.cli_output(argv)
            if code != 0:
                raise SystemExit(f"command {kind}:{k} exited {code}: {argv}")
            if kind == "vertical" and ("regular: true" not in text and "regular=true" not in text):
                raise SystemExit(f"command {kind}:{k} is at an irregular point: {argv}")
            out[f"{kind}:{k}"] = {"argv": W.digest("\0".join(argv)), "out": [code, W.digest(text)]}
    return out


def main():
    records = {
        "float": record_floats(),
        "commands": record_commands(),
        "cones": record_cones(),
        "verify": record_verify(),
    }
    with open(os.path.join(HERE, "records.json"), "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
