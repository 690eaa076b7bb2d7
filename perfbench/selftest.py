#!/usr/bin/env python3
"""Self-checks of the benchmark; a few minutes, not part of measured runs.

From the root of a checkout:

    python3 perfbench/selftest.py

1. Determinism: two traced runs with one seed print the same op-sequence
   digest and identical counts; another seed changes the digest.
2. Injected slowdown: a benchmark-side 1 ms delay inside every timed
   Validate call moves core.validate_ms and compile-cold latency_p50_ms
   by about 1 ms, and leaves exec-suite latency_p50_ms flat (its ops
   never validate).
3. Injected corruption: one corrupted output is counted as a failed op.

Exits non-zero when a check fails.
"""

import json
import subprocess
import sys

WORKLOADS = ("exec-suite", "compile-cold", "optimize", "serve-mixed")
MEMBERS = ("gemm", "jacobi", "cfd", "attention", "conv", "stream-window")
# Counts printed as metrics on every workload, or as notes on one.
COUNTS = ("core.ir_nodes", "interp.kernel_maps", "interp.kernel_fallbacks",
          "interp.fallback_nodes", "opt.tried", "opt.applied", "opt.pruned") + tuple(
    f"interp.{count}.{m}" for count in ("elements_moved", "minor_words")
    for m in MEMBERS)

failures = []


def run(workload, seed, seconds, trace, *faults):
    """Digest, result object, and every metric and note by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    for fault in faults:
        cmd += ["--inject", fault]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("op_sequence_digest "))
    result = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    return digest, result, values


def check(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def determinism():
    for w in WORKLOADS:
        d1, _, m1 = run(w, 7, 2, 1)
        d2, _, m2 = run(w, 7, 2, 1)
        d3, _, _ = run(w, 8, 2, 1)
        check(d1 == d2, f"{w}: one seed gives one op-sequence digest")
        check(d1 != d3, f"{w}: another seed gives another digest")
        moved = [c for c in COUNTS if m1.get(c) != m2.get(c)]
        check(not moved, f"{w}: counts repeat exactly {moved or ''}")


def slowdown():
    _, _, base = run("compile-cold", 3, 3, 0)
    _, _, slow = run("compile-cold", 3, 3, 0, "validate-delay")
    # latency_p50_ms is scaled by the host canary; the sleep is not, so on
    # a slow host it shows as less than 1 ms.
    gain = slow["latency_p50_ms"] - base["latency_p50_ms"]
    check(gain >= 0.5, f"compile-cold latency_p50_ms +{gain:.3f} ms under the delay")
    gain = slow["raw.latency_p50_ms"] - base["raw.latency_p50_ms"]
    check(gain >= 0.8,
          f"compile-cold raw.latency_p50_ms +{gain:.3f} ms under the delay")
    _, _, base = run("compile-cold", 3, 3, 1)
    _, _, slow = run("compile-cold", 3, 3, 1, "validate-delay")
    gain = slow["core.validate_ms"] - base["core.validate_ms"]
    check(gain >= 0.8, f"core.validate_ms +{gain:.3f} ms under the delay")
    _, _, base = run("exec-suite", 3, 3, 0)
    _, _, slow = run("exec-suite", 3, 3, 0, "validate-delay")
    ratio = slow["latency_p50_ms"] / base["latency_p50_ms"]
    check(0.8 <= ratio <= 1.25,
          f"exec-suite latency_p50_ms flat under the delay ({ratio:.2f}x)")


def corruption():
    for w in ("exec-suite", "compile-cold"):
        _, r, _ = run(w, 3, 1, 0, "corrupt-output")
        check(r["failed"] >= 1 and not r["correct"],
              f"{w}: a corrupted output counts as a failed op ({r['failed']})")


if __name__ == "__main__":
    determinism()
    slowdown()
    corruption()
    sys.exit(1 if failures else 0)
