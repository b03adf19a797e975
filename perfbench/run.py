"""Host-throughput benchmark of the FlowGNN reproduction, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload serve_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``items_per_s``
and ``peak_rss_mb``, plus ``errors`` (failed checks over checks attempted).
``--trace 1`` is the separate traced run: it times half of ``--seconds``
untraced, then the other half with spans recorded around the program's
public calls, prints every per-layer metric and the tracing overhead, and
writes the spans to ``.perfbench_out/``.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before any import of the program: setup_s counts imports

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MiB"}


def use_source_tree() -> None:
    """Import the program from this checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def digest(payload) -> str:
    """SHA-256 over the canonical JSON of every simulated statistic."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_loop(bench, state, seconds: float, tracer=None):
    """Repeat one unit of work for about ``seconds``.

    A unit starts only while the previous unit's duration still fits in the
    budget, and at least one always runs.  The host speed is sampled before
    the first unit and after every unit, and each unit's rate is divided by
    the mean of the samples on either side of it.  With a
    ``tracer`` each unit runs inside an ``iteration`` span.  Returns the
    per-unit rates, the speed samples, the digest of each unit's simulated
    statistics and the last result.
    """
    rates: List[float] = []
    speeds = [hostspeed.speed()]
    digests: List[str] = []
    result = None
    spent = last = 0.0
    while not rates or spent + last <= seconds:
        result = None  # let the previous unit's result go before the next runs
        started = time.perf_counter()
        if tracer is None:
            result = bench.run(state)
        else:
            with tracer.span("iteration"):
                result = bench.run(state)
        last = time.perf_counter() - started
        spent += last
        speeds.append(hostspeed.speed())
        rates.append(bench.items(result) / last / ((speeds[-2] + speeds[-1]) / 2))
        digests.append(digest(bench.payload(result)))
    return rates, speeds, digests, result


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    spans_path: Optional[str] = None,
) -> Dict:
    """Run one workload; returns metrics, checks, digest and (traced) spans."""
    use_source_tree()
    from tracing import Shims, Tracer, summarise
    from workloads import PER_LAYER, WORKLOADS

    bench = WORKLOADS[workload](scale)
    out: Dict = {"workload": workload, "seed": seed, "trace": trace, "checks": {}}

    if not trace:
        setups: List[float] = []
        imports = time.perf_counter() - _STARTED
        setup_speeds = [hostspeed.speed()]
        for _ in range(SETUP_REPEATS):
            state = None  # release the previous set-up before building the next
            begun = time.perf_counter()
            state = bench.setup(seed)
            setups.append(time.perf_counter() - begun)
            setup_speeds.append(hostspeed.speed())
        rates, speeds, digests, result = timed_loop(bench, state, seconds)
        setup_s = imports + statistics.median(setups)
        out["metrics"] = {
            "setup_s": setup_s * statistics.median(setup_speeds),
            "items_per_s": statistics.median(rates),
        }
        out["host"] = {
            "host_speed": statistics.median(setup_speeds + speeds),
            "setup_s_unscaled": setup_s,
        }
    else:
        tracer = Tracer(workload)
        with Shims() as shims, tracer.span("setup"):
            bench.setup_shims(shims, tracer)
            state = bench.setup(seed)
        setup_stats = summarise(tracer.spans)
        mark = len(tracer.spans)
        plain_rates, speeds, plain_digests, _ = timed_loop(bench, state, seconds / 2)
        with Shims() as shims:
            bench.run_shims(shims, tracer, state)
            rates, traced_speeds, digests, result = timed_loop(
                bench, state, seconds / 2, tracer
            )
        out["host"] = {"host_speed": statistics.median(speeds + traced_speeds)}
        run_stats = summarise(tracer.spans[mark:])
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(
            bench.layer_metrics(setup_stats, run_stats, len(rates), state, result)
        )
        overhead = statistics.median(plain_rates) / statistics.median(rates) - 1.0
        metrics["trace.overhead_frac"] = overhead
        out["metrics"] = metrics
        out["units"] = dict(PER_LAYER, **{"trace.overhead_frac": "fraction"})
        out["checks"]["traced digest == untraced digest"] = digests[0] == plain_digests[0]
        digests = plain_digests + digests
        out["spans"] = tracer.spans
        out["spans_path"] = spans_path
        if spans_path:
            tracer.write(spans_path)

    out["checks"]["every unit gives the same digest"] = len(set(digests)) == 1
    out["checks"].update(bench.checks(state, result))
    out["digest"] = digests[0]
    out["units_run"] = len(rates)
    if not trace:
        out["metrics"]["peak_rss_mb"] = peak_rss_mb()
        out["units"] = dict(END_TO_END)
    return out


def render(out: Dict, cpus: int) -> List[str]:
    """The printed report: one line per metric with its unit, the error
    fraction, the digest, and last the JSON result line."""
    failed = sum(1 for ok in out["checks"].values() if not ok)
    attempted = len(out["checks"])
    lines = [
        f"workload {out['workload']} seed {out['seed']} trace {int(out['trace'])} "
        f"cpus {cpus} units {out['units_run']}"
    ]
    lines += [f"{name} {value:.6g} {out['units'][name]}" for name, value in out["metrics"].items()]
    lines += [f"{name} {value:.6g} (not a metric)" for name, value in out["host"].items()]
    lines.append(f"errors {failed / attempted:.6g} fraction ({failed} of {attempted} checks failed)")
    if out["trace"]:
        lines.append(f"tracing overhead {out['metrics']['trace.overhead_frac']:.2%} of items_per_s")
        lines.append(f"spans {len(out['spans'])} written to {out['spans_path']}")
    lines.append(f"digest {out['digest']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": out["units"][name]}
            for name, value in out["metrics"].items()
        },
    }
    lines.append(json.dumps(result))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_source_tree()
    try:
        from workloads import WORKLOADS, cpu_count
    except ImportError as error:
        print(f"perfbench: cannot import the program from {SRC}: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    spans_path = None
    if args.trace:
        spans_path = os.path.join(
            ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
    out = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path
    )

    failed = [name for name, ok in out["checks"].items() if not ok]
    for name in failed:
        print(f"FAILED check: {name}", file=sys.stderr)
    print("\n".join(render(out, cpu_count())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
