"""loadcast benchmark: one workload, one seed, one measuring time.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run it from the repository root. It imports loadcast from ``src/`` of the
same checkout. It prints the workload's own metrics and the environment,
then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Everything it writes goes under
``.perfbench-out/`` at the repository root. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# setup_s is this percentile of the timed set-up samples, as round_p90_ms
# is of the rounds
SETUP_PERCENTILE = 90
# the end-to-end metrics of BENCHMARK.json; the other figures of a run are
# printed and kept in its result file
END_TO_END = {"setup_s": "s", "round_p90_ms": "ms", "peak_rss_mb": "MB"}


def _blas() -> dict:
    """BLAS build and thread count as loaded in this process; nothing is set."""
    import numpy as np

    info = {"blas": None, "blas_config": None, "blas_threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            libs = dict.fromkeys(line.split()[-1] for line in fh
                                 if "blas" in line.lower() and ".so" in line)
    except OSError:
        libs = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["blas_threads"] = threads()
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["blas_config"] = config().decode()
                    return info
    return info


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    env.update(_blas())
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "loadcast" / "__init__.py").is_file():
        print(f"error: no loadcast package under {src}; run from a loadcast checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, Gate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        return _run(args, WORKLOADS[args.workload], Gate(), out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class SetupSampler:
    """Times set-ups of a workload at even intervals through the run.

    The host's CPU speed changes in phases that can outlast a set-up
    phase placed before the rounds, so samples are spread over the whole
    measuring time and meet the same phases as the rounds do. The first
    sample sets up the workload that the rounds use; later ones set up a
    fresh instance and throw it away.
    """

    def __init__(self, cls, work: Path, seed: int, gate, every: float):
        self.cls, self.work, self.seed, self.gate = cls, work, seed, gate
        self.every = every
        self.times: list[float] = []   # seconds, one per set-up
        self.last = time.perf_counter()

    def sample(self):
        """Set up a fresh instance in a fresh directory; return both."""
        instance = self.cls()
        where = self.work / f"setup{len(self.times)}"
        where.mkdir()
        t0 = time.perf_counter()
        instance.setup(where, self.seed, self.gate)
        self.times.append(time.perf_counter() - t0)
        self.last = time.perf_counter()
        return instance, where

    def __call__(self) -> float:
        """Between rounds: take a sample if one is due; return the seconds
        it took, which do not count towards the measuring time."""
        t0 = time.perf_counter()
        if t0 - self.last < self.every:
            return 0.0
        _, where = self.sample()
        shutil.rmtree(where)
        return time.perf_counter() - t0


def _run(args, cls, gate, out: Path, work: Path) -> int:
    from workloads import percentile

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer, install

        tracer = Tracer(work / "children")
        tracer.child_dir.mkdir()
        install(tracer, layers.targets())

    sampler = SetupSampler(cls, work, args.seed, gate,
                           args.seconds / max(cls.setup_samples - 1, 1))
    workload, _ = sampler.sample()
    t0 = time.perf_counter()
    measured = workload.measure(args.seconds, tracer, gate, sampler)
    timed_s = time.perf_counter() - t0
    setup_s = sampler.times

    p90_ms = percentile([1e3 * d for d in measured.rounds], 90)
    # pool workers (grid) have exited and been waited for by now
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    end_to_end = {
        "setup_s": percentile(setup_s, SETUP_PERCENTILE),
        "round_p90_ms": p90_ms,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    record = {
        "env": env,
        "setup_s_each": setup_s,
        "rounds": len(measured.rounds),
        "timed_s": timed_s,
        "end_to_end": end_to_end,
        "workload_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in measured.named.items()},
        "error_rate": gate.failed / max(gate.attempted, 1),
        "failures": gate.failures,
    }

    print("env " + json.dumps(env, sort_keys=True))
    print(f"rounds {len(measured.rounds)}, set-up samples {len(setup_s)}, "
          f"timed {timed_s:.2f} s")
    prefix = "traced " if tracer else ""
    for name, value in end_to_end.items():
        print(f"{prefix}{name} = {value:.6g} {END_TO_END[name]}")
    for name, (value, unit) in measured.named.items():
        print(f"{prefix}{name} = {value:.6g} {unit}")
    print(f"error_rate = {record['error_rate']:.6g} ({gate.failed}/{gate.attempted})")
    for failure in gate.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        import layers

        tracer.collect_children()
        facts = {k: v for k, (v, _) in measured.named.items() if k.startswith("experiments.")}
        facts.update(round_p90_ms=p90_ms, rounds_s=sum(measured.rounds))
        per_layer = layers.layer_metrics(tracer.spans, facts)
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]}
                   for k, v in per_layer.items()}
        record["per_layer"] = per_layer
        for name, value in per_layer.items():
            if value:
                print(f"{name} = {value:.6g} {layers.PER_LAYER[name][0]}")
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]))
        record["spans_file"] = spans_path.name

    result_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
