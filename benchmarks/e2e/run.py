"""The repository's end-to-end benchmark: one command, five workloads.

Run one workload the way the benchmark driver does::

    python3 benchmarks/e2e/run.py --workload decode_burst --seed 1 --seconds 18 --trace 0

Run every workload, each in a fresh process, and keep the numbers::

    python3 benchmarks/e2e/run.py --all --seed 1 --repeats 5 --traced --out benchmarks/e2e/out/base.json

Compare two such files by the paired rule::

    python3 benchmarks/e2e/run.py compare parent.json change.json

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones; the names, units and regression bounds are those of ``BENCHMARK.json``
at the repository root.  Every run checks its outputs against the oracle and
exits non-zero on a mismatch.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Pinned before numpy is imported: shard processes are the parallelism this
#: benchmark measures, and on a two-core box BLAS threads would fight them.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from e2ebench import stats  # noqa: E402 - after the path and the thread pins

SMOKE_SECONDS = 0.3


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_classes() -> dict:
    from e2ebench.offline import DecodeBurst, EvalBatch
    from e2ebench.serving import RepeatHeavy, ShardedClosed, ThreadOpen

    return {cls.name: cls for cls in (DecodeBurst, EvalBatch, ThreadOpen, ShardedClosed, RepeatHeavy)}


# -- one workload, in this process ---------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, src: Path) -> dict:
    """Run one workload here and return its full result (metrics keyed as in the spec)."""
    if not (src / "repro").is_dir():
        raise SystemExit(f"no repro package under {src}: this benchmark measures the repository it sits in")
    sys.path.insert(0, str(src))
    from e2ebench.workload import run_traced, run_untraced

    spec = load_spec()
    section = spec["per_layer"] if traced else spec["end_to_end"]
    workload = workload_classes()[name](seed, smoke, OUT)
    result = (run_traced if traced else run_untraced)(workload, seconds)
    measured = result["metrics"]
    names = [metric["name"] for metric in section]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise SystemExit(f"{name} measured metrics BENCHMARK.json does not list: {', '.join(unknown)}")
    if not traced:
        missing = sorted(set(names) - set(measured))
        if missing:
            raise SystemExit(f"{name} did not measure: {', '.join(missing)}")
    # A layer this workload never calls did no work: it reads zero.
    result["metrics"] = {
        metric["name"]: {"value": float(measured.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in section
    }
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for metric, reading in result["metrics"].items():
        print(f"{name:15s} {metric:42s} {reading['value']:16.6f} {reading['unit']}")
    print(
        f"{name:15s} attempted {result['attempted']} failed {result['failed']} "
        f"outputs_sha256 {result['outputs_sha256']} (first {result['outputs_hashed']} outputs)"
    )
    if "samples" in result:
        print(f"{name:15s} latency samples {result['samples']['latency']} timed {result['samples']['timed_s']:.3f} s")
    if "trace_file" in result:
        for span, seconds in sorted(result["self_time_s"].items(), key=lambda item: -item[1]):
            print(f"{name:15s} self time {span:36s} {seconds:12.6f} s")
        print(f"{name:15s} {result['spans']} spans -> {result['trace_file']}")


def timed_seconds(args) -> float:
    if args.seconds is not None:
        return args.seconds
    return SMOKE_SECONDS if args.smoke else float(load_spec()["run_seconds"])


def single(args) -> int:
    seconds = timed_seconds(args)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.src)
    print_result(result)
    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(result) + "\n", encoding="utf-8")
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


# -- every workload, each in a fresh process -----------------------------------------------
def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=False
    ).stdout.strip()
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
    }


def run_all(args) -> int:
    spec = load_spec()
    seconds = timed_seconds(args)
    names = [workload["name"] for workload in spec["workloads"]]
    runs: dict = {name: {"end_to_end": {}, "per_layer": {}, "outputs_sha256": [], "attempted": 0, "failed": 0} for name in names}
    status = 0
    for repeat in range(args.repeats):
        for name in names:
            for traced in (False, True) if args.traced else (False,):
                report = OUT / f"report-{os.getpid()}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed + repeat),
                    "--seconds", str(seconds), "--trace", str(int(traced)), "--src", str(args.src), "--report", str(report),
                ] + (["--smoke"] if args.smoke else [])
                child = subprocess.run(command, capture_output=True, text=True, check=False)
                sys.stderr.write(child.stderr)
                if not report.exists():
                    print(f"{name}: run failed with exit code {child.returncode}", file=sys.stderr)
                    return child.returncode or 1
                result = json.loads(report.read_text(encoding="utf-8"))
                report.unlink()
                status = status or child.returncode
                entry = runs[name]
                section = entry["per_layer" if traced else "end_to_end"]
                for metric, reading in result["metrics"].items():
                    section.setdefault(metric, []).append(reading["value"])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                if not traced:
                    entry["outputs_sha256"].append(result["outputs_sha256"])
                print(
                    f"# repeat {repeat} seed {args.seed + repeat} {name} trace {int(traced)}: "
                    f"attempted {result['attempted']} failed {result['failed']}",
                    flush=True,
                )
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':15s} {'metric':42s} {'median':>16s} {'q1':>16s} {'q3':>16s} {'spread':>7s} {'n':>3s} unit")
    for name in names:
        for section in ("end_to_end", "per_layer"):
            for metric, values in runs[name][section].items():
                q1, median, q3 = stats.quartiles(values)
                print(
                    f"{name:15s} {metric:42s} {median:16.6f} {q1:16.6f} {q3:16.6f} "
                    f"{stats.spread(values):7.4f} {len(values):3d} {units[metric]}"
                )
        print(f"{name:15s} attempted {runs[name]['attempted']} failed {runs[name]['failed']} outputs_sha256 {runs[name]['outputs_sha256']}")
    if args.out:
        meta = {**machine(), "src": str(args.src.resolve()), "seed": args.seed, "repeats": args.repeats, "seconds": seconds, "smoke": args.smoke}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"meta": meta, "workloads": runs}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return status


# -- two result files ------------------------------------------------------------------------
def compare(parent_path: Path, change_path: Path) -> int:
    """One row per workload and end-to-end metric: the paired verdict, every ratio with its base."""
    spec = load_spec()
    parent = json.loads(parent_path.read_text(encoding="utf-8"))
    change = json.loads(change_path.read_text(encoding="utf-8"))
    for label, side in (("parent", parent), ("change", change)):
        meta = side["meta"]
        print(
            f"# {label}: commit {meta['commit']} src {meta['src']} seed {meta['seed']} repeats {meta['repeats']} seconds {meta['seconds']} "
            f"nproc {meta['nproc']} cpu {meta['cpu_model']} python {meta['python']} numpy {meta['numpy']} "
            f"blas {meta['blas']} pins {meta['thread_pins']}"
        )
    print(
        f"{'workload':15s} {'metric':16s} {'unit':6s} {'parent median':>14s} {'parent iqr':>12s} "
        f"{'change median':>14s} {'change/parent':>13s} {'wins':>7s} {'verdict':10s} bound"
    )
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            a = parent["workloads"].get(name, {}).get("end_to_end", {}).get(metric["name"], [])
            b = change["workloads"].get(name, {}).get("end_to_end", {}).get(metric["name"], [])
            verdict = stats.paired_verdict(a, b, metric["better"])
            worse_by = (verdict["ratio"] - 1.0) * (-1.0 if metric["better"] == "higher" else 1.0)
            bound = "beyond bound" if worse_by > metric["bound"] else "within bound"
            print(
                f"{name:15s} {metric['name']:16s} {metric['unit']:6s} {verdict['parent_median']:14.4f} "
                f"{verdict['parent_iqr']:12.4f} {verdict['change_median']:14.4f} {verdict['ratio']:13.4f} "
                f"{verdict['change_wins']:3d}/{verdict['pairs']:<3d} {verdict['verdict']:10s} {bound} ({metric['bound']:.2f})"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (repeat r of --all uses seed + r)")
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced run and per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="with --all: also make the traced run of each workload")
    parser.add_argument("--repeats", type=int, default=1, help="with --all: runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: checks names and outputs, not speed")
    parser.add_argument("--src", type=Path, default=REPO / "src", help="the src/ tree to measure")
    parser.add_argument("--out", type=Path, default=None, help="with --all: write every run's numbers here")
    parser.add_argument("--report", type=Path, default=None, help="with --workload: also write the full result here")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    return run_all(args) if args.all else single(args)


if __name__ == "__main__":
    sys.exit(main())
