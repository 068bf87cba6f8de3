"""eigenweight benchmark: one workload per process, every job through the CLI.

    python3 bench/run.py --workload one-shot-mix --seed 1 --seconds 57 \
        --trace 0

A single closed-loop client runs the workload's jobs one after another
through ``eigenweight.cli.main(argv)``.  One *pass* is the whole job list
once; passes repeat until ``--seconds`` is used up, and each pass starts
from cleared library caches, the state a fresh CLI process has, so that
neither time nor memory depends on how many passes fit.

``--trace 0`` reports the end-to-end metrics: mean pass wall time and
median set-up time over three fresh set-ups, both scaled to a nominal host
speed by a reference kernel timed between the jobs (``reference.py``),
and peak RSS.  ``--trace 1``
spends half the time on untraced passes and half on traced ones and
reports the per-layer metrics of ``tracing.LAYER_METRICS``.  Every job's
outputs are checked after the timed phase; the last stdout line is the
JSON result.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

NPROC = len(os.sched_getaffinity(0))
#: BLAS threads are fixed before numpy loads its BLAS library
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "eigenweight").is_dir():
    sys.exit(f"no eigenweight sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import eigenweight  # noqa: E402
import eigenweight.cli  # noqa: E402

from checks import check_job  # noqa: E402
from reference import CHUNK_NOMINAL_S, Reference  # noqa: E402
from tracing import (  # noqa: E402
    LAYER_METRICS, Tracer, layer_metrics, self_time_by_job)
from workloads import WORKLOADS, make_jobs, warmup_job  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: set-up is sampled this many times per run (this process plus children)
SETUP_SAMPLES = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
#: reference-kernel time run before each job, as a share of that job's
#: previous wall time; before a job's first run it is REFERENCE_FIRST_S
REFERENCE_SHARE = 0.5
REFERENCE_FIRST_S = 0.5
#: reference-kernel time run right after each set-up
SETUP_REFERENCE_S = 0.5


class SetupError(RuntimeError):
    """Input generation or warm-up failed; the run cannot be measured."""


def run_job(job, config: Path, out: Path) -> int:
    """One CLI invocation; an escaping exception counts as exit code 1,
    as it would for the installed command."""
    argv = [job.command, "--config", str(config), "--out", str(out),
            "--quiet"]
    try:
        return eigenweight.cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is a failed job, not a crash
        traceback.print_exc(file=sys.stderr)
        return 1


def library_caches() -> list:
    """Every functools cache in the loaded eigenweight modules."""
    seen = {}
    for key, mod in list(sys.modules.items()):
        if key == "eigenweight" or key.startswith("eigenweight."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    seen[id(obj)] = obj
    return list(seen.values())


def output_digest(directory: Path) -> str:
    """Hash of a job's outputs, ignoring the JSON timestamp lines."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        for line in path.read_bytes().splitlines():
            if b'"timestamp"' not in line:
                h.update(line)
    return h.hexdigest()


class Workload:
    """Generated inputs of one workload and the passes run over them."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.work = work
        self.caches = library_caches()
        configs = work / "configs"
        configs.mkdir(parents=True)
        self.jobs = make_jobs(name, seed, tiny, self._setup_lambda1)
        self.configs = [job.write_config(configs) for job in self.jobs]
        for command in sorted({job.command for job in self.jobs}):
            job = warmup_job(command)
            if run_job(job, job.write_config(configs),
                       work / "warmup" / command) != 0:
                raise SetupError(f"warm-up {command} failed")
        self.passes: list = []
        self.reference = None  # built once set-up has been timed
        self.reference_s = [REFERENCE_FIRST_S] * len(self.jobs)
        self.trailing = None

    def _setup_lambda1(self, job) -> float:
        out = self.work / "setup" / job.name
        code = run_job(job, job.write_config(self.work), out)
        verdict = check_job(job, out)
        if code != 0 or not verdict.ok:
            raise SetupError(f"{job.name}: exit {code}, {verdict.problems}")
        return json.loads((out / "eigenpair.json").read_text())["lambda1"]

    def run_pass(self, tracer=None) -> dict:
        """Run every job once from cleared caches, each after a slice of
        the reference kernel; keeps the first pass's outputs for checking
        and only a digest of the later ones."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.spans = []
        index = len(self.passes)
        directory = self.work / f"pass{index}"
        codes, job_walls, ref_chunks, ref_s = [], [], [], []
        cpu = 0.0
        for j, (job, config) in enumerate(zip(self.jobs, self.configs)):
            chunks, seconds = self.reference.run(self.reference_s[j])
            ref_chunks.append(chunks)
            ref_s.append(seconds)
            if tracer is not None:
                tracer.job = job.name
            cpu0 = time.process_time()
            t = time.perf_counter()
            codes.append(run_job(job, config, directory / job.name))
            job_walls.append(time.perf_counter() - t)
            cpu += time.process_time() - cpu0
            self.reference_s[j] = REFERENCE_SHARE * job_walls[-1]
        record = {"wall_s": sum(job_walls), "cpu_s": cpu,
                  "codes": codes, "job_walls": job_walls,
                  "ref_chunks": ref_chunks, "ref_s": ref_s,
                  "notes": [[] for _ in self.jobs],
                  "digests": [output_digest(directory / job.name)
                              if (directory / job.name).is_dir() else None
                              for job in self.jobs]}
        if index > 0:
            shutil.rmtree(directory)
        if tracer is not None:
            record["spans"] = tracer.spans
            self._note_self_time(record)
        self.passes.append(record)
        return record

    def _note_self_time(self, record: dict) -> None:
        """Summed self time of a job's spans may not exceed its wall time."""
        self_time = self_time_by_job(record["spans"])
        for job, wall, notes in zip(self.jobs, record["job_walls"],
                                    record["notes"]):
            if self_time.get(job.name, 0.0) > wall:
                notes.append(f"span self time {self_time[job.name]!r} > "
                             f"wall {wall!r}")

    def run_for(self, seconds: float, minimum: int, tracer=None) -> list:
        """Passes until the next one would overrun ``seconds``."""
        start = time.perf_counter()
        walls, durations = [], []
        while True:
            t = time.perf_counter()
            walls.append(self.run_pass(tracer)["wall_s"])
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(walls) >= minimum and \
                    elapsed + statistics.median(durations) > seconds:
                return walls

    def scaled_wall(self) -> float:
        """Mean pass wall time at the nominal host speed.  The scale is
        nominal over measured time of all reference slices interleaved
        with the passes, plus one slice after the last job, so both totals
        sample the same minute of host speed."""
        self.trailing = self.reference.run(self.reference_s[-1])
        chunks = self.trailing[0] + sum(sum(record["ref_chunks"])
                                        for record in self.passes)
        seconds = self.trailing[1] + sum(sum(record["ref_s"])
                                         for record in self.passes)
        return (statistics.mean(record["wall_s"] for record in self.passes)
                * chunks * CHUNK_NOMINAL_S / seconds)

    def check(self) -> tuple:
        """(failed job runs, attempted job runs, problems, checks)."""
        verdicts = [check_job(job, self.work / "pass0" / job.name)
                    for job in self.jobs]
        reference = self.passes[0]["digests"]
        failed, problems = 0, []
        for p, record in enumerate(self.passes):
            for j, job in enumerate(self.jobs):
                reasons = verdicts[j].problems + record["notes"][j]
                if record["codes"][j] != 0:
                    reasons.append(f"exit code {record['codes'][j]}")
                if record["digests"][j] != reference[j]:
                    reasons.append("outputs differ from pass 0")
                if reasons:
                    failed += 1
                    problems.append(f"pass {p} {job.name}: {reasons}")
        attempted = len(self.passes) * len(self.jobs)
        return failed, attempted, problems, verdicts


def blas_info() -> dict:
    """BLAS library of numpy and the thread count it reports."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": BLAS_THREADS, "threads_in_use": threads}


def git_commit() -> str:
    """HEAD of the checkout from .git files, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, jobs) -> dict:
    return {
        "nproc": NPROC, "blas": blas_info(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "eigenweight": eigenweight.__version__,
        "git_commit": git_commit(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "n_cells": {job.name: job.n_cells for job in jobs},
    }


def setup_samples(args, own: dict) -> list:
    """This process's set-up time plus fresh-process repeats of it, each
    with the reference scale measured right after it."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=30, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args, load: Workload, setup: dict) -> tuple:
    """Scaled mean pass time, median scaled set-up time, and the peak RSS
    of set-up plus the first pass (later passes only add allocator
    noise)."""
    start = time.perf_counter()
    load.run_pass()
    rss = peak_rss_mb()
    load.run_for(args.seconds - (time.perf_counter() - start),
                 MIN_PASSES - 1)
    wall = load.scaled_wall()
    setups = setup_samples(args, setup)
    return {"wall_s": wall,
            "setup_s": statistics.median(x["setup_s"] * x["scale"]
                                         for x in setups),
            "peak_rss_mb": rss}, {"setup_samples": setups,
                                  "reference_trailing": load.trailing}


def per_layer(args, load: Workload) -> dict:
    """Untraced then traced passes on the same inputs."""
    untraced = load.run_for(args.seconds / 2, MIN_TRACE_PASSES)
    tracer = Tracer()
    tracer.install()
    try:
        load.run_for(args.seconds / 2, MIN_TRACE_PASSES, tracer)
    finally:
        tracer.uninstall()
    rows = [dict(layer_metrics(record["spans"]),
                 **{"proc.cpu_s": record["cpu_s"],
                    "trace.wall_s": record["wall_s"]})
            for record in load.passes[len(untraced):]]
    metrics = {key: statistics.median(row[key] for row in rows)
               for key in rows[0]}
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(untraced))
    metrics["proc.blas_threads"] = blas_info()["threads_in_use"] or 0
    return metrics


def useful_solve_ratio(load: Workload, metrics: dict) -> float:
    """Solves of the winning restart over all solves of the pass."""
    for job in load.jobs:
        if job.command == "optimize" and metrics["spectral.solves"]:
            report = json.loads(
                (load.work / "pass0" / job.name / "optimization.json")
                .read_text())
            useful = 1 + sum(1 for row in report["trace"] if row[3] > 0)
            return useful / metrics["spectral.solves"]
    return 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = BENCH / "work" / f"{os.getpid()}-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        load = Workload(args.workload, args.seed, args.tiny, work)
        setup = {"setup_s": time.perf_counter() - _START}
        load.reference = Reference()
        load.reference.run(SETUP_REFERENCE_S)
        setup["scale"] = load.reference.scale()
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        env = environment(args, load.jobs)
        print("environment " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, extra = per_layer(args, load), {}
        else:
            metrics, extra = end_to_end(args, load, setup)
        failed, attempted, problems, verdicts = load.check()
        units = END_TO_END
        if args.trace:
            units = LAYER_METRICS
            metrics["spectral.lambda1_rel_dev"] = max(
                v.lambda1_rel_dev for v in verdicts)
            metrics["optimize.useful_solve_ratio"] = \
                useful_solve_ratio(load, metrics)
        passes = [{k: v for k, v in record.items() if k != "spans"}
                  for record in load.passes]
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(
            {"environment": env, "metrics": metrics, "passes": passes,
             "problems": problems, **extra}, indent=1))
        if args.trace:
            with open(results / f"{stem}-spans.jsonl", "w") as fh:
                for p, record in enumerate(load.passes):
                    for span in record.get("spans", []):
                        fh.write(json.dumps([p, *span]) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print("FAILED " + problem)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    print(f"{'fail_frac':32s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} job runs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
