"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 bench/child.py JOB.json``. The job lists ``fedcycle run``
calls (experiment file, output directory, transport); they run one after
another in this process through ``fedcycle.cli.main``. The job's ``mode`` is
``run`` (timed), ``trace`` (timed with per-layer spans) or ``setup`` (stop at
the first ``run_heuristic`` call, to sample set-up time alone). Timings,
exit codes and peak memory go to the job's ``result`` file.
"""
from __future__ import annotations

import ctypes
import json
import resource
import sys
import time


class _SetupDone(BaseException):
    """Ends a set-up probe; not an Exception, so the CLI cannot swallow it."""


def _blas_threads():
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_num_threads = getattr(lib, symbol)
                get_num_threads.argtypes = []
                get_num_threads.restype = ctypes.c_int
                return get_num_threads()
    return None


def _software() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _packet_bytes(tracer) -> list:
    """len(serialize(...)) of a fresh model for each run's configuration."""
    import numpy as np
    from fedcycle.nn import init_model

    serialize = tracer.originals["transport.serialize"]
    return [len(serialize(init_model(cfg.model_specs, cfg.optimizer, np.random.default_rng(0)),
                          carry_opt_state=cfg.carry_opt_state))
            for cfg in tracer.run_configs]


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from fedcycle import cli

    tracer = None
    if job["mode"] == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    first_call_ns, run_ns = [], []
    inner = cli.run_heuristic

    def timed_run_heuristic(*args, **kwargs):
        start = time.monotonic_ns()
        if not first_call_ns:
            first_call_ns.append(start)
            if job["mode"] == "setup":
                raise _SetupDone
        try:
            return inner(*args, **kwargs)
        finally:
            run_ns.append(time.monotonic_ns() - start)

    cli.run_heuristic = timed_run_heuristic
    exit_codes = []
    try:
        for run in job["runs"]:
            exit_codes.append(cli.main(["run", run["config"], "--output-dir", run["output_dir"],
                                        "--transport", run["transport"]]))
    except _SetupDone:
        pass
    result = {
        "setup_s": (first_call_ns[0] - job["spawn_ns"]) / 1e9 if first_call_ns else None,
        "run_s": [n / 1e9 for n in run_ns],
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "software": _software(),
    }
    if tracer is not None:
        tracer.dump(job["spans"])
        result["packet_bytes"] = _packet_bytes(tracer)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
