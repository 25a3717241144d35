"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py SPEC

SPEC is a JSON object written by run.py with the keys `src` (the
checkout's source directory), `argv` (the `lab` arguments, or null to
import only), `spawned` (`time.monotonic()` in the parent just before it
started this process) and `trace` (install the tracer around the call).
The process imports `lorentzlab.cli`, calls `main(argv)` once in its
working directory and prints one JSON line with its measurements. A
traced run also writes its spans and counters to `trace.json`.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import lorentzlab.cli  # noqa: E402

argv = None if spec["argv"] is None else list(spec["argv"]) + ["--out", "report.json"]
setup_s = time.monotonic() - spec["spawned"]

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
    ("openblas_get_config64_", "openblas_get_num_threads64_"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def openblas_libraries() -> list:
    """Build string and thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        if not path.endswith(".so") and ".so." not in path:
            continue
        lib = ctypes.CDLL(path)
        for config_name, threads_name in OPENBLAS_SYMBOLS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config = getattr(lib, config_name)
                config.restype = ctypes.c_char_p
                out.append(
                    {
                        "library": os.path.basename(path),
                        "config": config().decode(errors="replace").strip(),
                        "threads": int(getattr(lib, threads_name)()),
                    }
                )
                break
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": openblas_libraries(),
    }


def main() -> int:
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(lorentzlab.cli.__file__).startswith(src + os.sep):
        print(f"lorentzlab was imported from {lorentzlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if argv is None:
        print(json.dumps(result))
        return 0

    call = lorentzlab.cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, changed_attributes, package_attributes

        before = package_attributes()
        tracer = Tracer()

    stdout = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                rc = call(argv)
            else:
                tracer.install()
                try:
                    rc = tracer.call("cli.main", None, call, (argv,))
                finally:
                    tracer.uninstall()
        error = None
    except Exception:
        rc = None
        error = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["rc"] = rc
    result["error"] = error
    # Linux reports ru_maxrss in KiB
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["changed_attributes"] = [list(k) for k in changed_attributes(before, package_attributes())]
        with open("trace.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
