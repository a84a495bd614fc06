"""One repetition in a fresh interpreter: import rvflkit.cli, run the workload's
commands in-process through rvflkit.cli.main, and write a JSON result file.

Usage: python3 rep.py SPEC.json T0, where T0 is the CLOCK_MONOTONIC reading the
parent took just before starting this process. Set-up time is measured from T0
until ``import rvflkit.cli`` returns.
"""

import time

import rvflkit.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (imported after the set-up clock stops)
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _openblas(package, suffix):
    """(config string, thread count) of the OpenBLAS bundled with a wheel, or Nones."""
    mod = sys.modules.get(package)
    if mod is None:
        return None, None
    libs = glob.glob(os.path.join(os.path.dirname(mod.__file__), "..", f"{package}.libs",
                                  "libscipy_openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
            get_threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
            get_config = getattr(handle, f"scipy_openblas_get_config{suffix}")
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_config().decode(), get_threads()
    return None, None


def environment():
    """Versions and effective BLAS threads, read after the commands ran."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    np_cfg, np_threads = _openblas("numpy", "64_")
    sp_cfg, sp_threads = _openblas("scipy", "")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": np_cfg,
            "blas_threads_numpy": np_threads, "openblas_scipy": sp_cfg,
            "blas_threads_scipy": sp_threads, "rvflkit_file": rvflkit.cli.__file__}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    spec_path, t0 = sys.argv[1], float(sys.argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"setup_s": IMPORTED - t0, "rvflkit_file": rvflkit.cli.__file__}
    if spec.get("commands"):
        entry = rvflkit.cli.main
        tracer, missing = None, []
        if spec.get("trace_dir"):
            import spans
            tracer = spans.Tracer(spec["trace_dir"])
            missing = tracer.install()
            entry = tracer.wrap("cli.main", entry)
        cpu0 = _cpu_s()
        commands = []
        for name, argv in spec["commands"]:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = entry(argv)
                except Exception:  # a traceback is a failed command, not a failed harness
                    traceback.print_exc()
                    code = None
            seconds = time.perf_counter() - start
            commands.append({"name": name, "code": code, "seconds": seconds,
                             "stdout": out.getvalue(), "stderr": err.getvalue()})
        result["cpu_s"] = _cpu_s() - cpu0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (own + kids) / 1024.0
        result["commands"] = commands
        if tracer is not None:
            tracer.flush()
            result["not_measured"] = missing
    if spec.get("environment"):
        result["environment"] = environment()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
