"""One workload process: set up, then issue CLI operations in a closed loop.

Started by ``run.py`` from the root of the checkout, never imported:

    python3 bench/worker.py --probe             # set up, print the clock, exit
    python3 bench/worker.py SPEC.json RECORD.json

Set-up is what every CLI process pays before its first operation: import
``bwtunnel.cli`` and build its parser. It runs first, before the worker
imports anything of its own, and ends by printing ``time.monotonic()``,
which the parent subtracts from its clock read just before the spawn.

SPEC holds the workload's cases (argv and output path) and its phases
(label, seconds, traced). Each phase issues the cases in order, one after
another, looping until its seconds have passed and every case ran at
least once. The operation time is that of the ``cli.main`` call, from argv
to the output file written and closed, less the calibration probes
(calibrate.py) that ran inside it; its slowness comes from those probes
and from bursts right before and after it, outside that time.
"""

import os
import sys
import time


def setup():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from bwtunnel import cli

    cli._build_parser()
    return cli, time.monotonic()


def _digest(path):
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest(), os.path.getsize(path)


def peak_rss_kb():
    """High-water RSS of this process image (VmHWM; ru_maxrss would also
    count the parent's RSS at the time of the spawn)."""
    with open("/proc/self/status") as f:
        return next(int(ln.split()[1]) for ln in f if ln.startswith("VmHWM:"))


def run_phase(cli, cases, label, seconds, tracer, ops):
    import contextlib
    import gc
    import io

    import calibrate

    calibrate.Sampler().edge()  # warm the probe up
    start = time.monotonic()
    i = 0
    while i < len(cases) or time.monotonic() - start < seconds:
        case = cases[i % len(cases)]
        i += 1
        with contextlib.suppress(FileNotFoundError):
            os.remove(case["out"])
        gc.collect()
        sampler = calibrate.Sampler()
        sampler.edge()
        if tracer is not None:
            tracer.begin_op(len(ops))
        err = io.StringIO()
        with sampler:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    rc = cli.main(case["argv"])
            except Exception as e:  # a raise is a failed operation, not a crash
                rc, err = None, io.StringIO(f"raised {e!r}")
        dt = time.perf_counter() - t0 - sampler.inside_s
        rec = {"case": (i - 1) % len(cases), "phase": label, "seconds": dt, "rc": rc,
               "error": err.getvalue().strip() or None, "sha256": None, "bytes": None}
        if tracer is not None:
            rec["trace"] = tracer.op_record()
        sampler.edge()
        rec["slowness"], rec["probes"] = sampler.slowness(), len(sampler.samples)
        if os.path.exists(case["out"]):
            rec["sha256"], rec["bytes"] = _digest(case["out"])
        rec["vmhwm_kb"] = peak_rss_kb()
        ops.append(rec)


def main():
    if sys.argv[1:] == ["--probe"]:
        setup()
        print(repr(time.monotonic()))
        return 0
    cli, setup_done = setup()
    import bwtunnel

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(bwtunnel.__file__).startswith(src + os.sep):
        print(f"bwtunnel was imported from {bwtunnel.__file__}, not {src}", file=sys.stderr)
        return 3

    import json

    from tracing import Tracer

    spec_path, record_path = sys.argv[1:3]
    with open(spec_path) as f:
        spec = json.load(f)
    ops, tracer = [], None
    for label, seconds, traced in spec["phases"]:
        if traced:
            tracer = Tracer()
            tracer.install()
        run_phase(cli, spec["cases"], label, seconds, tracer, ops)
    record = {
        "setup_done": setup_done,
        "ops": ops,
        "bindings": tracer.bindings if tracer else None,
    }
    if tracer is not None:
        with open(spec["spans_path"], "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), span))) + "\n")
    with open(record_path, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
