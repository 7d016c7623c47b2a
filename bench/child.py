"""One pass of a workload in a fresh process.

Usage: child.py SRC TRACE [SPANS_OUT], with the inputs from
workloads.make_inputs as JSON on stdin.  Times the import of cubeblocks
and the construction of the workload's fields (set-up), then drives
``cubeblocks.cli.main(argv)`` in-process for each call, capturing each
report.  With TRACE=1 the per-layer tracer is installed after the import
and its summary is returned; the spans are written to SPANS_OUT.  Prints
one JSON object.  Only the standard library is imported before the timed
import, so that numpy's import counts as set-up.
"""

import sys
import time


def main() -> int:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    spans_out = sys.argv[3] if len(sys.argv) > 3 else None
    raw = sys.stdin.read()
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import cubeblocks
    from cubeblocks import cli
    from cubeblocks.fields import FiniteField
    import_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import os
    import resource

    where = os.path.dirname(os.path.abspath(cubeblocks.__file__))
    if where != os.path.join(os.path.abspath(src), "cubeblocks"):
        print(f"cubeblocks imported from {where}, not from {src}", file=sys.stderr)
        return 2
    inputs = json.loads(raw)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer().install()

    t1 = time.perf_counter()
    for p, m, modulus in inputs["fields"]:
        FiniteField(p, m, tuple(modulus) if modulus else None)
    fields_s = time.perf_counter() - t1

    calls = []
    wall = cpu = 0.0
    for call in inputs["calls"]:
        argv = call["argv"]
        run = tracer.wrap(f"cli.main.{argv[0]}", cli.main) if tracer else cli.main
        buf = io.StringIO()
        start, start_cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        took = time.perf_counter() - start
        wall += took
        cpu += time.process_time() - start_cpu
        calls.append({"code": code, "report": buf.getvalue(), "s": took})

    out = {"import_s": import_s, "fields_s": fields_s,
           "setup_s": import_s + fields_s, "wall_s": wall, "cpu_s": cpu,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "calls": calls}
    if tracer:
        tracer.uninstall()
        out["layers"] = spans.summarize(tracer.spans, tracer.counts)
        if spans_out:
            tracer.write(spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
