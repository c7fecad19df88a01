"""Memory census: what one workload of the frozen benchmark keeps alive.

    python3 benchmarks/memcensus.py W [--seconds S] [--top N] [--seed N]

Runs ``benchmarks/e2e/run.py --workload W --trace 0`` in this process under
``tracemalloc`` and snapshots the traced memory where the timed section ends,
while its VMs are still alive.  It prints how many operations ran, the traced
total, and the top N source lines by live size and by live block count.
Tracing slows the VMs several times: at 10 s ``suite-chaos`` ran 283 of its
581 operations, so the table in DESIGN.md ("What a unit keeps") is taken at
``--seconds 3``.  About a minute.
"""
import argparse, os, runpy, sys, tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")


def where(stat):
    frame = stat.traceback[0]
    return "%s:%d" % (os.path.relpath(frame.filename, ROOT), frame.lineno)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--top", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    sys.path[:0] = [E2E, os.path.join(ROOT, "src")]
    import runner

    taken, close = {}, runner.Recorder.close

    def snapshot_then_close(rec):  # the deadline's misses are not counted yet
        taken.update(ran=rec.attempted, planned=rec.planned,
                     snapshot=tracemalloc.take_snapshot())
        close(rec)

    runner.Recorder.close = snapshot_then_close
    run_py = os.path.join(E2E, "run.py")
    sys.argv = [run_py, "--workload", a.workload, "--trace", "0",
                "--seed", str(a.seed), "--seconds", str(a.seconds)]
    tracemalloc.start()
    try:
        runpy.run_path(run_py, run_name="__main__")
    except SystemExit:
        pass
    finally:
        tracemalloc.stop()
    snap = taken["snapshot"].filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    stats = snap.statistics("lineno")
    print("\n%s: %d of %d operations ran; traced %.2f MB live" % (
        a.workload, taken["ran"], taken["planned"], sum(s.size for s in stats) / 1e6))
    for title, key in (("size", lambda s: s.size), ("count", lambda s: s.count)):
        print("top %d lines by %s:" % (a.top, title))
        for s in sorted(stats, key=key, reverse=True)[:a.top]:
            print("  %8.3f MB %9d blocks  %s" % (s.size / 1e6, s.count, where(s)))


if __name__ == "__main__":
    main()
