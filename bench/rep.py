"""One benchmark repetition in a fresh interpreter; run.py starts it.

    python3 bench/rep.py SRC_DIR WORKLOAD CONFIG_TEXT WORKERS TRACED OUT_DIR

Prints one JSON object.  A repetition that raises exits non-zero with the
traceback on stderr, and run.py counts it as failed.  The config text comes
in on the command line so that nothing but ``import sitelink`` and
``parse_config`` (which validates) runs inside the set-up timer.
"""

import sys
import time


def main(argv) -> int:
    src_dir, name, config_text, workers, traced, out_dir = argv
    sys.path.insert(0, src_dir)
    t0 = time.perf_counter()
    import sitelink
    tracer = None
    if traced == "1":
        from tracer import SpanTracer
        tracer = SpanTracer()
        tracer.install(sitelink)
    cfg = sitelink.config.parse_config(config_text)
    setup_s = time.perf_counter() - t0

    import json
    import resource

    from workloads import WORKLOADS, execute

    def cpu_children_s():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    cpu0 = cpu_children_s()
    out = execute(WORKLOADS[name], sitelink, cfg, int(workers), out_dir)
    out["children_cpu_s"] = cpu_children_s() - cpu0
    out["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux; pool workers are reaped by now, so the
    # children figure is the largest worker's peak.
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kib / 1024.0
    if tracer is not None:
        out["trace"] = tracer.export()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
