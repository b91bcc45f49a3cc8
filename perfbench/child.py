"""One workload execution in a fresh interpreter; prints one JSON record.

    python3 -I perfbench/child.py <checkout root> <workload> <seed> <mode>

``mode`` is ``setup`` (set-up only), ``plain`` (untraced: set-up, then
every item with only the item-level method calls wrapped) or ``traced``
(full layer trace, written to ``perfbench/traces/``).  Only ``sys`` and
``time`` are imported before the set-up clock starts, so ``setup_s``
includes every import levelcross needs.
"""

import sys
import time


def main(argv):
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path[:0] = [root + "/src", root + "/perfbench"]
    import workloads

    wl = workloads.WORKLOADS[workload]
    if mode == "traced":
        return traced(root, workload, seed, wl)

    start = time.perf_counter()
    state = wl["setup"](seed)
    setup_s = time.perf_counter() - start
    if mode == "setup":
        return {"setup_s": setup_s}

    import tracer as tracing

    probe = tracing.Tracer()
    probe.install(full=False)
    start_items = time.perf_counter()
    result, error = run_items(wl, state, probe)
    wall_s = setup_s + time.perf_counter() - start_items
    peak_kb = peak_rss_kb()
    probe.uninstall()
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "item_s": probe.item_times(),
        "method_calls": probe.method_calls,
        "missing": probe.missing,
        "error": error,
        "outputs": result,
    }


def peak_rss_kb():
    # VmHWM belongs to this address space; getrusage's ru_maxrss would also
    # carry the parent's peak across fork and exec
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_items(wl, state, tracer):
    try:
        return wl["run"](state, tracer), None
    except Exception as exc:  # the whole workload failed; reported, not raised
        return {"items": [], "extra": {}}, f"{type(exc).__name__}: {exc}"


def traced(root, workload, seed, wl):
    import importlib
    import json
    import os

    import tracer as tracing

    for name in wl["modules"]:
        importlib.import_module(name)
    tr = tracing.Tracer()
    tr.install(full=True)
    start = time.perf_counter()
    state = wl["setup"](seed)
    result, error = run_items(wl, state, tr)
    wall_s = time.perf_counter() - start
    tr.uninstall()

    out_dir = os.path.join(root, "perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "wall_s": wall_s, **tr.dump()}, fh)
    return {
        "wall_s": wall_s,
        "layers": tr.layer_metrics(),
        "layer_calls": tr.layer_calls(),
        "method_calls": tr.method_calls,
        "missing": tr.missing,
        "error": error,
        "outputs": result,
        "trace_file": os.path.relpath(path, root),
    }


if __name__ == "__main__":
    record = main(sys.argv)
    import json

    sys.stdout.write(json.dumps(record) + "\n")
