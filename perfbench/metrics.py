"""Metric math for the SqlArray benchmark.

The C++ benchmark binary (perfbench) records raw samples, registry counter
snapshots and spans; this module turns them into the end-to-end and
per-layer metrics named in BENCHMARK.json. Nothing here touches the engine.
"""

import math
import statistics

# Tail percentiles are reported only where the sample supports them: the
# highest percentile, up to p99, that has at least this many samples beyond
# it.
TAIL_SAMPLES_BEYOND = 10


def quantile(values, q):
    """The q-quantile (0 <= q <= 1) of `values`, interpolating linearly
    between closest ranks."""
    if not values:
        raise ValueError("quantile of no samples")
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_quantile_level(n, target=0.99, beyond=TAIL_SAMPLES_BEYOND):
    """The highest quantile level <= `target` with at least `beyond` of `n`
    samples above it, or None when the sample is too small for any."""
    if n < beyond + 1:
        return None
    return min(target, 1.0 - beyond / n)


def latency_summary(values):
    """Median and tail of a latency sample, with the tail's level and the
    sample count. A sample too small for a tail reports its maximum."""
    n = len(values)
    level = tail_quantile_level(n)
    tail = quantile(values, level) if level is not None else max(values)
    return {"p50": quantile(values, 0.5), "tail": tail,
            "tail_level": level if level is not None else 1.0, "n": n}


def counter_deltas(windows, kind):
    """Sums after - before over the counter windows of `kind`; instruments
    missing from a snapshot count as 0 (counters only grow)."""
    total = {}
    for w in windows:
        if w["kind"] != kind:
            continue
        before, after = w["before"], w["after"]
        for name in set(before) | set(after):
            total[name] = total.get(name, 0) + after.get(name, 0) - before.get(name, 0)
    return total


def ratio(num, den):
    """num / den with its base; 0 when the base is empty."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover. Returns {span id: nanoseconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        kids = sorted(children.get(s["id"], []), key=lambda k: k["start_ns"])
        for k in kids:
            lo, hi = max(k["start_ns"], cursor), min(k["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _scan_ms(samples, values, name):
    """A workload that reports a scan metric as a value (ingest: a mean over
    segments) overrides the median of its samples."""
    return values[name] if name in values else _median(samples[name])


# The session mix's statement classes; each one's median is reported beside
# the mix's, since the mix's median depends on the (assumed) class shares.
STATEMENT_CLASSES = ("count", "group_by", "rows", "subarray", "insert", "hot_txn")


def class_p50s(samples):
    """{class: median latency in ms} of the classes present in `samples`."""
    return {k: _median(samples["class_ms." + k]) for k in STATEMENT_CLASSES
            if samples.get("class_ms." + k)}


def end_to_end(report):
    """The end-to-end metrics of one untraced run: {name: (value, unit)},
    plus a details dict with each metric's base."""
    s, v, c = report["samples"], report["values"], report["counts"]
    window = v["window_s"]
    stmt = latency_summary(s["stmt_ms"])
    commit = latency_summary(s["commit_ms"])
    rows = v["rows_committed"]
    metrics = {
        "setup_s": (_median(s["setup_s"]), "s"),
        "peak_rss_mb": (v["peak_rss_mb"], "MiB"),
        "plain_scan_ms": (_scan_ms(s, v, "plain_scan_ms"), "ms"),
        "udf_scan_ms": (_scan_ms(s, v, "udf_scan_ms"), "ms"),
        "stmt_p50_ms": (stmt["p50"], "ms"),
        "stmt_p99_ms": (stmt["tail"], "ms"),
        "stmt_per_s": (stmt["n"] / window, "1/s"),
        "ingest_rows_per_s": (rows / window, "rows/s"),
        "commit_p50_ms": (commit["p50"], "ms"),
        "commit_p99_ms": (commit["tail"], "ms"),
        "recover_s": (_median(s["recover_s"]), "s"),
    }
    details = {
        "stmt": stmt, "commit": commit, "window_s": window, "rows_committed": rows,
        "setups": len(s["setup_s"]), "recoveries": len(s["recover_s"]),
        "plain_scan_samples": len(s.get("plain_scan_ms", [])),
        "udf_scan_samples": len(s.get("udf_scan_ms", [])),
        "failed_frac": ratio(c.get("failed", 0), c.get("attempted", 0)),
        "class_p50_ms": class_p50s(s),
    }
    return metrics, details


def per_layer(report, spans):
    """The per-layer metrics of one traced run: {name: (value, unit)}, plus
    each ratio's base."""
    s, v, c = report["samples"], report["values"], report["counts"]
    d = counter_deltas(report["counter_windows"], "window")
    probe = counter_deltas(report["counter_windows"], "probe")
    wire = counter_deltas(report["counter_windows"], "wire")
    window = v["window_s"]
    ops = len(s.get("op_ms.traced", [])) + len(s.get("op_ms.untraced", []))
    attempted = c.get("attempted", 0)
    user_bytes = v.get("user_bytes_committed", 0)
    bases = {}

    def r(name, num, den):
        bases[name] = ratio(num, den)
        return bases[name]["value"]

    hits = d.get("storage.buffer_pool.hits", 0)
    misses = d.get("storage.buffer_pool.misses", 0)

    # The probe's twin queries: the same table with and without one UDF call
    # per row; the scan operator's extra busy time is the UDF boundary.
    twins = list(zip(s.get("twin_plain_busy_ms", []), s.get("twin_udf_busy_ms", []),
                     s.get("twin_udf_calls", [])))
    eval_ms = [udf - plain for plain, udf, _ in twins]
    ns_per_call = [(udf - plain) * 1e6 / n for plain, udf, n in twins if n]

    self_ns = self_times(spans)
    server_self = [self_ns[sp["id"]] / 1e6 for sp in spans
                   if sp["name"] == "server.execute"]
    recover_rates = [n / t for n, t in
                     zip(s.get("recovery_records", []), s.get("recover_s", [])) if t]
    overhead = 0.0
    if s.get("op_ms.traced") and s.get("op_ms.untraced"):
        overhead = _mean(s["op_ms.traced"]) / _mean(s["op_ms.untraced"]) - 1.0
    wire_overhead = 0.0
    if s.get("probe_wire_ms") and s.get("probe_inproc_ms"):
        wire_overhead = _median(s["probe_wire_ms"]) - _median(s["probe_inproc_ms"])

    metrics = {
        "storage.bp_hit_ratio": (r("storage.bp_hit_ratio", hits, hits + misses), "ratio"),
        "storage.disk_pages_read_per_pass": (
            r("storage.disk_pages_read_per_pass",
              d.get("storage.disk.pages_read", 0), ops), "pages"),
        "storage.disk_read_mb_per_s": (
            d.get("storage.disk.bytes_read", 0) / 1e6 / window, "MB/s"),
        "storage.cursor_rows_per_s": (_median(s.get("cursor_rows_per_s", [])), "rows/s"),
        "storage.pages_written_per_user_mb": (
            r("storage.pages_written_per_user_mb",
              d.get("storage.disk.pages_written", 0), user_bytes / 1e6), "pages/MB"),
        "engine.exec_ms": (_median(s.get("exec_ms", [])), "ms"),
        "engine.scan_ms": (_mean(s.get("scan_ms", [])), "ms"),
        "engine.eval_ms": (_median(eval_ms), "ms"),
        "engine.merge_ms": (_mean(s.get("merge_ms", [])), "ms"),
        "engine.udf_calls_per_row": (
            r("engine.udf_calls_per_row", sum(s.get("udf_calls", [])),
              sum(s.get("rows_scanned", []))), "calls/row"),
        "engine.udf_ns_per_call": (_median(ns_per_call), "ns"),
        "engine.rows_examined_per_row_returned": (
            r("engine.rows_examined_per_row_returned", sum(s.get("rows_scanned", [])),
              sum(s.get("rows_returned", []))), "rows/row"),
        "core.vec_fallback_frac": (
            r("core.vec_fallback_frac", d.get("vec.fallback_rows", 0),
              d.get("vec.rows", 0)), "ratio"),
        "core.kernel_dispatch_frac": (
            r("core.kernel_dispatch_frac", d.get("core.dispatch.kernel", 0),
              d.get("core.dispatch.kernel", 0) + d.get("core.dispatch.boxed", 0)),
            "ratio"),
        "sql.parse_us": (_median(s.get("parse_us", [])), "us"),
        "server.execute_ms": (_median(server_self), "ms"),
        "gov.admission_wait_us": (
            r("gov.admission_wait_us", probe.get("gov.admission_wait_us.sum", 0),
              probe.get("gov.admission_wait_us.count", 0)), "us"),
        "gov.queued_frac": (
            r("gov.queued_frac", probe.get("gov.queued", 0),
              probe.get("gov.admitted", 0)), "ratio"),
        "net.bytes_per_stmt": (
            r("net.bytes_per_stmt", wire.get("net.bytes_sent", 0),
              wire.get("net.queries", 0)), "bytes"),
        "net.frames_per_stmt": (
            r("net.frames_per_stmt", wire.get("net.frames_sent", 0),
              wire.get("net.queries", 0)), "frames"),
        "net.codec_us_per_stmt": (_mean(s.get("codec_us", [])), "us"),
        "client.execute_ms": (_median(s.get("probe_wire_ms", [])), "ms"),
        "net.overhead_p50_ms": (wire_overhead, "ms"),
        "client.retries_per_stmt": (
            r("client.retries_per_stmt", c.get("retries", 0), attempted), "ratio"),
        "mvcc.write_conflicts_per_kstmt": (
            1000 * r("mvcc.write_conflicts_per_kstmt",
                     d.get("mvcc.write_conflicts", 0), attempted), "1/kstmt"),
        "wal.group_commit_batch_avg": (
            r("wal.group_commit_batch_avg", d.get("wal.group_commit.batch.sum", 0),
              d.get("wal.group_commit.batch.count", 0)), "commits"),
        "wal.flushes_per_commit": (
            r("wal.flushes_per_commit", d.get("wal.flushes", 0),
              d.get("wal.commits", 0)), "ratio"),
        "wal.log_bytes_per_user_byte": (
            r("wal.log_bytes_per_user_byte", d.get("wal.bytes", 0), user_bytes),
            "ratio"),
        "mvcc.versions_per_commit": (
            r("mvcc.versions_per_commit", d.get("mvcc.versions_created", 0),
              d.get("wal.commits", 0)), "ratio"),
        "wal.recovery_records_per_s": (_median(recover_rates), "records/s"),
        "mvcc.history_bytes_peak": (
            max(s.get("mvcc_history_bytes_peak", [0])), "bytes"),
        "obs.trace_overhead_frac": (overhead, "ratio"),
    }
    classes = class_p50s(s)
    for k in STATEMENT_CLASSES:
        metrics["session.%s_p50_ms" % k] = (classes.get(k, 0.0), "ms")
    return metrics, bases
