"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload is set up
several times (``setup_s`` is the median), then driven closed-loop for
``--seconds``; every result is checked against the workload's dict model.
Times are scaled to a reference host speed (see ``hostspeed.py``).

``--trace 1`` measures the per-layer metrics from a fixed number of
steps, run three times on fresh set-ups: untraced, with the layer spans
of ``tracing.py`` installed, and with ``repro.observability`` enabled.
The traced pass gives each layer's self time and work counts, the other
two give the tracing and observability overhead ratios, and the
observability pass's ``cipher.*_blocks`` counters must equal the traced
AES block count.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every check passed, 1 when a
result was wrong, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Traced self times plus ``other`` must cover at least this share of the
#: traced wall time (the rest is the bare step loop).
LAYER_SUM_TOLERANCE = 0.02


def quantile(samples: list[float], q: float) -> float:
    """The q-quantile (inclusive interpolation) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    if q == 0.5:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def supported(samples: list[float], q: float) -> bool:
    """At least ten samples lie beyond the q-quantile."""
    return len(samples) * (1 - q) >= 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _step(workload, op, rec) -> None:
    try:
        workload.execute(op, rec)
    except Exception as exc:  # a failed operation is counted, not fatal
        rec.fail(op[:2], f"{type(exc).__name__}: {exc}")


def _finish(workload, rec) -> None:
    try:
        workload.finish(rec)
    except Exception as exc:
        rec.fail("final check", f"{type(exc).__name__}: {exc}")


def run_end_to_end(cls, seed: int, seconds: float, sizes, workdir: Path,
                   out=print) -> dict:
    """Set up ``sizes.setups`` times, then drive the workload for ``seconds``.

    Every time reported is in reference-host seconds (``hostspeed.py``):
    probes run around each set-up, between the program calls of a set-up
    (``setup_s`` sums those calls), and between timed operations.
    """
    from hostspeed import HostSpeed
    from workloads import Recorder

    host = HostSpeed()
    workload = cls(seed, sizes, workdir)
    setups = []
    for _ in range(sizes.setups):
        workload.close()
        host.probe(5)
        setup = Recorder(between=host.tick)
        workload.setup(setup)
        host.probe(5)
        setups.append(sum(host.normalise(start, end)
                          for start, end in setup.spans["setup"]))

    gc.collect()
    rec = Recorder(between=host.tick)
    steps, step_s, raw_s = 0, 0.0, 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not workload.at_boundary():
        op = workload.draw()
        spent, start = host.spent, time.perf_counter()
        _step(workload, op, rec)
        end = time.perf_counter()
        busy = end - start - (host.spent - spent)  # probes are not the step's
        raw_s += busy
        step_s += busy * host.scale(start, end)
        steps += 1
    _finish(workload, rec)
    space_amp = workload.space_amp()
    workload.close()

    samples = {
        kind: [host.normalise(start, end) for start, end in spans]
        for kind, spans in rec.spans.items()
    }
    summarize(out, samples)
    slowness = host.factors()
    out(f"steps {steps} in {raw_s:.2f} s of wall time, {step_s:.2f} reference "
        f"s; checks {rec.attempted}, failed {rec.failed}")
    out(f"host slowness over {len(slowness)} probes: min {min(slowness):.2f} "
        f"median {statistics.median(slowness):.2f} max {max(slowness):.2f}")
    for failure in rec.failures:
        out(f"FAILED {failure}")
    point, main = samples["point"], samples[cls.main_kind]
    return {
        "correct": rec.failed == 0,
        "attempted": max(rec.attempted, rec.failed),
        "failed": rec.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(steps / step_s, "1/s"),
            "point_p50_ms": metric(1000 * quantile(point, 0.5), "ms"),
            "point_p90_ms": metric(1000 * quantile(point, 0.9), "ms"),
            "main_p50_ms": metric(1000 * quantile(main, 0.5), "ms"),
            "space_amp": metric(space_amp, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
    }


def summarize(out, samples: dict[str, list[float]]) -> None:
    """Median and every supported tail of each operation kind."""
    for kind in sorted(samples):
        values = samples[kind]
        tails = " ".join(
            f"p{round(q * 100)} {1000 * quantile(values, q):.3f}"
            for q in (0.9, 0.95, 0.99)
            if supported(values, q)
        )
        out(f"{kind:>10}: n={len(values):<5} p50 {1000 * quantile(values, 0.5):.3f}"
            f" {tails} (ms)")


def _pass(cls, seed: int, sizes, workdir: Path, wrap_disk=None, ready=None,
          step_span=None):
    """Set up, then run ``sizes.trace_steps`` steps.

    Returns the steps' wall time, the same in reference-host seconds
    (probes run between steps), and the recorder.
    """
    from hostspeed import HostSpeed
    from workloads import Recorder

    kwargs = {"wrap_disk": wrap_disk} if wrap_disk is not None else {}
    workload = cls(seed, sizes, workdir, **kwargs)
    host = HostSpeed()
    try:
        workload.setup(Recorder())
        if ready is not None:
            ready()
        rec = Recorder()
        span = step_span or (lambda: contextlib.nullcontext())
        wall = ref_wall = 0.0
        for _ in range(sizes.trace_steps):
            host.tick()
            start = time.perf_counter()
            op = workload.draw()
            with span():
                _step(workload, op, rec)
            end = time.perf_counter()
            wall += end - start
            ref_wall += host.normalise(start, end)
    finally:
        workload.close()
    return wall, ref_wall, rec


def run_traced(cls, seed: int, sizes, workdir: Path, out=print) -> dict:
    from repro import observability

    from tracing import Tracer, TracedDisk, instrument

    _, plain_ref, plain_rec = _pass(cls, seed, sizes, workdir)

    tracer = Tracer()

    def start_tracing() -> None:
        tracer.reset()
        tracer.enabled = True

    with instrument(tracer):
        traced_wall, traced_ref, rec = _pass(
            cls, seed, sizes, workdir,
            wrap_disk=lambda disk: TracedDisk(disk, tracer),
            ready=start_tracing,
            step_span=lambda: tracer.span("other"),
        )
        tracer.enabled = False

    observability.enable()
    try:
        _, obs_ref, obs_rec = _pass(cls, seed, sizes, workdir,
                                    ready=observability.reset)
        counters = observability.REGISTRY.counters()
    finally:
        observability.disable()
        observability.reset()
    obs_blocks = sum(
        value for name, value in counters.items()
        if name.startswith("cipher.") and name.endswith("_blocks")
    )

    metrics = layer_metrics(tracer, rec, sizes.trace_steps, traced_wall)
    # The overhead ratios compare passes made at different times, so they
    # use reference-host time; the layer sums use the traced wall time.
    metrics["trace.overhead_ratio"] = metric(traced_ref / plain_ref, "ratio")
    metrics["observability.cipher_blocks"] = metric(obs_blocks, "count")
    metrics["observability.enabled_overhead_ratio"] = metric(
        obs_ref / plain_ref, "ratio")

    problems = []
    aes_blocks = tracer.counts["primitives.aes_blocks"]
    if obs_blocks != aes_blocks:
        problems.append(f"observability counted {obs_blocks} cipher blocks, "
                        f"the traced pass {aes_blocks}")
    covered = metrics["trace.layer_sum_ratio"]["value"]
    if not 1 - LAYER_SUM_TOLERANCE <= covered <= 1 + 1e-9:
        problems.append(f"layer self times cover {covered:.4f} of the traced "
                        f"wall time (tolerance {LAYER_SUM_TOLERANCE})")

    out(f"passes in reference s: plain {plain_ref:.2f}, traced {traced_ref:.2f}, "
        f"observability {obs_ref:.2f} ({sizes.trace_steps} steps each)")
    for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
        out(f"  {name:<22} self {tracer.self_s[name]:9.4f} s  "
            f"calls {tracer.calls[name]}")
    recs = (plain_rec, rec, obs_rec)
    for failure in [f for r in recs for f in r.failures] + problems:
        out(f"FAILED {failure}")
    failed = sum(r.failed for r in recs) + len(problems)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in recs) + 2,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(tracer, rec, steps: int, wall: float) -> dict:
    """Per-layer metrics from one traced pass."""
    self_s, total_s, counts = tracer.self_s, tracer.total_s, tracer.counts

    def layer(prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(
            seconds for name, seconds in self_s.items()
            if name.startswith(prefix + ".") and name not in exclude
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "primitives.aes_blocks": (counts["primitives.aes_blocks"], "count"),
        "primitives.aes_blocks_per_op": (
            counts["primitives.aes_blocks"] / steps, "blocks/op"),
        "primitives.aes_self_s": (self_s["primitives.aes"], "s"),
        "primitives.sha256_bytes": (counts["primitives.sha256_bytes"], "B"),
        "primitives.sha256_self_s": (self_s["primitives.sha256"], "s"),
        "aead.calls": (counts["aead.calls"], "count"),
        "aead.msgs_per_call": (ratio(counts["aead.msgs"], counts["aead.calls"]),
                               "msgs/call"),
        "aead.self_s": (layer("aead"), "s"),
        "mac.tags": (counts["mac.tags"], "count"),
        "mac.verifies": (counts["mac.verifies"], "count"),
        "mac.self_s": (layer("mac"), "s"),
        "cellcodec.cells_per_decode_call": (
            ratio(counts["cellcodec.decoded_cells"], counts["cellcodec.decode_calls"]),
            "cells/call"),
        "cellcodec.decode_self_s": (self_s["cellcodec.decode"], "s"),
        "cellcodec.encode_self_s": (self_s["cellcodec.encode"], "s"),
        "indexcodec.self_s": (layer("indexcodec"), "s"),
        "query.rows_examined_per_result": (
            ratio(counts["query.rows_examined"], counts["query.rows_returned"]),
            "rows/result"),
        "query.self_s": (layer("query"), "s"),
        "storage.dump_self_s": (self_s["storage.dump"], "s"),
        "storage.image_bytes": (
            ratio(counts["storage.image_bytes"], tracer.calls["storage.dump"]), "B"),
        "storage.load_self_s": (self_s["storage.load"], "s"),
        "wal.append_self_s": (self_s["wal.append"], "s"),
        "wal.bytes_per_user_byte": (
            ratio(counts["disk.bytes_appended"], rec.counts["user_bytes"]), "B/B"),
        "wal.replay_records": (counts["wal.replay_records"], "count"),
        "wal.replay_self_s": (self_s["wal.replay"], "s"),
        "durable.self_s": (layer("durable"), "s"),
        "disk.syncs_per_commit": (
            ratio(counts["disk.syncs"], counts["durable.commits"]), "syncs/commit"),
        "disk.sync_self_s": (self_s["disk.sync"], "s"),
        "disk.bytes_written": (counts["disk.bytes_written"], "B"),
        "disk.self_s": (layer("disk", exclude=("disk.sync",)), "s"),
        "mirror.replica_reads": (counts["mirror.replica_reads"], "count"),
        "mirror.read_repairs": (rec.counts["mirror.read_repairs"], "count"),
        "mirror.self_s": (layer("mirror"), "s"),
        "scrub.mac_verifications": (rec.counts["scrub.mac_verifications"], "count"),
        "scrub.self_s": (self_s["scrub.pass"], "s"),
        "rotation.cells_per_s": (
            ratio(rec.counts["rotation.cells"], total_s["rotation.rotate"]), "cells/s"),
        "rotation.self_s": (self_s["rotation.rotate"], "s"),
        "sharding.mount_self_s": (self_s["sharding.mount"], "s"),
        "sharding.query_self_s": (self_s["sharding.query"], "s"),
        "keys.self_s": (layer("keys"), "s"),
        "other.self_s": (self_s["other"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.layer_sum_ratio": (ratio(sum(self_s.values()), wall), "ratio"),
    }
    for prefix in ("btree", "indextable"):
        m[f"{prefix}.entries_decoded_per_search"] = (
            ratio(counts[f"{prefix}.search.entries_decoded"],
                  counts[f"{prefix}.searches"]), "entries/search")
        m[f"{prefix}.search_self_s"] = (self_s[f"{prefix}.search"], "s")
        m[f"{prefix}.insert_self_s"] = (
            self_s[f"{prefix}.insert"] + self_s[f"{prefix}.bulk_build"], "s")
        m[f"{prefix}.delete_self_s"] = (self_s[f"{prefix}.delete"], "s")
    return {name: metric(value, unit) for name, (value, unit) in sorted(m.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read_mix", "write_journaled", "recover_sharded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {source}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[args.workload]
    sizes = SIZES[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.trace:
            result = run_traced(cls, args.seed, sizes, workdir)
        else:
            result = run_end_to_end(cls, args.seed, args.seconds, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
