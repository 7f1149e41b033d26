"""Incident forensics over flight-recorder dumps.

A ``FLIGHT.json`` (:mod:`repro.observability.flightrecorder`) is a raw
record stream; this module turns it into answers:

* :func:`build_timeline` — the causally ordered incident timeline: every
  record in logical-tick order, with each anomaly (health alert,
  detection, false positive) attributed to a root cause — the
  injection it traces back to (replica id, blob, config, epoch) and the
  nearest preceding WAL-truncation offset;
* :func:`build_scorecard` — the detection scorecard: ground-truth
  ``fault`` records joined against detector records to report, per fault
  class, how many faults were injected, how many were *detectable* (not
  resolved away before any detector could see them), how many were
  detected, the detection latency in ticks, and every false positive (a
  detection with no matching open injection);
* :func:`scorecard_gate` — the CI gate: 100 % detection for the
  MAC-covered classes (:data:`~repro.observability.flightrecorder.GATED_CLASSES`)
  and zero false positives.

The join rules, chosen so honest redundancy never reads as noise:

1. records are processed in ``seq`` order;
2. a detection closes the **oldest open injection** of its class whose
   shared fields (``blob``, ``replica``, ``config``, ``seed``,
   ``scope``, ``mode``, ``op_index``, ``crash``, ``rollback``) all
   agree — fields present on only one side are ignored, so a trust
   anchor's ``scope``-keyed rollback detection still matches a
   campaign-keyed rollback injection;
3. detection latency is the tick delta from injection to first
   detection; later detections matching an already-closed injection are
   *duplicates* (a second shard tripping the same rollback), never
   false positives;
4. a ``resolved`` record removes a **still-open** injection from the
   detectable denominator (a corruption read-repaired or
   freshness-healed before a MAC verdict graded it); resolving an
   already-detected injection is a no-op, so belated sweeps are safe;
5. a detection matching nothing — open or closed — is a false positive.

The module also ships the two reference drivers behind
``repro forensics``: :func:`run_chaos_flight` (the chaos campaign plus a
control keyspace that guarantees every gated class is exercised) and
:func:`run_healthy_flight` (a fault-free monitored run that must produce
zero incidents).
"""

from __future__ import annotations

from repro.observability.flightrecorder import (
    GATED_CLASSES,
    RECORDER,
    load_flight,
    write_flight,
)

#: Fields compared when joining a detection to an injection; a field
#: missing on either side does not constrain the match.
MATCH_FIELDS = (
    "blob",
    "replica",
    "config",
    "seed",
    "scope",
    "shard",
    "mode",
    "op_index",
    "crash",
    "rollback",
)


def _fields_match(injection: dict, detection: dict) -> bool:
    for key in MATCH_FIELDS:
        if key in injection and key in detection and injection[key] != detection[key]:
            return False
    return True


def _oldest_match(candidates, fault_class: str, detection_fields: dict):
    for record in candidates:
        fields = record["fields"]
        if fields["class"] == fault_class and _fields_match(
            fields, detection_fields
        ):
            return record
    return None


def _class_entry() -> dict:
    return {
        "injected": 0,
        "detected": 0,
        "resolved": 0,
        "duplicates": 0,
        "latencies": [],
    }


def build_scorecard(source) -> dict:
    """Join ground-truth fault records into the per-class scorecard.

    ``source`` is a flight document (or a raw record list).  Returns the
    JSON-ready scorecard with per-class counts, detection rate over the
    detectable denominator, latency stats in ticks, the false-positive
    list, and ``ok`` (the ungated verdict — see :func:`scorecard_gate`
    for the CI gate with required classes).
    """
    records = source["records"] if isinstance(source, dict) else list(source)
    faults = sorted(
        (r for r in records if r.get("channel") == "fault"),
        key=lambda r: r["seq"],
    )
    classes: dict[str, dict] = {}
    open_by_id: dict[str, dict] = {}
    closed: list[dict] = []
    false_positives: list[dict] = []
    matches: dict[int, dict] = {}  # detection seq -> matched injection

    for record in faults:
        kind = record["kind"]
        fields = record["fields"]
        if kind == "injection":
            classes.setdefault(fields["class"], _class_entry())["injected"] += 1
            open_by_id[fields["id"]] = record
        elif kind == "resolved":
            injection = open_by_id.pop(fields["id"], None)
            if injection is not None:
                classes[injection["fields"]["class"]]["resolved"] += 1
        elif kind == "detection":
            fault_class = fields["class"]
            entry = classes.setdefault(fault_class, _class_entry())
            injection = _oldest_match(open_by_id.values(), fault_class, fields)
            if injection is not None:
                del open_by_id[injection["fields"]["id"]]
                closed.append(injection)
                matches[record["seq"]] = injection
                entry["detected"] += 1
                entry["latencies"].append(record["tick"] - injection["tick"])
            elif _oldest_match(closed, fault_class, fields) is not None:
                entry["duplicates"] += 1
                matches[record["seq"]] = _oldest_match(
                    closed, fault_class, fields
                )
            else:
                false_positives.append(
                    {"seq": record["seq"], "tick": record["tick"], **fields}
                )

    report: dict = {"classes": {}, "false_positives": false_positives}
    for fault_class in sorted(classes):
        entry = classes[fault_class]
        detectable = entry["injected"] - entry["resolved"]
        latencies = entry["latencies"]
        report["classes"][fault_class] = {
            "injected": entry["injected"],
            "resolved": entry["resolved"],
            "detectable": detectable,
            "detected": entry["detected"],
            "open": detectable - entry["detected"],
            "duplicates": entry["duplicates"],
            "rate": (entry["detected"] / detectable) if detectable else None,
            "latency": (
                {
                    "min": min(latencies),
                    "max": max(latencies),
                    "mean": sum(latencies) / len(latencies),
                }
                if latencies
                else None
            ),
        }
    report["gated"] = list(GATED_CLASSES)
    report["ok"] = not scorecard_gate(report)
    report["_matches"] = matches  # internal: consumed by build_timeline
    return report


def scorecard_gate(scorecard: dict, require: tuple = ()) -> list[str]:
    """CI-gate problems with a scorecard; empty means the gate passes.

    Every gated class that was detectable must have been detected 100 %
    of the time, and no false positive may exist.  ``require`` lists
    classes that must additionally have a *non-zero* detectable count —
    the chaos driver's controls guarantee this, so a gate that silently
    graded nothing cannot pass.
    """
    problems = []
    for fault_class in GATED_CLASSES:
        entry = scorecard["classes"].get(fault_class)
        if entry is None:
            continue
        if entry["detectable"] > 0 and entry["rate"] != 1.0:
            problems.append(
                f"{fault_class}: detected {entry['detected']} of "
                f"{entry['detectable']} detectable injection(s)"
            )
    for fp in scorecard["false_positives"]:
        problems.append(
            f"false positive: {fp['class']} detection at tick {fp['tick']} "
            f"matches no injection"
        )
    for fault_class in require:
        entry = scorecard["classes"].get(fault_class)
        if entry is None or entry["detectable"] == 0:
            problems.append(
                f"{fault_class}: no detectable injection exercised the gate"
            )
    return problems


# -- the timeline ------------------------------------------------------------


_ANOMALY = ("alert",)


def _summary(record: dict) -> str:
    fields = record["fields"]
    parts = [f"{k}={fields[k]}" for k in sorted(fields) if k != "class"]
    label = record["kind"]
    if "class" in fields:
        label = f"{record['kind']}:{fields['class']}"
    return f"{label} " + " ".join(parts) if parts else label


def build_timeline(doc: dict) -> list[dict]:
    """The causally ordered incident timeline with root-cause links.

    One entry per record, in ``seq`` (and therefore tick) order.  Each
    detection carries the injection it closed; each alert is
    attributed to the nearest preceding injection and the nearest
    preceding WAL-truncation note (offset attribution), when they exist.
    """
    scorecard = build_scorecard(doc)
    matches = scorecard["_matches"]
    timeline = []
    last_injection: dict | None = None
    last_wal_offset = None
    for record in sorted(doc["records"], key=lambda r: r["seq"]):
        fields = record["fields"]
        if record["channel"] == "fault" and record["kind"] == "injection":
            last_injection = record
        if record["channel"] == "note" and record["kind"] == "wal.truncated":
            last_wal_offset = fields.get("offset")
        entry = {
            "seq": record["seq"],
            "tick": record["tick"],
            "channel": record["channel"],
            "summary": _summary(record),
        }
        cause = None
        if record["channel"] == "fault" and record["kind"] == "detection":
            injection = matches.get(record["seq"])
            if injection is not None:
                cause = {
                    "injection": injection["fields"]["id"],
                    "class": injection["fields"]["class"],
                    **{
                        k: injection["fields"][k]
                        for k in MATCH_FIELDS
                        if k in injection["fields"]
                    },
                }
            else:
                entry["false_positive"] = True
        elif record["channel"] in _ANOMALY and last_injection is not None:
            cause = {
                "injection": last_injection["fields"]["id"],
                "class": last_injection["fields"]["class"],
                "nearest": True,
            }
        if cause is not None:
            if last_wal_offset is not None:
                cause["wal_offset"] = last_wal_offset
            entry["cause"] = cause
        timeline.append(entry)
    return timeline


# -- renderers ---------------------------------------------------------------


def render_scorecard(scorecard: dict) -> str:
    lines = ["detection scorecard"]
    header = (
        f"  {'class':<14} {'injected':>8} {'resolved':>8} {'detectable':>10} "
        f"{'detected':>8} {'rate':>6} {'latency':>9}"
    )
    lines.append(header)
    for fault_class, entry in scorecard["classes"].items():
        rate = "n/a" if entry["rate"] is None else f"{entry['rate']:.0%}"
        if entry["latency"] is None:
            latency = "n/a"
        else:
            latency = f"{entry['latency']['min']}-{entry['latency']['max']}t"
        gated = "*" if fault_class in scorecard["gated"] else " "
        lines.append(
            f" {gated}{fault_class:<14} {entry['injected']:>8} "
            f"{entry['resolved']:>8} {entry['detectable']:>10} "
            f"{entry['detected']:>8} {rate:>6} {latency:>9}"
        )
    lines.append(
        f"  false positives: {len(scorecard['false_positives'])}"
        f"  (* = CI-gated class)"
    )
    for fp in scorecard["false_positives"]:
        lines.append(f"    tick {fp['tick']}: {fp['class']} ({fp})")
    return "\n".join(lines)


def render_timeline(timeline: list[dict]) -> str:
    lines = ["incident timeline"]
    for entry in timeline:
        line = f"  t{entry['tick']:>5} [{entry['channel']:<9}] {entry['summary']}"
        cause = entry.get("cause")
        if cause is not None:
            details = [f"{k}={v}" for k, v in cause.items() if k != "nearest"]
            arrow = "~>" if cause.get("nearest") else "<-"
            line += f"  {arrow} " + " ".join(details)
        if entry.get("false_positive"):
            line += "  !! FALSE POSITIVE"
        lines.append(line)
    return "\n".join(lines)


def public_scorecard(scorecard: dict) -> dict:
    """The scorecard without internal bookkeeping (JSON-safe)."""
    return {k: v for k, v in scorecard.items() if not k.startswith("_")}


# -- reference drivers -------------------------------------------------------


def _flip_byte(disk, name: str) -> None:
    blob = bytearray(disk.read(name))
    blob[len(blob) // 2] ^= 0xA5
    disk.write(name, bytes(blob))
    disk.sync(name)


def _run_controls(config_label: str, config) -> None:
    """Exercise every gated fault class once, with guaranteed verdicts.

    The weighted chaos schedule cannot promise a MAC-invalid corruption
    or a lockstep rollback on every seed, so the driver appends a small
    control keyspace (one shard, three bare replicas) where each gated
    class is injected in its most detectable form: a rollback past an
    advanced trust anchor, a bit flip in the manifest of one replica
    (its decode MAC-rejects any flip), and a bit flip in the shard
    checkpoint of *every* replica (no authentic copy can survive).
    """
    from repro.core.keys import KeyChain
    from repro.durability.crashcampaign import _CRASH_MASTER_KEY, _row_values
    from repro.durability.vdisk import MemoryDisk
    from repro.errors import StaleImageError
    from repro.resilience.anchor import MemoryAnchor
    from repro.resilience.replica import MirroredDisk
    from repro.resilience.scrub import scrub_keyspace
    from repro.sharding.campaign import _seed_keyspace
    from repro.sharding.keyspace import ShardedKeyspace
    from repro.sharding.manifest import MANIFEST_BLOB

    chain = KeyChain.single(_CRASH_MASTER_KEY)
    anchor = MemoryAnchor()
    bases = [MemoryDisk() for _ in range(3)]

    def mount() -> ShardedKeyspace:
        return ShardedKeyspace.open(
            MirroredDisk(bases),
            chain,
            config,
            shard_count=1,
            workers=1,
            anchor=anchor,
        )

    RECORDER.note("control.start", config=config_label)
    keyspace = mount()
    _seed_keyspace(keyspace, 2)
    stale = [base.durable_state() for base in bases]
    for i in (2, 3):
        keyspace.insert("people", _row_values(i))
    keyspace.checkpoint()  # the anchor is now ahead of ``stale``
    current = [base.durable_state() for base in bases]

    # Control 1: lockstep rollback — every replica rewound to the stale
    # snapshot; the next mount must trip the trust anchor.
    RECORDER.tick()
    RECORDER.record_injection("rollback", config=config_label, control=True)
    bases = [MemoryDisk(dict(state)) for state in stale]
    try:
        mount()
    except StaleImageError:
        pass  # the anchor's raise recorded the detection
    bases = [MemoryDisk(dict(state)) for state in current]
    mount()

    # Control 2: MAC-covered tamper — one replica's manifest bit-flipped
    # (the manifest decode MAC-rejects any flip, so the scrub verdict is
    # guaranteed MAC-invalid, not a freshness heal).
    RECORDER.tick()
    RECORDER.record_injection(
        "tamper",
        blob=MANIFEST_BLOB,
        replica=0,
        mode="bitflip",
        config=config_label,
        control=True,
    )
    _flip_byte(bases[0], MANIFEST_BLOB)

    # Control 3: unrepairable — the shard checkpoint bit-flipped on
    # *every* replica; no authentic copy survives anywhere.
    RECORDER.tick()
    RECORDER.record_injection(
        "unrepairable", blob="s0.checkpoint", config=config_label, control=True
    )
    for base in bases:
        _flip_byte(base, "s0.checkpoint")

    RECORDER.tick()
    scrub_keyspace(MirroredDisk(bases), chain)
    RECORDER.note("control.end", config=config_label)


def run_chaos_flight(
    steps: int = 24,
    seed: int = 0,
    configs=None,
    shard_count: int = 2,
    replicas: int = 3,
    flaky: bool = True,
    meta: dict | None = None,
    out=None,
):
    """The scorecard reference run: chaos campaign + gated controls.

    Resets the recorder, runs the seeded chaos campaign, appends the
    control keyspace (so every gated class has a non-zero detectable
    count), and snapshots the flight document.  Returns
    ``(campaign, flight_doc, scorecard)``; the caller gates on
    :func:`scorecard_gate` with ``require=GATED_CLASSES``.
    """
    from repro.resilience.chaos import run_chaos_campaign
    from repro.robustness.campaign import default_campaign_configs

    configs = configs if configs is not None else default_campaign_configs()
    RECORDER.reset()
    campaign = run_chaos_campaign(
        steps=steps,
        seed=seed,
        shard_count=shard_count,
        replicas=replicas,
        flaky=flaky,
        configs=configs,
    )
    control_label, control_config = configs[0]
    _run_controls(control_label, control_config)
    doc = RECORDER.snapshot(reason="chaos-campaign", meta=meta)
    if out is not None:
        write_flight(doc, out)
    scorecard = build_scorecard(doc)
    return campaign, doc, scorecard


def run_healthy_flight(
    scenario: str = "point_query",
    quick: bool = True,
    inject: tuple = (),
    limit: int | None = None,
    meta: dict | None = None,
    out=None,
):
    """The false-alarm control: a monitored run with no injected faults
    must produce zero incidents (no alerts, no unmatched detections, no
    open gated injections).  Returns ``(health_doc, flight_doc,
    incidents)``; ``inject`` passes monitor fault injections through, in
    which case incidents are *expected*.
    """
    from repro.observability.monitor import run_monitor

    RECORDER.reset()
    health = run_monitor(
        scenario=scenario, quick=quick, inject=list(inject), limit=limit
    )
    doc = RECORDER.snapshot(reason="healthy-run", meta=meta)
    if out is not None:
        write_flight(doc, out)
    return health, doc, flight_incidents(doc)


def flight_incidents(doc: dict) -> list[str]:
    """Every incident in a flight document, as human-readable strings:
    health alerts, false-positive detections, and open gated
    injections."""
    incidents = []
    for record in doc["records"]:
        if record["channel"] == "alert":
            incidents.append(
                f"alert {record['kind']} at tick {record['tick']}: "
                f"{record['fields'].get('message', '')}"
            )
    scorecard = build_scorecard(doc)
    incidents.extend(scorecard_gate(scorecard))
    return incidents


def load_and_grade(path) -> tuple[dict, dict]:
    """Load one ``FLIGHT.json`` and build its scorecard (CLI helper)."""
    doc = load_flight(path)
    return doc, build_scorecard(doc)
