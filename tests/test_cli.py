"""The ``python -m repro`` command-line driver."""

import hashlib
import json

import pytest

from repro.__main__ import main


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "plaintext visible in storage: False" in out


def test_collisions(capsys):
    assert main(["collisions", "256"]) == 0
    out = capsys.readouterr().out
    assert "256 addresses" in out


def test_collisions_default_mentions_paper(capsys):
    assert main(["collisions"]) == 0
    assert "found 6" in capsys.readouterr().out


def test_overhead(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "storage overhead" in out
    assert "2n+m+1" in out


def test_attacks(capsys):
    assert main(["attacks"]) == 0
    out = capsys.readouterr().out
    assert "broken" in out and "fixed" in out
    # The broken configuration loses everywhere; the fix nowhere.
    for line in out.splitlines():
        if line.startswith("broken"):
            assert line.rstrip().endswith("yes")
        if line.startswith("fixed"):
            assert line.rstrip().endswith("no")


FAULTCAMPAIGN_3 = """\
fault-injection detection matrix (3 seeded faults per configuration, 8-row database)
configuration               detected-by-MAC  detected-structurally  silent-corruption  no-effect  loader-crash  recovered  quarantined  violations
--------------------------  ---------------  ---------------------  -----------------  ---------  ------------  ---------  -----------  ----------
plaintext baseline          0                2                      1                  0          0             15         1            0
[3] XOR-Scheme              2                0                      1                  0          0             0          24           0
[3] Append-Scheme           0                1                      1                  1          0             21         3            0
[12] index (+append cells)  1                2                      0                  0          0             20         4            0
fixed AEAD (EAX)            2                1                      0                  0          0             22         2            0
fixed AEAD (OCB)            2                1                      0                  0          0             22         2            0
matrix consistent with the paper's claims (broken schemes corrupt silently, AEAD never does)
"""


def test_faultcampaign(capsys):
    assert main(["faultcampaign", "--seeds", "3"]) == 0
    assert capsys.readouterr().out == FAULTCAMPAIGN_3


FAULTCAMPAIGN_2_MATRIX = """\
fault-injection detection matrix (2 seeded faults per configuration, 8-row database)
configuration               detected-by-MAC  detected-structurally  silent-corruption  no-effect  loader-crash  recovered  quarantined  violations
--------------------------  ---------------  ---------------------  -----------------  ---------  ------------  ---------  -----------  ----------
plaintext baseline          0                2                      0                  0          0             8          0            0
[3] XOR-Scheme              2                0                      0                  0          0             0          16           0
[3] Append-Scheme           0                1                      0                  1          0             14         2            1
[12] index (+append cells)  0                2                      0                  0          0             13         3            0
fixed AEAD (EAX)            1                1                      0                  0          0             15         1            0
fixed AEAD (OCB)            1                1                      0                  0          0             15         1            0
"""


def test_faultcampaign_violation_exits_1_without_a_verdict(capsys):
    # Two faults per configuration are too few to see a §3.1 forgery:
    # a finding, reported on the Append-Scheme's row and on stderr.
    assert main(["faultcampaign", "--seeds", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "VIOLATION: [3] Append-Scheme: expected at least one silent "
        "corruption (§3.1 forgery) but observed none\n"
    )
    assert captured.out == FAULTCAMPAIGN_2_MATRIX + "\n"
    append_row = next(
        line for line in captured.out.splitlines()
        if line.startswith("[3] Append-Scheme")
    )
    assert append_row.split()[-1] == "1"


def test_faultcampaign_rejects_unknown_argument(capsys):
    assert main(["faultcampaign", "--bogus"]) == 2


@pytest.mark.parametrize("seeds, problem", [
    ("abc", "--seeds must be an integer"),
    ("0", "--seeds must be at least 1"),
    ("-3", "--seeds must be at least 1"),
], ids=["abc", "0", "-3"])
def test_faultcampaign_rejects_non_integer_seeds(seeds, problem, capsys):
    assert main(["faultcampaign", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert problem in captured.err
    assert "Commands" in captured.out  # usage text, not a traceback or a matrix


def test_collisions_rejects_non_integer_count(capsys):
    assert main(["collisions", "abc"]) == 2
    captured = capsys.readouterr()
    assert "must be an integer" in captured.err
    assert "Commands" in captured.out


def test_collisions_rejects_extra_arguments(capsys):
    assert main(["collisions", "1", "2"]) == 2


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert "unknown command" in captured.err
    assert "Commands" in captured.out


def test_no_command(capsys):
    assert main([]) == 2
    assert "Commands" in capsys.readouterr().out


def test_bench_quick_single_scenario(tmp_path, capsys):
    out = tmp_path / "BENCH_cli.json"
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "bench (quick profile): OK" in captured.out
    assert out.exists()

    import json

    from repro.bench import validate_report

    assert validate_report(json.loads(out.read_text())) == []


def test_backendparity(tmp_path, capsys):
    out = tmp_path / "parity.json"
    assert main(["backendparity", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "cross-backend image parity" in captured.out
    assert "DIVERGED" not in captured.out

    import json

    document = json.loads(out.read_text())
    assert document["ok"] is True
    assert set(document["backends"]) >= {"pure", "optimized"}
    assert all(row["ok"] for row in document["primitives"])
    assert all(row["ok"] for row in document["images"])
    for row in document["images"]:
        assert len(set(row["hashes"].values())) == 1
        assert row["batched"] == row["hashes"][document["reference"]]


def test_backendparity_rejects_unknown_flag(capsys):
    assert main(["backendparity", "--bogus"]) == 2
    assert "unknown backendparity argument" in capsys.readouterr().err


def test_bench_rejects_unknown_scenario(capsys):
    assert main(["bench", "--quick", "--scenarios", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_bench_rejects_unknown_flag(capsys):
    assert main(["bench", "--frobnicate"]) == 2
    assert "unknown bench argument" in capsys.readouterr().err


def test_bench_rejects_empty_scenario_list(capsys):
    assert main(["bench", "--quick", "--scenarios="]) == 2
    assert "no scenarios selected" in capsys.readouterr().err


def test_bench_rejects_missing_flag_values(capsys):
    assert main(["bench", "--scenarios"]) == 2
    assert "--scenarios requires a value" in capsys.readouterr().err
    assert main(["bench", "--out"]) == 2
    assert "--out requires a value" in capsys.readouterr().err
    assert main(["faultcampaign", "--seeds"]) == 2
    assert "--seeds requires a value" in capsys.readouterr().err


def test_bench_baseline_self_comparison_passes(tmp_path, capsys):
    out = tmp_path / "BENCH_a.json"
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    second = tmp_path / "BENCH_b.json"
    delta_path = tmp_path / "delta.json"
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--out", str(second), "--baseline", str(out),
                 "--threshold", "5", "--delta-out", str(delta_path)]) == 0
    captured = capsys.readouterr()
    assert "baseline comparison: OK" in captured.out
    assert delta_path.exists()

    import json

    delta = json.loads(delta_path.read_text())
    assert delta["ok"] is True
    assert all(entry["cipher_delta"] == 0 for entry in delta["entries"])


def test_bench_rejects_missing_baseline_file(tmp_path, capsys):
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_bench_rejects_bad_threshold(capsys):
    assert main(["bench", "--threshold", "abc"]) == 2
    assert "must be a number" in capsys.readouterr().err
    assert main(["bench", "--threshold", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_audit_requires_a_log_or_live(capsys):
    assert main(["audit"]) == 2
    captured = capsys.readouterr()
    assert "requires a log path" in captured.err
    assert "Commands" in captured.out


def test_audit_rejects_missing_file(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope.jsonl")]) == 2
    captured = capsys.readouterr()
    assert "cannot read audit log" in captured.err
    assert "Commands" in captured.out  # usage text, not a traceback


def test_audit_rejects_garbage_jsonl(tmp_path, capsys):
    log = tmp_path / "bad.jsonl"
    log.write_text("this is not json\n")
    assert main(["audit", str(log)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_audit_rejects_truncated_log(tmp_path, capsys):
    log = tmp_path / "cut.jsonl"
    log.write_text('{"kind":"cell.encrypt","seq":1}\n{"kind":"cell.de')
    assert main(["audit", str(log)]) == 2
    assert "truncated or corrupt" in capsys.readouterr().err


def test_audit_rejects_unknown_flag(capsys):
    assert main(["audit", "--frobnicate"]) == 2
    assert "unknown audit argument" in capsys.readouterr().err


def test_audit_rejects_unknown_config_slug(capsys):
    assert main(["audit", "--live", "--configs", "nope"]) == 2
    assert "unknown configuration slug" in capsys.readouterr().err


def test_audit_rejects_extra_positional(tmp_path, capsys):
    assert main(["audit", "a.jsonl", "b.jsonl"]) == 2
    assert "at most one log path" in capsys.readouterr().err


def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "--out", str(out), "--configs", "aead-eax"]) == 0
    captured = capsys.readouterr()
    assert "spans from scenario 'point_query'" in captured.out
    assert out.exists()

    import json

    from repro.observability.traceexport import validate_chrome_trace

    document = json.loads(out.read_text())
    assert validate_chrome_trace(document) == []
    assert document["otherData"]["scenario"] == "point_query"
    assert document["traceEvents"]


def test_trace_requires_out(capsys):
    assert main(["trace"]) == 2
    captured = capsys.readouterr()
    assert "requires --out" in captured.err
    assert "Commands" in captured.out  # usage text, not a traceback


def test_trace_rejects_unknown_scenario(tmp_path, capsys):
    assert main(["trace", "--out", str(tmp_path / "t.json"),
                 "--scenario", "nope"]) == 2
    assert "unknown trace scenario" in capsys.readouterr().err


def test_trace_rejects_unknown_flag(capsys):
    assert main(["trace", "--frobnicate"]) == 2
    assert "unknown trace argument" in capsys.readouterr().err


def test_trace_rejects_unknown_config_slug(tmp_path, capsys):
    assert main(["trace", "--out", str(tmp_path / "t.json"),
                 "--configs", "nope"]) == 2
    assert "unknown configuration slug" in capsys.readouterr().err


def test_explain_prints_profiles_with_formula_verdict(capsys):
    assert main(["explain", "range_query", "--configs", "aead-ocb"]) == 0
    out = capsys.readouterr().out
    assert "== range_query · fixed AEAD (OCB) ==" in out
    assert "query.range" in out
    assert "Sect. 4 check: OK (measured == predicted)" in out
    assert "MISMATCH" not in out


def test_explain_requires_scenario(capsys):
    assert main(["explain"]) == 2
    captured = capsys.readouterr()
    assert "requires a scenario" in captured.err
    assert "Commands" in captured.out


def test_explain_rejects_unknown_scenario(capsys):
    assert main(["explain", "nope"]) == 2
    assert "unknown explain scenario" in capsys.readouterr().err


def test_explain_rejects_extra_positional(capsys):
    assert main(["explain", "point_query", "range_query"]) == 2
    assert "exactly one scenario" in capsys.readouterr().err


def test_explain_rejects_unknown_flag(capsys):
    assert main(["explain", "point_query", "--frobnicate"]) == 2
    assert "unknown explain argument" in capsys.readouterr().err


def test_rotate_fresh_keyspace_and_verify(tmp_path, capsys):
    keyspace_dir = tmp_path / "ks"
    assert main(["rotate", "--dir", str(keyspace_dir),
                 "--new-seed", "first-rotation"]) == 0
    out = capsys.readouterr().out
    assert "created a fresh 2-shard keyspace" in out
    assert "rotation to key epoch 1" in out
    assert "verified: 2 shard(s) at epoch 1" in out


#: SHA-256 of every file CI's two ``rotate`` runs leave in the keyspace
#: directory (read under Python 3.11.7 on both cipher backends).
CI_ROTATE_FILES = {
    "manifest": "c7cbe56a91430437a719bc208f9b69739637d861867ffe4032aa0cc93d731af0",
    "s0.checkpoint": "c1cc346f36e5f59c056eb7162d45b50f2ace2a5ef2184fa552a77c6d17eb13ca",
    "s0.wal": "2825978abba204070fa9ba0e7bec28435070854d14b368cb6134803728e0214f",
    "s1.checkpoint": "a6c453a93cd905726068af4451609bb49a3ba008d414aa1e2c9281e41adb9da7",
    "s1.wal": "2825978abba204070fa9ba0e7bec28435070854d14b368cb6134803728e0214f",
}


def test_rotate_chains_epochs_across_invocations(tmp_path, capsys):
    keyspace_dir = tmp_path / "ks"
    # The two runs of CI's campaign-smoke job.
    assert main(["rotate", "--dir", str(keyspace_dir),
                 "--new-seed", "ci-epoch-1"]) == 0
    capsys.readouterr()
    # The second rotation must supply the full old lineage, oldest first.
    assert main(["rotate", "--dir", str(keyspace_dir),
                 "--old-seed", "repro-demo-master",
                 "--old-seed", "ci-epoch-1",
                 "--new-seed", "ci-epoch-2"]) == 0
    out = capsys.readouterr().out
    assert "rotation to key epoch 2" in out
    assert "verified: 2 shard(s) at epoch 2" in out
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in keyspace_dir.iterdir()
    } == CI_ROTATE_FILES


def test_rotate_single_shard_then_resume(tmp_path, capsys):
    keyspace_dir = str(tmp_path / "ks")
    assert main(["rotate", "--dir", keyspace_dir,
                 "--new-seed", "first-rotation", "--shard", "s1"]) == 0
    out = capsys.readouterr().out
    assert "verified: 1 shard(s) at epoch 1" in out
    # Resume mode: no new key, the chain already holds the target epoch;
    # the lagging shard s0 is brought up to the head.
    assert main(["rotate", "--dir", keyspace_dir,
                 "--old-seed", "repro-demo-master",
                 "--old-seed", "first-rotation"]) == 0
    out = capsys.readouterr().out
    assert "s0" in out and "verified: 1 shard(s) at epoch 1" in out


def test_rotate_hex_key_round_trip(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-key", "00112233445566778899aabbccddeeff"]) == 0
    assert "verified" in capsys.readouterr().out


def test_rotate_requires_dir(capsys):
    assert main(["rotate", "--new-seed", "x"]) == 2
    assert "requires --dir" in capsys.readouterr().err


def test_rotate_requires_a_new_key(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks")]) == 2
    assert "requires --new-key" in capsys.readouterr().err


def test_rotate_rejects_two_new_keys(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-seed", "a", "--new-seed", "b"]) == 2
    assert "exactly one new key" in capsys.readouterr().err


def test_rotate_rejects_bad_hex_and_short_keys(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-key", "zz"]) == 2
    assert "hex string" in capsys.readouterr().err
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-key", "00ff"]) == 2
    assert "at least 16 bytes" in capsys.readouterr().err


def test_rotate_rejects_reused_key(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--old-seed", "same", "--new-seed", "same"]) == 2
    assert "must differ" in capsys.readouterr().err


def test_rotate_rejects_unknown_config_and_shard_count(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-seed", "x", "--config", "nope"]) == 2
    assert "unknown configuration slug" in capsys.readouterr().err
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-seed", "x", "--shards", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_rotate_rejects_unknown_shard_id(tmp_path, capsys):
    assert main(["rotate", "--dir", str(tmp_path / "ks"),
                 "--new-seed", "x", "--shard", "s9"]) == 2
    captured = capsys.readouterr()
    assert "no shard 's9'" in captured.err
    assert "s0, s1" in captured.err


_EAX_LINEAGE = ["--old-seed", "repro-demo-master", "--old-seed", "k1",
                "--new-seed", "k2"]


def test_rotate_under_another_config_is_a_usage_error(tmp_path, capsys):
    keyspace_dir = str(tmp_path / "ks")
    assert main(["rotate", "--dir", keyspace_dir, "--new-seed", "k1"]) == 0
    capsys.readouterr()
    for slug in ("plain", "xor", "append", "dbsec2005", "aead-ocb"):
        assert main(["rotate", "--dir", keyspace_dir, *_EAX_LINEAGE,
                     "--config", slug]) == 2, slug
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--config {slug}" in err, err


def test_rotate_after_a_refused_config_reaches_the_next_epoch(tmp_path, capsys):
    keyspace_dir = str(tmp_path / "ks")
    assert main(["rotate", "--dir", keyspace_dir, "--new-seed", "k1"]) == 0
    for slug in ("plain", "aead-ocb"):
        assert main(["rotate", "--dir", keyspace_dir, *_EAX_LINEAGE,
                     "--config", slug]) == 2
    capsys.readouterr()
    assert main(["rotate", "--dir", keyspace_dir, *_EAX_LINEAGE,
                 "--config", "aead-eax"]) == 0
    assert "verified: 2 shard(s) at epoch 2" in capsys.readouterr().out


def test_rotate_under_plain_refuses_undecodable_text(tmp_path, capsys):
    # With a TEXT first column the typed read under --config plain fails
    # in UTF-8 decoding, not with a SchemaError as on the demo table.
    import hashlib

    from repro.core.encrypted_db import EncryptionConfig
    from repro.core.keys import KeyChain
    from repro.durability.vdisk import FileDisk
    from repro.engine.schema import Column, ColumnType, TableSchema
    from repro.sharding import ShardedKeyspace

    keyspace_dir = str(tmp_path / "ks")
    chain = KeyChain([hashlib.sha256(b"repro-demo-master").digest()])
    keyspace = ShardedKeyspace.open(
        FileDisk(keyspace_dir), chain, EncryptionConfig.paper_fixed("eax")
    )
    keyspace.create_table(TableSchema("notes", [Column("text", ColumnType.TEXT)]))
    for i in range(4):
        keyspace.insert("notes", [f"note-{i}"])
    keyspace.checkpoint()
    assert main(["rotate", "--dir", keyspace_dir, "--new-seed", "k1",
                 "--config", "plain"]) == 2
    assert "UnicodeDecodeError" in capsys.readouterr().err


def test_rotate_rejects_unknown_flag(capsys):
    assert main(["rotate", "--frobnicate"]) == 2
    assert "unknown rotate argument" in capsys.readouterr().err


def test_crashcampaign_rejects_unknown_phase(capsys):
    assert main(["crashcampaign", "--phases", "teleport"]) == 2
    assert "campaign phase" in capsys.readouterr().err


CRASHCAMPAIGN_BOTH_PHASES = """\
crash-recovery campaign (2-row workload, modes cut, limit 3 crash points per configuration)
configuration       boundaries  trials  pre  post  fallbacks  truncations  retried  violations
------------------  ----------  ------  ---  ----  ---------  -----------  -------  ----------
plaintext baseline  33          3       0    3     0          1            8        0

key-rotation crash campaign (2-row workload, 2 shards, modes cut, limit 3 crash points per configuration)
configuration       boundaries  trials  pre  post  rollbacks  rollforwards  violations
------------------  ----------  ------  ---  ----  ---------  ------------  ----------
plaintext baseline  50          3       0    3     0          2             0
every crash recovered to exactly the pre- or post-operation state; audit hooks and \
retried transient failures are byte-neutral; every mid-rotation crash recovered each \
shard to exactly the old or the new key epoch with the manifest verifying
"""


def test_crashcampaign_runs_both_phases_mutation_first(capsys):
    assert main(["crashcampaign", "--rows", "2", "--limit", "3", "--modes", "cut",
                 "--configs", "plain"]) == 0
    assert capsys.readouterr().out == CRASHCAMPAIGN_BOTH_PHASES


def test_audit_live_then_replay_round_trip(tmp_path, capsys):
    assert main(["audit", "--live", "--configs", "aead-eax",
                 "--log-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "agree with the offline matrix" in captured.out
    log = tmp_path / "audit-aead-eax.jsonl"
    assert log.exists()
    assert (tmp_path / "metrics-aead-eax.prom").exists()

    prom = tmp_path / "replay.prom"
    assert main(["audit", str(log), "--metrics-prom", str(prom)]) == 0
    captured = capsys.readouterr()
    assert "streaming leakage verdicts" in captured.out
    assert "# TYPE repro_leak_events counter" in prom.read_text()


def test_bench_refuses_to_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "BENCH_1.json"
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--out", str(out)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["bench", "--quick", "--scenarios", "bulk_insert",
                 "--out", str(out), "--force"]) == 0


def test_monitor_healthy_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "HEALTH.json"
    prom = tmp_path / "series.prom"
    jsonl = tmp_path / "series.jsonl"
    assert main(["monitor", "--scenario", "shard_rotation", "--quick",
                 "--out", str(out), "--prom", str(prom),
                 "--jsonl", str(jsonl)]) == 0
    captured = capsys.readouterr()
    assert "health: OK (no alerts fired)" in captured.out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-health/1"
    assert doc["ok"] is True
    prom_text = prom.read_text()
    assert 'shard="s0"' in prom_text
    # Ring-drop counters ride along with the gauge export, zeros too.
    assert "# TYPE repro_series_dropped counter" in prom_text
    assert "repro_series_dropped{" in prom_text
    assert jsonl.read_text().count("\n") == len(doc["series"])


def test_monitor_injected_miscount_exits_nonzero(capsys):
    assert main(["monitor", "--scenario", "shard_rotation", "--quick",
                 "--inject", "cipher-miscount"]) == 1
    captured = capsys.readouterr()
    assert "ALERT [critical] sect4-drift" in captured.err


def test_monitor_follow_prints_dashboard_ticks(capsys):
    assert main(["monitor", "--scenario", "shard_rotation", "--quick",
                 "--follow"]) == 0
    out = capsys.readouterr().out
    assert "tick " in out
    assert "series updated" in out


def test_monitor_rejects_unknown_scenario_and_injection(capsys):
    assert main(["monitor", "--scenario", "teleport"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["monitor", "--inject", "gremlins"]) == 2
    assert "unknown injection" in capsys.readouterr().err
    assert main(["monitor", "--frobnicate"]) == 2
    assert "unknown monitor argument" in capsys.readouterr().err


CHAOSCAMPAIGN_10 = """\
chaos campaign (10 scheduled events, seed 5, 3 flaky+retrying replicas, 2 shards per configuration)
configuration       events  acked  crashes  corruptions  repairs  rollbacks  detected  rotations  scrubs  violations
------------------  ------  -----  -------  -----------  -------  ---------  --------  ---------  ------  ----------
plaintext baseline  10      3      2        1            0        2          2         0          3       0
no acknowledged commit lost, all 2 rollback(s) detected, all 1 single-replica \
corruption(s) repaired, replicas converged
"""


def test_chaoscampaign_small_schedule_passes(capsys):
    assert main(["chaoscampaign", "--steps", "10", "--seed", "5",
                 "--configs", "plain"]) == 0
    assert capsys.readouterr().out == CHAOSCAMPAIGN_10


def test_chaoscampaign_rejects_unknown_config(capsys):
    assert main(["chaoscampaign", "--configs", "teleport"]) == 2
    assert "configuration slug" in capsys.readouterr().err


def test_scrub_demo_then_heals_an_injected_single_replica_fault(
    tmp_path, capsys
):
    replicas = [str(tmp_path / f"replica-{i}") for i in range(3)]
    flags = [x for path in replicas for x in ("--replica", path)]
    assert main(["scrub", *flags, "--demo"]) == 0
    out = capsys.readouterr().out
    assert "demo keyspace" in out
    assert "scrub" in out

    # Corrupt the manifest on exactly one replica: repairable.
    import pathlib

    victim = next(pathlib.Path(replicas[1]).glob("manifest*"))
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    victim.write_bytes(bytes(blob))
    assert main(["scrub", *flags]) == 0
    out = capsys.readouterr().out
    assert "1 replica repair(s)" in out
    assert "manifest: repaired" in out


def test_scrub_unrepairable_fault_exits_nonzero(tmp_path, capsys):
    replicas = [str(tmp_path / f"replica-{i}") for i in range(2)]
    flags = [x for path in replicas for x in ("--replica", path)]
    assert main(["scrub", *flags, "--demo"]) == 0
    capsys.readouterr()
    assert main(["scrub", *flags, "--inject-fault", "manifest"]) == 1
    assert "UNREPAIRABLE" in capsys.readouterr().err


def test_scrub_requires_two_replicas(capsys, tmp_path):
    assert main(["scrub", "--replica", str(tmp_path / "only")]) == 2
    assert "at least two" in capsys.readouterr().err


#: Every subcommand with one representative bad invocation.  The exit
#: code contract is uniform: 0 success, 1 finding, 2 usage error — and
#: a usage error always prints ``error: ...`` plus the usage text, never
#: a traceback.
_USAGE_ERRORS = [
    ("demo", ["unexpected"]),
    ("attacks", ["--bogus"]),
    ("overhead", ["unexpected"]),
    ("collisions", ["1", "2"]),
    ("faultcampaign", ["--bogus"]),
    ("crashcampaign", ["--bogus"]),
    ("chaoscampaign", ["--bogus"]),
    ("scrub", ["--bogus"]),
    ("rotate", ["--bogus"]),
    ("bench", ["--bogus"]),
    ("backendparity", ["--bogus"]),
    ("audit", ["--bogus"]),
    ("trace", ["--bogus"]),
    ("explain", ["--bogus"]),
    ("monitor", ["--bogus"]),
    ("forensics", ["--bogus"]),
]


@pytest.mark.parametrize(
    "command,argv", _USAGE_ERRORS, ids=[cmd for cmd, _ in _USAGE_ERRORS]
)
def test_every_subcommand_exits_2_on_usage_error(command, argv, capsys):
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Commands" in captured.out  # usage text, not a traceback


def test_forensics_requires_exactly_one_mode(capsys):
    assert main(["forensics"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["forensics", "--chaos", "--healthy"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["forensics", "a.json", "b.json"]) == 2
    assert "at most one" in capsys.readouterr().err


def test_forensics_rejects_bad_inputs(tmp_path, capsys):
    assert main(["forensics", str(tmp_path / "nope.json")]) == 2
    assert "cannot read flight report" in capsys.readouterr().err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{}")
    assert main(["forensics", str(garbage)]) == 2
    assert "not a valid flight report" in capsys.readouterr().err
    assert main(["forensics", "--chaos", "--configs", "teleport"]) == 2
    assert "configuration slug" in capsys.readouterr().err
    assert main(["forensics", "--healthy", "--inject", "gremlins"]) == 2
    assert "unknown injection" in capsys.readouterr().err
    assert main(["forensics", "--healthy", "--scenario", "teleport"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["forensics", "--chaos", "--steps", "0"]) == 2
    assert "--steps must be at least 1" in capsys.readouterr().err


def test_forensics_chaos_writes_and_regrades_flight(tmp_path, capsys):
    out = tmp_path / "FLIGHT.json"
    assert main(["forensics", "--chaos", "--steps", "10",
                 "--configs", "aead-eax", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "detection scorecard" in captured.out
    assert "detection gate:" in captured.out
    assert out.exists()

    from repro.observability.flightrecorder import validate_flight_report

    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-flight/1"
    assert validate_flight_report(doc) == []

    # Grading the artifact stands alone, timeline included.
    assert main(["forensics", str(out), "--timeline"]) == 0
    captured = capsys.readouterr()
    assert "scorecard gate: OK" in captured.out
    assert "incident timeline" in captured.out
    assert "<- injection=inj-" in captured.out


def test_forensics_healthy_control_and_injected_negative(capsys):
    assert main(["forensics", "--healthy", "--scenario", "shard_rotation"]) == 0
    assert "no incidents" in capsys.readouterr().out
    assert main(["forensics", "--healthy", "--scenario", "shard_rotation",
                 "--inject", "cipher-miscount"]) == 1
    assert "INCIDENT:" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["monitor", "--scenario", "rotation_campaign"],
    ["forensics", "--healthy", "--scenario", "rotation_campaign"],
], ids=["monitor", "forensics"])
def test_limit_below_one_is_a_usage_error(command, limit, capsys):
    assert main([*command, "--limit", limit]) == 2
    assert "--limit must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["monitor", "--scenario", "shard_rotation"],
    ["forensics", "--healthy", "--scenario", "shard_rotation"],
    ["forensics", "--chaos"],
    ["forensics", "FLIGHT.json"],
], ids=["monitor", "forensics-healthy", "forensics-chaos", "forensics-regrade"])
def test_limit_applies_only_to_the_rotation_campaign(argv, capsys):
    assert main([*argv, "--limit", "6"]) == 2
    assert ("--limit applies only to --scenario rotation_campaign"
            in capsys.readouterr().err)


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    listed = {
        line.split()[0]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("    ")
    }
    commands = {command for command, _ in _USAGE_ERRORS}
    assert len(commands) == 16
    assert commands <= listed


@pytest.mark.parametrize("command", [cmd for cmd, _ in _USAGE_ERRORS])
def test_every_subcommand_prints_help(command, capsys):
    assert main([command, "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["faultcampaign", "--seed", "3"],
    ["bench", "--scenario", "bulk_insert"],
])
def test_flag_prefixes_are_not_abbreviations(argv, capsys):
    assert main(argv) == 2
    assert f"unknown {argv[0]} argument" in capsys.readouterr().err


def test_rotate_mixed_old_key_flags_keep_argv_order(tmp_path, capsys):
    keyspace_dir = str(tmp_path / "ks")
    key = "00112233445566778899aabbccddeeff"
    assert main(["rotate", "--dir", keyspace_dir, "--new-key", key]) == 0
    capsys.readouterr()
    assert main(["rotate", "--dir", keyspace_dir,
                 "--old-seed", "repro-demo-master", "--old-key", key,
                 "--new-seed", "second"]) == 0
    assert "verified: 2 shard(s) at epoch 2" in capsys.readouterr().out


def test_shared_configs_flag_keeps_each_commands_default(capsys):
    # monitor defaults --configs to aead-eax; explain, which shares the
    # flag, must still default to all six configurations.
    assert main(["explain", "point_query"]) == 0
    assert capsys.readouterr().out.count("== point_query · ") == 6


def test_output_flags_create_missing_directories(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "trace.json"
    assert main(["trace", "--configs", "aead-eax", "--out", str(out)]) == 0
    assert out.exists()


def test_closed_stdout_pipe_exits_without_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "overhead"],
            stdout=write_end, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 1
