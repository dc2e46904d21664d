//! Exit-code contract for the artifact-reading subcommands: a missing or
//! empty `--obs` bundle must fail loudly (non-zero, message on stderr),
//! never print a half-empty report with exit 0. Runs the real binary via
//! `CARGO_BIN_EXE_prs`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn prs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prs"))
        .args(args)
        .output()
        .expect("prs binary runs")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prs-exit-codes-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn readers_reject_a_missing_bundle() {
    let missing = "/nonexistent/prs-obs-bundle";
    for cmd in [
        vec!["trace", "--dir", missing],
        vec!["metrics", "--dir", missing],
        vec!["analyze", missing],
        vec!["watch", missing],
        vec!["top", "--dir", missing, "--snapshot", "0.1"],
        vec!["profile", missing],
        vec!["diff", missing, missing],
        vec!["postmortem", missing],
    ] {
        let out = prs(&cmd);
        assert_eq!(
            out.status.code(),
            Some(1),
            "prs {} on a missing dir must exit 1",
            cmd.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error"),
            "prs {}: stderr should explain the failure, got: {stderr}",
            cmd.join(" ")
        );
    }
}

#[test]
fn readers_reject_an_empty_bundle() {
    let dir = tmp_dir("empty");
    std::fs::write(dir.join("events.jsonl"), "").expect("write empty events");
    std::fs::write(dir.join("metrics.prom"), "").expect("write empty metrics");
    let d = dir.to_str().expect("utf-8 temp path");
    for cmd in [
        vec!["trace", "--dir", d],
        vec!["metrics", "--dir", d],
        vec!["analyze", d],
        vec!["watch", d],
        vec!["profile", d],
        vec!["diff", d, d],
    ] {
        let out = prs(&cmd);
        assert_eq!(
            out.status.code(),
            Some(1),
            "prs {} on an empty bundle must exit 1",
            cmd.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("no events found")
                || stderr.contains("no samples found")
                || stderr.contains("no stack frames found"),
            "prs {}: unexpected stderr: {stderr}",
            cmd.join(" ")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    for cmd in [
        vec!["trace"],
        vec!["trace", "--bogus", "x"],
        vec!["chaos", "--rules", "rules.toml"], // --rules requires --score-watch
        vec!["watch"],
        vec!["profile"],                     // missing bundle dir
        vec!["profile", "x", "--bogus", "y"],
        vec!["profile", "x", "--period", "0"], // period must be positive
        vec!["diff"],                        // needs exactly two bundles
        vec!["diff", "only-one"],
        vec!["diff", "a", "b", "--bogus"],
        vec!["postmortem"],                  // missing dir
        vec!["postmortem", "x", "--bogus"],
        vec!["chaos", "--record"],           // captures need the scored grid
        vec!["chaos", "--record-out", "d"],  // needs --record
        vec!["chaos", "--churn", "--score-watch"], // churn grid stands alone
        vec!["chaos", "--churn", "--record", "--score-watch"],
        vec!["run", "--record-budget", "0"], // budget must be at least 1
        vec!["run", "--membership", "p.toml", "--app", "gemv"], // elastic needs cmeans
        vec!["run", "--autoscale", "--app", "kmeans"],
        vec!["run", "--membership", "/nonexistent/plan.toml"], // unreadable plan file
        // Degenerate shapes: clustering needs 1 <= clusters < points, and
        // every app needs at least one point and one dimension.
        vec!["run", "--app", "cmeans", "--points", "0"],
        vec!["run", "--app", "fft", "--points", "0"],
        vec!["run", "--app", "gemv", "--points", "0"],
        vec!["run", "--app", "spmv", "--points", "0"],
        vec!["run", "--app", "dgemm", "--points", "0"],
        vec!["run", "--app", "wordcount", "--points", "0"],
        vec!["run", "--app", "cmeans", "--points", "3", "--nodes", "8"],
        vec!["run", "--app", "kmeans", "--points", "1"],
        vec!["run", "--app", "gmm", "--points", "2"],
        vec!["run", "--app", "cmeans", "--clusters", "0"],
        vec!["run", "--dims", "0"],
        vec!["run", "--engine", "calendar"], // there is one engine: no knob
        vec!["chaos", "--engine", "parallel"],
        vec!["definitely-not-a-subcommand"],
    ] {
        let out = prs(&cmd);
        assert_eq!(
            out.status.code(),
            Some(2),
            "prs {} must exit 2 (usage error)",
            cmd.join(" ")
        );
        assert!(
            !out.stderr.is_empty(),
            "prs {} must explain the usage error on stderr",
            cmd.join(" ")
        );
    }
}

#[test]
fn postmortem_rejects_a_dir_without_captures() {
    // The dir exists but holds no capture-*.jsonl: exit 1, not a
    // zero-incident report with exit 0.
    let dir = tmp_dir("no-captures");
    std::fs::write(dir.join("events.jsonl"), "").expect("write empty events");
    let out = prs(&["postmortem", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1), "empty capture set must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no capture"),
        "stderr should name the missing captures: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recorded_run_feeds_the_postmortem_reader() {
    // `run --record --obs` emits postmortem.json (incident-free here, so
    // no captures), and the recorder block lands in rollup.jsonl.
    let dir = tmp_dir("record-e2e");
    let d = dir.to_str().expect("utf-8 temp path");
    let run = prs(&[
        "run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--record", "--obs", d,
    ]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(dir.join("postmortem.json").is_file(), "postmortem.json missing");
    let rollup = std::fs::read_to_string(dir.join("rollup.jsonl")).expect("rollup.jsonl");
    assert!(rollup.contains("\"recorder\""), "rollup lacks the recorder block:\n{rollup}");
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    assert!(
        metrics.contains("prs_recorder_events_retained"),
        "recorder gauges missing from metrics.prom"
    );
    // A healthy bundle has no captures, so the standalone reader says so.
    let pm = prs(&["postmortem", d]);
    assert_eq!(pm.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn membership_run_writes_audited_decisions() {
    // A drain plan through the real binary: the run succeeds, reports the
    // elastic epoch count, and the --obs bundle's decision audit carries
    // the membership scale lines.
    let dir = tmp_dir("membership");
    let plan = dir.join("plan.toml");
    std::fs::write(&plan, "seed = 11\n\n[[drain]]\nnode = 1\nat_s = 0.05\ndeadline_s = 10.0\n")
        .expect("write plan");
    let d = dir.to_str().expect("utf-8 temp path");
    let out = prs(&[
        "run", "--nodes", "2", "--points", "20000", "--iterations", "3",
        "--membership", plan.to_str().expect("utf-8 plan path"), "--obs", d,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("elastic:"), "run summary lacks the elastic line: {stdout}");
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    assert!(
        events.contains("\"membership\""),
        "event bus lacks the membership lane:\n{events}"
    );
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    assert!(
        metrics.contains("prs_membership_total"),
        "membership counters missing from metrics.prom"
    );
    // A malformed plan is a usage error, caught before any run starts.
    std::fs::write(&plan, "[[drain]]\nnode = 1\nwhen = 0.5\n").expect("rewrite plan");
    let bad = prs(&["run", "--membership", plan.to_str().expect("utf-8 plan path")]);
    assert_eq!(bad.status.code(), Some(2), "malformed plan must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_grid_passes_and_writes_its_report() {
    let dir = tmp_dir("churn");
    let out_file = dir.join("churn.json");
    let out = prs(&[
        "chaos", "--churn", "--trials", "3",
        "--out", out_file.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let report = std::fs::read_to_string(&out_file).expect("churn report written");
    assert!(report.contains("\"all_passed\": true"), "grid should pass:\n{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn end_to_end_run_then_watch_succeeds() {
    let dir = tmp_dir("e2e");
    let d = dir.to_str().expect("utf-8 temp path");
    let run = prs(&["run", "--nodes", "2", "--points", "20000", "--iterations", "2", "--obs", d]);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    for artifact in [
        "events.jsonl",
        "alerts.jsonl",
        "incidents.jsonl",
        "stacks.jsonl",
        "profile.folded",
        "profile.json",
    ] {
        assert!(dir.join(artifact).is_file(), "{artifact} missing from the bundle");
    }
    // The profiler and the differ both accept the bundle they just wrote.
    let profile = prs(&["profile", d]);
    assert_eq!(
        profile.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&profile.stderr)
    );
    let selfdiff = prs(&["diff", d, d]);
    assert_eq!(
        selfdiff.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&selfdiff.stderr)
    );
    assert!(dir.join("diff.json").is_file(), "diff.json written into the candidate bundle");
    let watchdog = prs(&["watch", d]);
    assert_eq!(
        watchdog.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&watchdog.stderr)
    );
    let stdout = String::from_utf8_lossy(&watchdog.stdout);
    assert!(
        stdout.contains("healthy: no alerts"),
        "fault-free bundle should be healthy: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
