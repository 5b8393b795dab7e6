//! Crash-recovery robustness of the campaign checkpoint layer, driven
//! end-to-end through the hunt library: damaged snapshots (truncated,
//! bit-flipped, version-bumped) must degrade to warnings and re-runs —
//! never to a wrong report — and a resumed campaign's JSON must be
//! byte-identical to an uninterrupted run's.

use std::fs;
use std::path::PathBuf;

use druzhba::dsim::runtime::RuntimeOptions;
use druzhba::dsim::snapshot;
use druzhba::hunt::{hunt, HuntConfig};
use druzhba::p4hunt::{p4_hunt_workloads, P4HuntConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "druzhba-snapshot-robustness-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One small, fast campaign; checkpointing after every completed task
/// when a directory is given.
fn config(ckpt: Option<PathBuf>, resume: bool) -> HuntConfig {
    HuntConfig {
        programs: vec!["sampling".into()],
        mutants_per_class: 1,
        fuzz_phvs: 300,
        fuzz_runs: 1,
        workers: 2,
        runtime: RuntimeOptions {
            checkpoint_dir: ckpt,
            checkpoint_every: 1,
            resume,
            budget_secs: None,
        },
        ..HuntConfig::default()
    }
}

#[test]
fn resumed_hunt_report_is_byte_identical_after_losing_the_newest_snapshot() {
    let dir = tmpdir("rotate");
    let clean = hunt(&config(None, false)).unwrap().to_json();

    // Checkpointed run, then delete the *current* snapshot: the exact
    // state a kill -9 between rotate and rename leaves behind. Resume
    // must fall back to the rotated `.prev` generation and re-run only
    // the missing tail.
    hunt(&config(Some(dir.clone()), false)).unwrap();
    let current = snapshot::current_path(&dir, "hunt");
    let prev = snapshot::prev_path(&dir, "hunt");
    assert!(current.exists(), "campaign never checkpointed");
    assert!(prev.exists(), "campaign never rotated a snapshot");
    fs::remove_file(&current).unwrap();

    let resumed = hunt(&config(Some(dir.clone()), true)).unwrap();
    assert_eq!(resumed.to_json(), clean, "resumed report diverged");
    // The heartbeat survives for external monitors.
    let status = fs::read_to_string(dir.join("status.json")).unwrap();
    assert!(status.contains("\"kind\": \"hunt\""), "{status}");
    assert!(status.contains("\"truncated\": false"), "{status}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_bitflipped_snapshots_degrade_to_a_clean_rerun() {
    let dir = tmpdir("corrupt");
    let clean = hunt(&config(None, false)).unwrap().to_json();

    hunt(&config(Some(dir.clone()), false)).unwrap();
    // Damage *both* generations: truncate the current file mid-body and
    // flip one byte of the previous one (breaking its checksum).
    let current = snapshot::current_path(&dir, "hunt");
    let text = fs::read_to_string(&current).unwrap();
    fs::write(&current, &text[..text.len() / 2]).unwrap();
    let prev = snapshot::prev_path(&dir, "hunt");
    let mut bytes = fs::read(&prev).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&prev, &bytes).unwrap();

    // Resume has nothing valid to restore: it warns and re-runs from
    // scratch — and still lands on the byte-identical report.
    let resumed = hunt(&config(Some(dir.clone()), true)).unwrap();
    assert_eq!(resumed.to_json(), clean, "corrupt resume diverged");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_bumped_snapshot_is_rejected_not_misread() {
    let dir = tmpdir("version");
    hunt(&config(Some(dir.clone()), false)).unwrap();
    let current = snapshot::current_path(&dir, "hunt");
    let text = fs::read_to_string(&current).unwrap();
    let bumped = text.replacen("druzhba-snapshot v1 ", "druzhba-snapshot v999 ", 1);
    assert_ne!(text, bumped, "header not found to bump");
    fs::write(&current, bumped).unwrap();
    // Remove the valid fallback so only the bumped file remains.
    let _ = fs::remove_file(snapshot::prev_path(&dir, "hunt"));

    // The loader must refuse the unknown version with a warning, not
    // guess at the payload. (Fingerprint matches the campaign config, so
    // only the version check can reject it.)
    let fingerprint = snapshot::fingerprint_of(&["probe".to_string()]);
    let loaded = snapshot::load_latest(&dir, "hunt", fingerprint);
    assert!(loaded.lines.is_none(), "bumped snapshot was accepted");
    assert!(
        loaded.warnings.iter().any(|w| w.contains("version")),
        "{:?}",
        loaded.warnings
    );

    // And the campaign shrugs it off end-to-end.
    let clean = hunt(&config(None, false)).unwrap().to_json();
    let resumed = hunt(&config(Some(dir.clone()), true)).unwrap();
    assert_eq!(resumed.to_json(), clean);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn zero_wallclock_budget_yields_an_empty_truncated_report() {
    let mut cfg = config(None, false);
    cfg.runtime.budget_secs = Some(0);
    let report = hunt(&cfg).unwrap();
    assert_eq!(report.records.len(), 0, "no time, no evaluations");
    assert!(report.truncated > 0, "every task must count as truncated");
    let json = report.to_json();
    assert!(
        json.contains(&format!("\"truncated\": {}", report.truncated)),
        "{json}"
    );
}

/// A small P4 hunt over one corpus program, checkpointing after every
/// completed task when a directory is given.
fn p4_config(ckpt: Option<PathBuf>, resume: bool) -> P4HuntConfig {
    P4HuntConfig {
        mutants_per_class: 1,
        fuzz_phvs: 300,
        fuzz_runs: 1,
        workers: 2,
        runtime: RuntimeOptions {
            checkpoint_dir: ckpt,
            checkpoint_every: 1,
            resume,
            budget_secs: None,
        },
        ..P4HuntConfig::default()
    }
}

#[test]
fn resumed_p4_hunt_report_is_byte_identical() {
    let dir = tmpdir("p4-hunt");
    let def = druzhba::programs::p4_by_name("l2_forward").unwrap();
    let targets = vec![(def.name.to_string(), def.workload().unwrap())];
    let clean = p4_hunt_workloads(&p4_config(None, false), &targets);
    assert!(clean.evaluations() > 1, "too small to split");

    // Checkpointed run, then keep only the first half of the snapshot's
    // records: resume must restore those verbatim, re-evaluate the rest,
    // and interleave both into the uninterrupted report.
    p4_hunt_workloads(&p4_config(Some(dir.clone()), false), &targets);
    let current = snapshot::current_path(&dir, "p4-hunt");
    let text = fs::read_to_string(&current).unwrap();
    let fp_hex = text.lines().nth(1).unwrap().strip_prefix("fingerprint ");
    let fingerprint = u64::from_str_radix(fp_hex.unwrap(), 16).unwrap();
    let lines = snapshot::load_latest(&dir, "p4-hunt", fingerprint)
        .lines
        .expect("checkpoint validates");
    assert_eq!(lines.len(), clean.evaluations(), "every task checkpointed");
    let kept = lines.len() / 2;
    snapshot::save(&dir, "p4-hunt", fingerprint, &lines[..kept]).unwrap();

    let resumed = p4_hunt_workloads(&p4_config(Some(dir.clone()), true), &targets);
    assert_eq!(
        resumed.to_json(),
        clean.to_json(),
        "resumed report diverged"
    );
    assert_eq!(
        resumed.outcomes.len(),
        lines.len() - kept,
        "re-evaluated tail"
    );
    let status = fs::read_to_string(dir.join("status.json")).unwrap();
    let done = format!("\"completed\": {}", lines.len());
    assert!(status.contains("\"kind\": \"p4-hunt\""), "{status}");
    assert!(status.contains(&done), "{status}");
    let _ = fs::remove_dir_all(&dir);
}
