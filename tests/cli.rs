//! End-to-end tests of the `druzhba` command-line tool: spawn the built
//! binary and assert exit codes and key output lines for the
//! compile/fuzz/verify/atoms/programs workflow.

use std::path::PathBuf;
use std::process::{Command, Output};

const SAMPLING: &str = "state int count = 0;\n\
                        if (count == 9) { count = 0; pkt.sample = 1; }\n\
                        else { count = count + 1; pkt.sample = 0; }\n";

fn druzhba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_druzhba"))
        .args(args)
        .output()
        .expect("spawn druzhba binary")
}

fn write_sampling() -> PathBuf {
    // Unique per call: tests run concurrently within one process.
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "druzhba-cli-test-{}-{n}.domino",
        std::process::id()
    ));
    std::fs::write(&path, SAMPLING).expect("write temp domino file");
    path
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = druzhba(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"), "stderr: {err}");
}

#[test]
fn unknown_command_fails() {
    let out = druzhba(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "stderr: {err}");
}

#[test]
fn unknown_flag_is_rejected_with_its_name_and_subcommand() {
    let path = write_sampling();
    let file = path.to_str().unwrap();
    for (argv, flag, command) in [
        (vec!["fuzz", file, "--phv", "100"], "--phv", "druzhba fuzz"),
        (vec!["hunt", "--mutantz", "1"], "--mutantz", "druzhba hunt"),
        (vec!["compile", file, "-x", "1"], "-x", "druzhba compile"),
        (
            vec!["verify", file, "--phvs", "9"],
            "--phvs",
            "druzhba verify",
        ),
    ] {
        let out = druzhba(&argv);
        assert!(!out.status.success(), "{argv:?} ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(err.contains(command), "{err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn help_anywhere_prints_usage_and_succeeds() {
    for argv in [
        vec!["--help"],
        vec!["-h"],
        vec!["help"],
        vec!["verify", "--help"],
        vec!["hunt", "--programs", "sampling", "-h"],
    ] {
        let out = druzhba(&argv);
        assert!(out.status.success(), "{argv:?} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE"), "{argv:?}: {stdout}");
    }
}

#[test]
fn atoms_lists_the_library() {
    let out = druzhba(&["atoms"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for atom in [
        "raw",
        "sub",
        "if_else_raw",
        "pred_raw",
        "nested_ifs",
        "pair",
    ] {
        assert!(stdout.contains(atom), "missing atom `{atom}` in:\n{stdout}");
    }
    assert!(stdout.contains("stateless_full"));
}

#[test]
fn programs_lists_the_table1_corpus() {
    let out = druzhba(&["programs"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["blue_decrease", "sampling", "conga", "spam_detection"] {
        assert!(
            stdout.contains(name),
            "missing program `{name}` in:\n{stdout}"
        );
    }
}

#[test]
fn compile_emits_machine_code() {
    let path = write_sampling();
    let out = druzhba(&[
        "compile",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The machine code must program the whole grid, including the sampling
    // threshold as an if_else_raw immediate.
    assert!(stdout.contains("output_mux_phv_0_0"), "stdout: {stdout}");
    assert!(
        stdout.contains("stateful_alu_0_0_const_0 = 9"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("compiled:"), "stderr: {stderr}");
    assert!(stderr.contains("\"sample\""), "stderr: {stderr}");
}

#[test]
fn fuzz_passes_on_a_correct_compilation() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--phvs",
        "500",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("500 PHVs"), "stdout: {stdout}");
    assert!(stdout.contains("Pass"), "stdout: {stdout}");
}

#[test]
fn fuzz_campaign_shards_runs_across_workers() {
    let path = write_sampling();
    let args = |extra: &[&str]| {
        let mut v = vec![
            "fuzz",
            path.to_str().unwrap(),
            "--depth",
            "2",
            "--width",
            "1",
            "--atom",
            "if_else_raw",
            "--phvs",
            "200",
        ];
        v.extend_from_slice(extra);
        v.into_iter().map(String::from).collect::<Vec<_>>()
    };
    let out = druzhba(
        &args(&["--runs", "4", "--jobs", "2"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("campaign[fused]: 4 runs x 200 PHVs"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("4 passed"), "stdout: {stdout}");

    // --jobs without a multi-run campaign is an explicit error, not a
    // silently serial run.
    let out = druzhba(
        &args(&["--jobs", "2"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--runs"), "stderr: {err}");
}

#[test]
fn fuzz_accepts_hex_seed_and_reports_it() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--phvs",
        "200",
        "--seed",
        "0xBEEF",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The seed is echoed so failing runs paste straight back into --seed.
    assert!(stdout.contains("seed 0xbeef"), "stdout: {stdout}");

    // A malformed seed is a flag error, not a silent default.
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--seed",
        "xyz",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad seed"), "stderr: {err}");
}

#[test]
fn fuzz_level_all_exercises_every_backend() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--phvs",
        "200",
        "--level",
        "all",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for level in ["unoptimized", "scc", "scc_inline", "fused"] {
        assert!(
            stdout.contains(&format!("fuzz[{level}]")),
            "missing level `{level}` in:\n{stdout}"
        );
    }
}

#[test]
fn fuzz_edit_diverges_and_printed_seed_replays_it() {
    let path = write_sampling();
    let base = |extra: &[&str]| {
        let mut v = vec![
            "fuzz",
            path.to_str().unwrap(),
            "--depth",
            "2",
            "--width",
            "1",
            "--atom",
            "if_else_raw",
            "--phvs",
            "200",
        ];
        v.extend_from_slice(extra);
        v.into_iter().map(String::from).collect::<Vec<_>>()
    };
    // Reroute the sample-flag output mux: a mutant the fuzzer must catch.
    let args = base(&["--edit", "stateful_alu_0_0_const_0=8"]);
    let out = druzhba(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!out.status.success(), "the edit must diverge");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The failure prints a minimized counterexample and an actionable
    // replay line carrying the seed and the edit.
    assert!(
        stdout.contains("minimized counterexample"),
        "stdout: {stdout}"
    );
    assert!(stderr.contains("--seed 0x"), "stderr: {stderr}");
    assert!(
        stderr.contains("--edit 'stateful_alu_0_0_const_0=8'"),
        "stderr: {stderr}"
    );
    // Extract the printed seed and paste it back: same divergence.
    let seed = stderr
        .split("--seed ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("failure message carries a seed")
        .to_string();
    let args = base(&["--edit", "stateful_alu_0_0_const_0=8", "--seed", &seed]);
    let out = druzhba(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(!out.status.success(), "replay must reproduce");
    let replay_err = String::from_utf8_lossy(&out.stderr);
    assert!(
        replay_err.contains(&format!("--seed {seed}")),
        "replay stderr: {replay_err}"
    );

    // Unknown pair names are flag errors, not silent no-ops.
    let args = base(&["--edit", "no_such_pair=1"]);
    let out = druzhba(&args.iter().map(String::as_str).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a machine-code pair"), "stderr: {err}");
}

#[test]
fn fuzz_rejects_unknown_level() {
    let path = write_sampling();
    let out = druzhba(&[
        "fuzz",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--level",
        "9",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--level"), "stderr: {err}");
}

#[test]
fn verify_exhausts_small_input_space() {
    let path = write_sampling();
    let out = druzhba(&[
        "verify",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
        "--bits",
        "2",
        "--packets",
        "3",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified"), "stdout: {stdout}");
    // Default coverage: every backend is differentially verified.
    for level in ["unoptimized", "scc", "scc_inline", "fused"] {
        assert!(
            stdout.contains(&format!("verified[{level}]")),
            "missing level `{level}` in:\n{stdout}"
        );
    }
}

#[test]
fn hunt_smoke_detects_all_faults_and_emits_json() {
    let out = druzhba(&[
        "hunt",
        "--programs",
        "sampling",
        "--mutants",
        "1",
        "--phvs",
        "400",
        "--runs",
        "1",
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("\"detection_rate\": 1.0000"),
        "stdout: {stdout}"
    );
    for key in [
        "\"removed_pair\"",
        "\"mutated_value\"",
        "\"out_of_range_value\"",
        "\"hostile_trap\"",
        "\"detected_by\": \"panic\"",
        "\"minimized\"",
        "\"essential_edits\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
    assert!(stderr.contains("detected"), "stderr: {stderr}");
}

#[test]
fn hunt_rejects_unknown_program() {
    let out = druzhba(&["hunt", "--programs", "nonexistent_program"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown program"), "stderr: {err}");
}

#[test]
fn compile_rejects_a_program_that_does_not_fit() {
    let path = write_sampling();
    // Depth 1 cannot hold the atom plus the dependent output flag.
    let out = druzhba(&[
        "compile",
        path.to_str().unwrap(),
        "--depth",
        "1",
        "--width",
        "1",
        "--atom",
        "if_else_raw",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr: {err}");
}
