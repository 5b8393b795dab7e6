//! `mutant_hunt`: the default `hunt` matrix (every Table 1 program, two
//! mutants per fault class, all four levels, the default campaign seed)
//! with checkpointing into a temporary directory, one `hunt::hunt` per
//! cycle. Known answers: no truncation, every evaluation detected, the
//! report's digest equal to the one pinned below, and a resumed
//! campaign's report byte-identical to the uninterrupted one.
//!
//! The workload seed picks, per cycle, the order in which the config
//! lists the four levels. The order fixes each evaluation's task index,
//! and so its fuzz seeds and minimized counterexamples, while the mutant
//! set stays the default one. A different campaign seed would draw a
//! different mutant set, whose hunt cost differs by tens of percent (a
//! few mutants dominate through minimization), so throughput would
//! measure the draw rather than the program.

use std::path::{Path, PathBuf};
use std::time::Instant;

use druzhba::analysis::{flag_mutant, symbolic_equivalent, StaticFlag};
use druzhba::chipmunk::CompiledSpec;
use druzhba::core::{MachineCode, Trace};
use druzhba::dgen::OptLevel;
use druzhba::dsim::fault::{Fault, FaultInjector, FaultKind};
use druzhba::dsim::minimize::{minimize_fault, MinimizeConfig, MinimizedCounterExample};
use druzhba::dsim::runtime::{catch_silent, RuntimeOptions};
use druzhba::dsim::snapshot;
use druzhba::dsim::testing::{shard_seed, FuzzConfig, Verdict};
use druzhba::dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};
use druzhba::hunt::{hunt, Detection, EvalRecord, HuntConfig, HuntReport};

use crate::common::{measure, timed_setups, traced, Opts, Outcome};
use crate::fuzz_corpus::{parse_and_compile, Program};
use crate::layers;
use crate::trace::{self, count, span};

/// Checkpoint cadence, in completed evaluations.
const EVERY: usize = 16;

/// FNV-1a digests of `HuntReport::to_json` for each level order, indexed
/// as [`level_order`] numbers them. Reports are byte-identical across
/// worker counts and resume, so a changed digest is a behaviour change.
const PINNED: [u64; 24] = [
    0x114cecf15816fce2,
    0xaa35ecb5bd7f7850,
    0x2eb865a37fc61f9e,
    0x8bfae3f2a8bf594a,
    0x7229733e7f676e60,
    0x7cd0544524120d7e,
    0x8e56f85d0f94a77a,
    0xba0396a4420f11e0,
    0xca579cfd53678770,
    0x75e82599d7319152,
    0x2bd8ab0f95d51978,
    0x826bb0cf81014aa2,
    0x9ff4fc2038429a7a,
    0x7cf82067900b0c46,
    0x537c0053ae6b0baa,
    0x2b86f7b97eadcbcc,
    0x8447a3c7e8be391e,
    0x8ebb0cd4bed00054,
    0x0ff295417714b5a8,
    0xf2ce3431d985f556,
    0x042dc1aeaa0746b0,
    0x1dd062eb14284a5a,
    0x7c576a53533360a0,
    0xc8fab9450f77ffbe,
];

/// The `k`-th of the 24 orders of the four levels (lexicographic over
/// `OptLevel::ALL`).
fn level_order(k: usize) -> Vec<OptLevel> {
    let mut pool = OptLevel::ALL.to_vec();
    let mut k = k % 24;
    let mut order = Vec::with_capacity(4);
    for radix in [6, 2, 1, 1] {
        order.push(pool.remove(k / radix));
        k %= radix;
    }
    order
}

/// Removes the checkpoint directory when the run ends, however it ends.
struct CheckpointDir(PathBuf);

impl Drop for CheckpointDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn checkpoint_dir() -> CheckpointDir {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".checkpoints")
        .join(format!("hunt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointDir(dir)
}

fn hunt_config(opts: &Opts, order: usize, dir: PathBuf, resume: bool) -> HuntConfig {
    HuntConfig {
        levels: level_order(order),
        workers: opts.workers,
        runtime: RuntimeOptions {
            checkpoint_dir: Some(dir),
            checkpoint_every: EVERY,
            resume,
            budget_secs: None,
        },
        ..HuntConfig::default()
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let programs = timed_setups(&mut out, parse_and_compile)?;
    // `hunt` compiles through the process-wide cache; fill it now with
    // the same (deterministic) compilation each set-up repetition timed.
    for p in &programs {
        p.def
            .compile_cached()
            .map_err(|e| format!("{}: {e}", p.def.name))?;
    }
    let checkpoints = checkpoint_dir();

    // Checked as each cycle ends; kept only for the traced re-drive, so
    // that peak memory does not grow with the cycle count.
    let mut reports: Vec<(usize, HuntReport)> = Vec::new();
    let mut first_json = None;
    let (mut evaluations, mut detected) = (0, 0);
    measure(opts, &mut out, parse_and_compile, |c, out| {
        let order = (opts.unit_seed(c as u64) % 24) as usize;
        let dir = checkpoints.0.join(format!("cycle-{c}"));
        let report = match hunt(&hunt_config(opts, order, dir, false)) {
            Ok(report) => report,
            Err(e) => {
                out.fail(format!("hunt, level order {order}: {e}"));
                return 0.0;
            }
        };
        out.check(report.truncated == 0, || {
            format!("level order {order}: truncated")
        });
        for r in &report.records {
            out.check(r.detector != "none", || {
                format!(
                    "level order {order}: {} {} survived",
                    r.program,
                    r.level.key()
                )
            });
        }
        evaluations += report.evaluations();
        detected += report.detected();
        let json = report.to_json();
        let digest = snapshot::fnv1a(json.as_bytes());
        let pinned = PINNED[order];
        out.check(digest == pinned, || {
            format!("level order {order}: digest {digest:#018x}, pinned {pinned:#018x}")
        });
        if c == 0 {
            first_json = Some((order, json));
        }
        let units = report.evaluations() as f64;
        if opts.trace {
            reports.push((order, report));
        }
        units
    })?;

    // Resume cycle 0 from its completed checkpoint: the contract is a
    // byte-identical report.
    if let Some((order, json)) = first_json {
        let dir = checkpoints.0.join("cycle-0");
        let resumed = hunt(&hunt_config(opts, order, dir, true)).map(|r| r.to_json());
        out.check(resumed.as_deref() == Ok(json.as_str()), || {
            format!("level order {order}: resumed report differs")
        });
    }
    out.detection_rate = Some(detected as f64 / evaluations.max(1) as f64);

    if opts.trace {
        trace::enable();
        trace::serial(parse_and_compile)?;
        traced(&mut out, |out| {
            for (c, (order, report)) in reports.iter().enumerate() {
                let dir = checkpoints.0.join(format!("traced-{c}"));
                let cfg = hunt_config(opts, *order, dir, false);
                traced_hunt(&cfg, &programs, report, out);
            }
        });
    }
    Ok(out)
}

/// One seeded mutant awaiting evaluation.
struct Mutant {
    program: usize,
    fault: Fault,
    mc: MachineCode,
    static_flag: StaticFlag,
    witness: Option<u64>,
}

/// What the traced run compares with the untraced outcome.
type Evaluated = (
    Fault,
    Detection,
    StaticFlag,
    usize,
    Option<Verdict>,
    Option<MinimizedCounterExample>,
);

/// The steps of `hunt::hunt`, each layer call in a span: seed and screen
/// mutants on this thread, then evaluate every (mutant, level) on the
/// work-stealing pool, saving checkpoints as evaluations complete.
fn traced_hunt(cfg: &HuntConfig, programs: &[Program], untraced: &HuntReport, out: &mut Outcome) {
    let (mutants, neutral) = trace::serial(|| seed_mutants(cfg, programs));
    if neutral != untraced.neutral_discarded {
        out.fail(format!(
            "traced seeding differs: {neutral} neutral, untraced {}",
            untraced.neutral_discarded
        ));
    }
    let tasks: Vec<(usize, usize, OptLevel)> = mutants
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| cfg.levels.iter().map(move |&l| (mi, l)))
        .enumerate()
        .map(|(gi, (mi, l))| (gi, mi, l))
        .collect();
    if tasks.len() != untraced.outcomes.len() {
        out.fail(format!(
            "traced matrix has {} evaluations, untraced {}",
            tasks.len(),
            untraced.outcomes.len()
        ));
        return;
    }

    // Checkpoints carry the untraced run's records: the traced verdicts
    // must equal them, so the bytes written are the campaign's own.
    let dir = cfg
        .runtime
        .checkpoint_dir
        .clone()
        .expect("checkpointing on");
    let fingerprint = snapshot::fingerprint_of(&[
        "hunt".to_string(),
        format!(
            "{:?}",
            HuntConfig {
                runtime: RuntimeOptions::default(),
                ..cfg.clone()
            }
        ),
    ]);
    let mut done = vec![false; tasks.len()];
    let mut since_save = 0;
    let save = |done: &[bool]| {
        let lines: Vec<String> = untraced
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| done[*i])
            .map(|(i, r)| record_line(i, r))
            .collect();
        span("dsim.snapshot.save", || {
            if let Err(e) = snapshot::save(&dir, "hunt", fingerprint, &lines) {
                eprintln!("warning: checkpoint save failed: {e}");
            }
            let completed = done.iter().filter(|d| **d).count();
            snapshot::write_heartbeat(&dir, "hunt", completed, done.len(), false);
        });
        let written =
            std::fs::metadata(snapshot::current_path(&dir, "hunt")).map_or(0, |m| m.len());
        count("dsim.snapshot.bytes", written as f64);
    };

    let results = trace::parallel(
        tasks,
        cfg.workers,
        |_, (gi, mi, level)| {
            let start = Instant::now();
            let r = evaluate(cfg, programs, &mutants[mi], level, gi as u64);
            (r, start.elapsed().as_secs_f64())
        },
        |i| {
            done[i] = true;
            since_save += 1;
            if since_save >= EVERY {
                since_save = 0;
                save(&done);
            }
        },
    );
    trace::serial(|| save(&done));

    for (i, (r, o)) in results.into_iter().zip(&untraced.outcomes).enumerate() {
        let Ok((got, secs)) = r else {
            out.fail(format!("traced evaluation {i} panicked"));
            continue;
        };
        out.eval_s.push(secs);
        let want = (
            o.fault.clone(),
            o.detection.clone(),
            o.static_flag,
            o.executions,
            o.verdict.clone(),
            o.minimized.clone(),
        );
        if got != want {
            out.fail(format!(
                "traced verdict differs: levels {:?} evaluation {i} ({} {})",
                cfg.levels,
                o.program,
                o.level.key()
            ));
        }
    }
}

/// `hunt`'s checkpoint line for one record.
fn record_line(idx: usize, r: &EvalRecord) -> String {
    format!(
        "{idx}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.program,
        r.fault_kind.key(),
        r.level.key(),
        r.detector,
        r.static_flag.label(),
        r.verdict_class,
        r.executions,
        r.json
    )
}

/// The Domino oracle as `hunt` builds it for every screen and evaluation:
/// parse the program, then wire the interpreter to the compilation.
fn oracle(p: &Program) -> CompiledSpec {
    let source = span("domino.parse", || p.def.parse());
    span("chipmunk.spec_new", || {
        CompiledSpec::new(source, &p.compiled)
    })
}

fn fuzz_config(cfg: &HuntConfig, p: &Program, seed: u64) -> FuzzConfig {
    FuzzConfig {
        num_phvs: cfg.fuzz_phvs,
        seed,
        input_bits: cfg.input_bits,
        observable: Some(p.compiled.observable_containers()),
        state_cells: p.compiled.state_cells.clone(),
        minimize: false,
    }
}

fn verify_config(cfg: &HuntConfig, p: &Program) -> VerifyConfig {
    VerifyConfig {
        input_bits: cfg.verify_bits,
        packets: cfg.verify_packets,
        relevant_containers: (0..p.compiled.input_fields.len()).collect(),
        observable: Some(p.compiled.observable_containers()),
        state_cells: p.compiled.state_cells.clone(),
        max_cases: 1 << 16,
        lanes: 0,
    }
}

/// Seed `mutants_per_class` distinct mutants per fault class per
/// program, screening value mutations for behavioural effect. Returns
/// the mutants and the count of candidates discarded as neutral.
fn seed_mutants(cfg: &HuntConfig, programs: &[Program]) -> (Vec<Mutant>, usize) {
    let mut mutants = Vec::new();
    let mut neutral = 0;
    let mut candidate = 0u64;
    for (pi, p) in programs.iter().enumerate() {
        let comp = &p.compiled;
        let mut injector = FaultInjector::new(shard_seed(cfg.seed, pi as u64));
        for kind in FaultKind::ALL {
            let mut seeded: Vec<Fault> = Vec::new();
            for _ in 0..cfg.mutants_per_class * 10 {
                if seeded.len() >= cfg.mutants_per_class {
                    break;
                }
                let injected = span("dsim.fault.inject", || {
                    injector.inject(&comp.pipeline_spec, &comp.machine_code, kind)
                });
                let Some((mc, fault)) = injected else { break };
                if seeded.contains(&fault) {
                    continue;
                }
                let witness = if kind == FaultKind::MutatedValue {
                    let probe_seed = shard_seed(cfg.seed ^ 0x5343_524E, candidate);
                    candidate += 1;
                    count("dsim.fault.screened", 1.0);
                    match screen(cfg, p, &mc, probe_seed) {
                        None => {
                            neutral += 1;
                            count("dsim.fault.neutral", 1.0);
                            continue;
                        }
                        Some(witness) => witness,
                    }
                } else {
                    None
                };
                seeded.push(fault.clone());
                let static_flag = span("analysis.flag", || {
                    catch_silent(|| flag_mutant(&comp.pipeline_spec, &comp.machine_code, &mc))
                        .unwrap_or(StaticFlag::Structural)
                });
                count("analysis.flag_calls", 1.0);
                if static_flag != StaticFlag::Unflagged {
                    count("analysis.flagged", 1.0);
                }
                mutants.push(Mutant {
                    program: pi,
                    fault,
                    mc,
                    static_flag,
                    witness,
                });
            }
        }
    }
    (mutants, neutral)
}

/// Probe a value mutation: a symbolic equivalence proof first, then
/// seeded fuzz runs and bounded verification against the oracle.
/// `None` = neutral; `Some(Some(seed))` = fuzzing diverged under `seed`;
/// `Some(None)` = only verification diverged.
fn screen(cfg: &HuntConfig, p: &Program, mc: &MachineCode, probe_seed: u64) -> Option<Option<u64>> {
    let comp = &p.compiled;
    let equivalent = span("analysis.equiv", || {
        symbolic_equivalent(&comp.pipeline_spec, &comp.machine_code, mc)
    });
    if equivalent == Some(true) {
        return None;
    }
    let mut reference = oracle(p);
    for run in 0..cfg.fuzz_runs.max(1) {
        let seed = shard_seed(probe_seed, run as u64);
        let fuzz_cfg = fuzz_config(cfg, p, seed);
        let verdict = layers::fuzz_test(
            &comp.pipeline_spec,
            mc,
            OptLevel::SccInline,
            &mut reference,
            &fuzz_cfg,
        );
        if !verdict.passed() {
            return Some(Some(seed));
        }
    }
    let verified = span("dsim.verify.scalar", || {
        verify_bounded(
            &comp.pipeline_spec,
            mc,
            OptLevel::SccInline,
            &mut reference,
            &verify_config(cfg, p),
        )
    });
    match verified {
        Ok(VerifyOutcome::CounterExample { .. }) => Some(None),
        _ => None,
    }
}

/// Evaluate one mutant on one level: fresh seeded fuzz runs, the witness
/// seed, then bounded verification, minimizing the first divergence
/// against the known-good machine code.
fn evaluate(
    cfg: &HuntConfig,
    programs: &[Program],
    mutant: &Mutant,
    level: OptLevel,
    task_index: u64,
) -> Evaluated {
    let p = &programs[mutant.program];
    let comp = &p.compiled;
    let mut reference = oracle(p);
    let minimize_cfg = MinimizeConfig {
        observable: Some(comp.observable_containers()),
        state_cells: comp.state_cells.clone(),
        ..MinimizeConfig::default()
    };
    let minimize = |input: &Trace, reference: &mut CompiledSpec| {
        count("dsim.minimize_calls", 1.0);
        span("dsim.minimize", || {
            minimize_fault(
                &comp.pipeline_spec,
                &comp.machine_code,
                &mutant.mc,
                level,
                reference,
                input,
                &minimize_cfg,
            )
        })
        .map(|(_, mce)| mce)
    };
    let fuzz_round = |seed: u64, reference: &mut CompiledSpec| {
        let fuzz_cfg = fuzz_config(cfg, p, seed);
        let verdict =
            layers::fuzz_test(&comp.pipeline_spec, &mutant.mc, level, reference, &fuzz_cfg);
        if verdict.passed() {
            return None;
        }
        if matches!(verdict, Verdict::BackendPanic { .. }) {
            return Some((verdict, None));
        }
        let input =
            layers::domino_traffic(&comp.pipeline_spec, seed, cfg.input_bits, cfg.fuzz_phvs);
        Some((verdict, minimize(&input, reference)))
    };
    let found = |detection, executions, verdict, minimized| -> Evaluated {
        let fault = mutant.fault.clone();
        (
            fault,
            detection,
            mutant.static_flag,
            executions,
            Some(verdict),
            minimized,
        )
    };
    let panicked = |v: &Verdict| matches!(v, Verdict::BackendPanic { .. });

    let budget = cfg.case_budget.unwrap_or(usize::MAX).max(1);
    let mut executions = 0;
    let task_seed = shard_seed(cfg.seed ^ 0x4855_4E54, task_index);
    for run in 0..cfg.fuzz_runs {
        if executions >= budget {
            break;
        }
        let seed = shard_seed(task_seed, run as u64);
        executions += 1;
        if let Some((verdict, minimized)) = fuzz_round(seed, &mut reference) {
            let detection = if panicked(&verdict) {
                Detection::Panic { seed }
            } else {
                Detection::Fuzz { seed }
            };
            return found(detection, executions, verdict, minimized);
        }
    }
    if let Some(seed) = mutant.witness {
        if executions < budget {
            executions += 1;
            if let Some((verdict, minimized)) = fuzz_round(seed, &mut reference) {
                let detection = if panicked(&verdict) {
                    Detection::Panic { seed }
                } else {
                    Detection::Witness { seed }
                };
                return found(detection, executions, verdict, minimized);
            }
        }
    }
    let undetected = |executions| -> Evaluated {
        let fault = mutant.fault.clone();
        (
            fault,
            Detection::Undetected,
            mutant.static_flag,
            executions,
            None,
            None,
        )
    };
    if executions >= budget {
        return undetected(executions);
    }
    executions += 1;
    let verified = span("dsim.verify.scalar", || {
        verify_bounded(
            &comp.pipeline_spec,
            &mutant.mc,
            level,
            &mut reference,
            &verify_config(cfg, p),
        )
    });
    if let Ok(VerifyOutcome::CounterExample {
        input, mismatch, ..
    }) = verified
    {
        let minimized = minimize(&input, &mut reference);
        return found(
            Detection::Verify,
            executions,
            Verdict::Mismatch(mismatch),
            minimized,
        );
    }
    undetected(executions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_orders_are_the_24_permutations() {
        let mut orders: Vec<Vec<OptLevel>> = (0..24).map(level_order).collect();
        assert_eq!(orders[0], OptLevel::ALL.to_vec());
        orders.sort_by_key(|o| o.iter().map(|l| l.key()).collect::<Vec<_>>());
        orders.dedup();
        assert_eq!(orders.len(), 24);
    }
}
