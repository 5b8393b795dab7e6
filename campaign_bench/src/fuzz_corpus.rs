//! `fuzz_corpus`: the paper's Fig. 5 loop as a campaign. Every cycle runs
//! one `fuzz_campaign_with_runtime` per Table 1 program at the fused
//! level, on compiled (clean) machine code, with the Domino interpreter
//! as the oracle. Every run must pass.

use druzhba::chipmunk::{compile, CompiledProgram, CompiledSpec};
use druzhba::dgen::OptLevel;
use druzhba::domino::{parse_program, DominoProgram};
use druzhba::dsim::runtime::RuntimeOptions;
use druzhba::dsim::testing::{fuzz_campaign_with_runtime, CampaignConfig, FuzzConfig, Verdict};
use druzhba::programs::{ProgramDef, PROGRAMS};

use crate::common::{measure, timed_setups, traced, Opts, Outcome};
use crate::{layers, trace};

/// Independently seeded runs per program per cycle.
const RUNS: usize = 4;
/// PHVs per run.
const PHVS: usize = 25_000;
/// Bit width of generated container values (the CLI default).
const BITS: u32 = 10;

pub(crate) struct Program {
    pub def: &'static ProgramDef,
    pub source: DominoProgram,
    pub compiled: CompiledProgram,
}

/// Parse and compile every Table 1 program (the set-up the Domino
/// workloads share).
pub(crate) fn parse_and_compile() -> Result<Vec<Program>, String> {
    PROGRAMS
        .iter()
        .map(|def| {
            let source = trace::span("domino.parse", || parse_program(def.source))
                .map_err(|e| format!("{}: {e}", def.name))?;
            let compiled = trace::span("chipmunk.compile", || {
                compile(&source, &def.compiler_config())
            })
            .map_err(|e| format!("{}: {e}", def.name))?;
            Ok(Program {
                def,
                source,
                compiled,
            })
        })
        .collect()
}

fn fuzz_config(p: &Program, seed: u64) -> FuzzConfig {
    FuzzConfig {
        num_phvs: PHVS,
        seed,
        input_bits: BITS,
        observable: Some(p.compiled.observable_containers()),
        state_cells: p.compiled.state_cells.clone(),
        minimize: true,
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let programs = timed_setups(&mut out, parse_and_compile)?;

    // Per cycle and program: the campaign's base seed and its verdicts.
    let mut seen: Vec<(usize, u64, Vec<Verdict>)> = Vec::new();
    measure(opts, &mut out, parse_and_compile, |c, out| {
        let mut units = 0.0;
        for (i, p) in programs.iter().enumerate() {
            let seed = opts.unit_seed((c * programs.len() + i) as u64);
            let cfg = CampaignConfig {
                runs: RUNS,
                workers: opts.workers,
                base: fuzz_config(p, seed),
            };
            let report = fuzz_campaign_with_runtime(
                &p.compiled.pipeline_spec,
                &p.compiled.machine_code,
                OptLevel::Fused,
                || CompiledSpec::new(p.source.clone(), &p.compiled),
                &cfg,
                &RuntimeOptions::default(),
            );
            if report.truncated > 0 || report.runs.len() != RUNS {
                out.fail(format!("{}: campaign truncated", p.def.name));
            }
            for r in &report.runs {
                out.check(r.passed() && r.phvs_tested == PHVS, || {
                    format!("{} seed {:#x}: {:?}", p.def.name, r.seed, r.verdict)
                });
                units += r.phvs_tested as f64;
            }
            let verdicts = report.runs.into_iter().map(|r| r.verdict).collect();
            seen.push((i, seed, verdicts));
        }
        units
    })?;

    if opts.trace {
        trace::enable();
        trace::serial(parse_and_compile)?;
        traced(&mut out, |out| {
            for (unit, (i, seed, verdicts)) in seen.iter().enumerate() {
                let p = &programs[*i];
                let cfg = fuzz_config(p, *seed);
                let runs: Vec<usize> = (0..RUNS).collect();
                let results = trace::parallel(
                    runs,
                    opts.workers,
                    |_, run| {
                        let mut cfg = cfg.clone();
                        cfg.seed = druzhba::dsim::testing::shard_seed(*seed, run as u64);
                        let mut reference = trace::span("chipmunk.spec_new", || {
                            CompiledSpec::new(p.source.clone(), &p.compiled)
                        });
                        layers::fuzz_test(
                            &p.compiled.pipeline_spec,
                            &p.compiled.machine_code,
                            OptLevel::Fused,
                            &mut reference,
                            &cfg,
                        )
                    },
                    |_| {},
                );
                for (run, r) in results.into_iter().enumerate() {
                    let same = r.as_ref().is_ok_and(|v| *v == verdicts[run]);
                    if !same {
                        out.fail(format!(
                            "traced verdict differs: {} unit {unit} run {run}",
                            p.def.name
                        ));
                    }
                }
            }
        });
    }
    Ok(out)
}
