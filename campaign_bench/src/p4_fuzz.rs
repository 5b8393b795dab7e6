//! `p4_fuzz`: a P4 differential campaign over the P4 corpus. Every cycle
//! runs one `p4_fuzz_campaign_with_runtime` per program at the fused
//! match-action level plus one `cross_model_check` (reference
//! interpreter == RMT pipeline == dRMT machine). Every run must pass and
//! every cross-model check must agree. The Domino oracle is never used.

use std::collections::BTreeMap;

use druzhba::core::Value;
use druzhba::dgen::{MatPipeline, OptLevel};
use druzhba::drmt::{solve, DrmtMachine, ScheduleConfig};
use druzhba::dsim::p4::{
    p4_fuzz_campaign_with_runtime, P4CampaignConfig, P4FuzzConfig, P4Traffic, P4Workload,
};
use druzhba::dsim::runtime::RuntimeOptions;
use druzhba::dsim::testing::{shard_seed, Verdict};
use druzhba::p4::deps::build_dag;
use druzhba::p4::lower::{lower, RmtConfig};
use druzhba::p4::tables::bind;
use druzhba::p4::{parse_entries, parse_p4};
use druzhba::p4hunt::{cross_model_check, drmt_state_consistent, CrossModelReport};
use druzhba::programs::{P4ProgramDef, P4_PROGRAMS};

use crate::common::{measure, timed_setups, traced, Opts, Outcome};
use crate::trace::{self, span};

/// Independently seeded runs per program per cycle.
const RUNS: usize = 4;
/// Packets per run.
const PACKETS: usize = 40_000;
/// Packets per cross-model check (the CLI's cap).
const CROSS_PACKETS: usize = 1_000;
/// Bit-width cap on randomized header fields (the CLI default).
const BITS: u32 = 16;

fn setup() -> Result<Vec<(&'static P4ProgramDef, P4Workload)>, String> {
    P4_PROGRAMS
        .iter()
        .map(|def| {
            let err = |e: druzhba::core::Error| format!("{}: {e}", def.name);
            let (hlir, entries) = span("p4.parse", || {
                Ok::<_, druzhba::core::Error>((parse_p4(def.source)?, parse_entries(def.entries)?))
            })
            .map_err(err)?;
            // The steps of `P4Workload::new`, split so that lowering has
            // a span of its own.
            let lowering = span("p4.lower", || {
                bind(&hlir, &entries)?;
                lower(&hlir, &RmtConfig::default())
            })
            .map_err(err)?;
            Ok((
                def,
                P4Workload {
                    hlir,
                    entries,
                    lowering,
                },
            ))
        })
        .collect()
}

type CrossModel = Result<(usize, u32, usize, Option<String>), String>;

fn cross_key(r: Result<CrossModelReport, String>) -> CrossModel {
    r.map(|x| (x.packets, x.drmt_makespan, x.rmt_stages, x.drmt_skipped))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let programs = timed_setups(&mut out, setup)?;

    // Per cycle and program: the campaign seed, run verdicts, and the
    // cross-model result.
    let mut seen: Vec<(usize, u64, Vec<Verdict>, CrossModel)> = Vec::new();
    measure(opts, &mut out, setup, |c, out| {
        let mut units = 0.0;
        for (i, (def, w)) in programs.iter().enumerate() {
            let seed = opts.unit_seed((c * programs.len() + i) as u64);
            let cfg = P4CampaignConfig {
                runs: RUNS,
                workers: opts.workers,
                base: P4FuzzConfig {
                    num_phvs: PACKETS,
                    seed,
                    input_bits: BITS,
                    minimize: true,
                },
            };
            let report = p4_fuzz_campaign_with_runtime(
                w,
                &w.entries,
                OptLevel::Fused,
                &cfg,
                &RuntimeOptions::default(),
            );
            if report.truncated > 0 || report.runs.len() != RUNS {
                out.fail(format!("{}: campaign truncated", def.name));
            }
            for r in &report.runs {
                out.check(r.passed() && r.phvs_tested == PACKETS, || {
                    format!("{} seed {:#x}: {:?}", def.name, r.seed, r.verdict)
                });
                units += r.phvs_tested as f64;
            }
            let xm = cross_key(cross_model_check(w, seed, CROSS_PACKETS, BITS));
            out.check(matches!(&xm, Ok((n, ..)) if *n == CROSS_PACKETS), || {
                format!("{} cross-model: {xm:?}", def.name)
            });
            if xm.is_ok() {
                units += CROSS_PACKETS as f64;
            }
            let verdicts = report.runs.into_iter().map(|r| r.verdict).collect();
            seen.push((i, seed, verdicts, xm));
        }
        units
    })?;

    if opts.trace {
        trace::enable();
        trace::serial(setup)?;
        traced(&mut out, |out| {
            for (unit, (i, seed, verdicts, xm)) in seen.iter().enumerate() {
                let (def, w) = &programs[*i];
                let results = trace::parallel(
                    (0..RUNS).collect(),
                    opts.workers,
                    |_, run| {
                        crate::layers::p4_fuzz_test(
                            w,
                            &w.entries,
                            OptLevel::Fused,
                            shard_seed(*seed, run as u64),
                            BITS,
                            PACKETS,
                        )
                    },
                    |_| {},
                );
                for (run, r) in results.into_iter().enumerate() {
                    if !r.as_ref().is_ok_and(|v| *v == verdicts[run]) {
                        out.fail(format!(
                            "traced verdict differs: {} unit {unit} run {run}",
                            def.name
                        ));
                    }
                }
                let traced_xm = trace::serial(|| cross_model(w, *seed, CROSS_PACKETS, BITS));
                if traced_xm != *xm {
                    out.fail(format!(
                        "traced cross-model differs: {} unit {unit}: {traced_xm:?} vs {xm:?}",
                        def.name
                    ));
                }
            }
        });
    }
    Ok(out)
}

type StatefulState = (BTreeMap<String, Vec<Value>>, BTreeMap<String, Vec<u64>>);

/// The steps of `cross_model_check`, each layer call in a span. Returns
/// the same projection of the report (or the same error text).
fn cross_model(w: &P4Workload, seed: u64, packets: usize, bits: u32) -> CrossModel {
    let layout = &w.lowering.layout;
    let input = span("dsim.traffic", || {
        P4Traffic::new(w, seed, bits).trace(packets)
    });
    let packet_list: Vec<druzhba::p4::Packet> = span("p4.exec", || {
        let it = input.phvs.iter().enumerate();
        it.map(|(i, phv)| layout.phv_to_packet(i as u64, phv))
            .collect()
    });

    let mut interp = span("p4.exec", || w.interpreter());
    let (expected_packets, _) = span("p4.exec", || interp.run(packet_list.clone()));
    trace::count("p4.exec_packets", packets as f64);

    let mut pipeline = span("dgen.mat.generate", || {
        MatPipeline::generate(&w.hlir, &w.entries, &w.lowering, OptLevel::Fused)
    })
    .map_err(|e| e.to_string())?;
    let rmt_out = span("dgen.mat.exec", || pipeline.run(&input));
    span("core.trace.compare", || {
        for (i, (expected, actual)) in expected_packets.iter().zip(&rmt_out.phvs).enumerate() {
            let expected_phv = layout.packet_to_phv(expected);
            if &expected_phv != actual {
                return Err(format!(
                    "RMT pipeline diverges from interpreter on packet {i}: \
                     expected {expected_phv}, got {actual}"
                ));
            }
        }
        Ok(())
    })?;

    let drmt_skipped = drmt_state_consistent(w)
        .map(|obj| format!("stateful object `{obj}` is shared across tables"));
    let mut makespan = 0;
    let mut drmt_state: Option<StatefulState> = None;
    if drmt_skipped.is_none() {
        let sched_cfg = ScheduleConfig::default();
        let schedule = span("drmt.schedule", || solve(&build_dag(&w.hlir), &sched_cfg))
            .map_err(|e| e.to_string())?;
        makespan = schedule.makespan();
        let mut machine = span("drmt.exec", || {
            DrmtMachine::new(w.hlir.clone(), schedule, sched_cfg, w.entries.clone())
        })
        .map_err(|e| e.to_string())?;
        let drmt_out = span("drmt.exec", || machine.run(packet_list));
        span("core.trace.compare", || {
            if drmt_out.len() != expected_packets.len() {
                return Err(format!(
                    "dRMT completed {} of {} packets",
                    drmt_out.len(),
                    expected_packets.len()
                ));
            }
            for (i, (expected, actual)) in expected_packets.iter().zip(&drmt_out).enumerate() {
                if expected != actual {
                    return Err(format!(
                        "dRMT machine diverges from interpreter on packet {i}: \
                         expected {expected:?}, got {actual:?}"
                    ));
                }
            }
            Ok(())
        })?;
        drmt_state = Some((machine.registers().clone(), machine.counters().clone()));
    }

    span("core.trace.compare", || {
        let mut views: Vec<(&str, StatefulState)> =
            vec![("RMT pipeline", (pipeline.registers(), pipeline.counters()))];
        if let Some(state) = drmt_state {
            views.push(("dRMT machine", state));
        }
        for (model, (regs, _)) in &views {
            if regs != interp.registers() {
                return Err(format!(
                    "{model} register state diverges: expected {:?}, got {regs:?}",
                    interp.registers()
                ));
            }
        }
        for (model, (_, ctrs)) in &views {
            if ctrs != interp.counters() {
                return Err(format!(
                    "{model} counter state diverges: expected {:?}, got {ctrs:?}",
                    interp.counters()
                ));
            }
        }
        Ok(())
    })?;
    Ok((packets, makespan, w.lowering.num_stages(), drmt_skipped))
}
