//! Differential test for pipeline reuse inside minimization. A
//! [`CaseRunner`] generates a pipeline once per distinct machine code and
//! resets it between checks; `minimize` and `p4_minimize` hold one such
//! cached pipeline. Every verdict must equal a freshly generated
//! pipeline's ([`run_case`] / [`run_p4_case`]), and every minimized
//! counterexample — `checks` included — must equal the one the same
//! search finds through a fresh-per-check oracle
//! ([`minimize_trace_with`]).
//!
//! Programs: the 12 Table 1 programs at all four optimization levels, with
//! one [`FaultInjector`] mutant of every [`FaultKind`] (hostile traps
//! included), and the P4 corpus with one mutant of every [`P4FaultKind`]
//! plus an entry set that cannot program the pipeline.

use druzhba::core::{MachineCode, Phv, Trace};
use druzhba::dgen::OptLevel;
use druzhba::dsim::fault::{FaultInjector, FaultKind};
use druzhba::dsim::minimize::{minimize, minimize_trace_with, MinimizeConfig};
use druzhba::dsim::p4::{p4_minimize, run_p4_case, P4FaultInjector, P4FaultKind, P4Traffic};
use druzhba::dsim::testing::{run_case, CaseRunner, Verdict};
use druzhba::dsim::TrafficGenerator;
use druzhba::programs::{P4_PROGRAMS, PROGRAMS};

/// The minimizers' default budget (`MinimizeConfig::default`, the P4
/// campaigns' `3_000`).
const MAX_CHECKS: usize = 3_000;

#[test]
fn reused_pipelines_give_fresh_verdicts_and_identical_minimizations() {
    let (mut minimized, mut hostile) = (0, 0);
    for (p, def) in PROGRAMS.iter().enumerate() {
        let compiled = def.compile_cached().expect("corpus compiles");
        let spec = &compiled.pipeline_spec;
        let clean = &compiled.machine_code;
        let cfg = MinimizeConfig {
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            max_checks: MAX_CHECKS,
        };
        let mut reference = def.interpreter_spec(&compiled);
        let traffic = |seed: u64, len: usize| {
            TrafficGenerator::new(seed, spec.config.phv_length, 10).trace(len)
        };
        for (l, level) in OptLevel::ALL.into_iter().enumerate() {
            let mut injector = FaultInjector::new(0x5eed + (p * 4 + l) as u64);
            // Hostile traps need a 32-bit hole; every other class applies
            // to every corpus program.
            let mutants: Vec<(FaultKind, MachineCode)> = FaultKind::ALL
                .into_iter()
                .filter_map(|k| injector.inject(spec, clean, k).map(|(mc, _)| (k, mc)))
                .collect();
            hostile += mutants
                .iter()
                .filter(|(k, _)| *k == FaultKind::HostileTrap)
                .count();
            let of = |kind| mutants.iter().find(|(k, _)| *k == kind).map(|(_, mc)| mc);
            let mutated = of(FaultKind::MutatedValue).expect("live pair");
            let incompatible = of(FaultKind::RemovedPair).expect("removal");
            // The check sequence: the same mc repeated, A -> B -> A, an
            // incompatible mc, a hostile one, and the clean mc again.
            let mut sequence = vec![clean, clean, clean, mutated, clean, incompatible];
            sequence.extend(of(FaultKind::OutOfRangeValue));
            sequence.extend(of(FaultKind::HostileTrap));
            sequence.extend([clean, mutated, mutated, clean]);
            let mut runner = CaseRunner::new(spec, level);
            for (i, mc) in sequence.into_iter().enumerate() {
                let input = traffic(i as u64, 1 + (i * 7) % 40);
                let obs = cfg.observable.as_deref();
                let reused = runner.run(mc, &mut reference, &input, obs, &cfg.state_cells);
                let fresh = run_case(
                    spec,
                    mc,
                    level,
                    &mut reference,
                    &input,
                    obs,
                    &cfg.state_cells,
                );
                assert_eq!(reused, fresh, "{} {level:?}: check {i}", def.name);
            }

            let input = traffic(0xfeed + l as u64, 120);
            for (kind, mc) in &mutants {
                let reused = minimize(spec, mc, level, &mut reference, &input, &cfg);
                let mut fresh_reference = def.interpreter_spec(&compiled);
                let mut fresh = |phvs: &[Phv]| {
                    run_case(
                        spec,
                        mc,
                        level,
                        &mut fresh_reference,
                        &Trace::from_phvs(phvs.to_vec()),
                        cfg.observable.as_deref(),
                        &cfg.state_cells,
                    )
                };
                let expected = minimize_trace_with(&mut fresh, &input, MAX_CHECKS);
                assert_eq!(reused, expected, "{} {level:?} {kind:?}", def.name);
                minimized += usize::from(reused.is_some());
            }
        }
    }
    // Most mutants diverge on 120 packets; the comparison must not be
    // vacuous.
    assert!(minimized > 100, "only {minimized} minimizations compared");
    assert!(hostile > 0, "no hostile-trap mutant exercised");
}

#[test]
fn p4_minimize_equals_a_fresh_pipeline_per_check() {
    let mut minimized = 0;
    for (p, def) in P4_PROGRAMS.iter().enumerate() {
        let workload = def.workload().expect("corpus loads");
        let mut injector = P4FaultInjector::new(0x5eed + p as u64);
        let mut entry_sets: Vec<_> = P4FaultKind::ALL
            .into_iter()
            .filter_map(|kind| injector.inject(&workload.entries, kind))
            .map(|(entries, _)| entries)
            .collect();
        // Entries naming an unknown table never program the pipeline.
        let mut unbindable = workload.entries.clone();
        if let Some(e) = unbindable.first_mut() {
            e.table = "no_such_table".to_string();
        }
        entry_sets.push(unbindable);
        entry_sets.push(workload.entries.clone());
        for level in OptLevel::ALL {
            for (i, entries) in entry_sets.iter().enumerate() {
                let input = P4Traffic::new(&workload, i as u64, 16).trace(80);
                let reused = p4_minimize(&workload, entries, level, &input, MAX_CHECKS);
                let mut fresh = |phvs: &[Phv]| {
                    run_p4_case(&workload, entries, level, &Trace::from_phvs(phvs.to_vec()))
                };
                let expected = minimize_trace_with(&mut fresh, &input, MAX_CHECKS);
                assert_eq!(reused, expected, "{} {level:?} entry set {i}", def.name);
                if let Some(m) = &reused {
                    minimized += 1;
                    assert_ne!(m.verdict, Verdict::Pass);
                }
            }
        }
    }
    assert!(minimized > 20, "only {minimized} minimizations compared");
}
