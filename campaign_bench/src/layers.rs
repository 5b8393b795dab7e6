//! The traced single-case differential checks: the same steps as
//! `dsim::testing::run_case` and `dsim::p4::run_p4_case`, each call into
//! a layer wrapped in a span. Verdicts must equal the untraced entry
//! points' on the same inputs; the workloads check that they do.

use std::collections::BTreeMap;

use druzhba::core::trace::TraceMismatch;
use druzhba::core::{MachineCode, Trace, Value};
use druzhba::dgen::{MatPipeline, OptLevel, Pipeline, PipelineSpec};
use druzhba::dsim::p4::{P4Traffic, P4Workload};
use druzhba::dsim::runtime::catch_silent;
use druzhba::dsim::testing::{FuzzConfig, Specification, Verdict};
use druzhba::dsim::{Simulator, TrafficGenerator};
use druzhba::p4::TableEntry;

use crate::trace::{count, span};

/// A Domino fuzz run: seeded traffic, then [`run_case`].
pub fn fuzz_test(
    spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    cfg: &FuzzConfig,
) -> Verdict {
    let input = domino_traffic(spec, cfg.seed, cfg.input_bits, cfg.num_phvs);
    run_case(
        spec,
        mc,
        opt,
        reference,
        &input,
        cfg.observable.as_deref(),
        &cfg.state_cells,
    )
}

/// The traffic generator's input trace for a Domino pipeline.
pub fn domino_traffic(spec: &PipelineSpec, seed: u64, bits: u32, phvs: usize) -> Trace {
    span("dsim.traffic", || {
        TrafficGenerator::new(seed, spec.config.phv_length, bits).trace(phvs)
    })
}

/// Generate the pipeline, run it and the specification over `input`,
/// and compare outputs and state cells, under panic isolation.
pub fn run_case(
    spec: &PipelineSpec,
    mc: &MachineCode,
    opt: OptLevel,
    reference: &mut dyn Specification,
    input: &Trace,
    observable: Option<&[usize]>,
    state_cells: &[(usize, usize, usize)],
) -> Verdict {
    let guarded = catch_silent(|| {
        count("dgen.generate_calls", 1.0);
        let pipeline = match span("dgen.generate", || Pipeline::generate(spec, mc, opt)) {
            Ok(p) => p,
            Err(e) => return Verdict::Incompatible(e),
        };
        let actual = span("dsim.sim", || Simulator::new(pipeline).run(input));
        count("dsim.sim_phvs", input.phvs.len() as f64);
        let (expected, expected_state) = span("chipmunk.spec", || {
            reference.reset();
            let phvs = input.phvs.iter().map(|p| reference.process(p)).collect();
            (Trace::from_phvs(phvs), reference.state())
        });
        count("chipmunk.spec_phvs", input.phvs.len() as f64);
        span("core.trace.compare", || {
            compare_domino(&expected, &expected_state, &actual, observable, state_cells)
        })
    });
    guarded.unwrap_or_else(|p| Verdict::BackendPanic { payload: p.payload })
}

fn compare_domino(
    expected: &Trace,
    expected_state: &[Value],
    actual: &Trace,
    observable: Option<&[usize]>,
    state_cells: &[(usize, usize, usize)],
) -> Verdict {
    if let Some(m) = expected.first_mismatch(actual, observable) {
        return Verdict::Mismatch(m);
    }
    if state_cells.is_empty() {
        return Verdict::Pass;
    }
    let snapshot = actual.state.as_ref().expect("run records state");
    for (i, &(stage, slot, var)) in state_cells.iter().enumerate() {
        let actual_v = snapshot
            .get(stage)
            .and_then(|s| s.get(slot))
            .and_then(|vars| vars.get(var))
            .copied();
        let expected_v = expected_state.get(i).copied();
        if actual_v != expected_v {
            return Verdict::Mismatch(TraceMismatch::StateMismatch {
                stage,
                slot,
                expected: expected_v.into_iter().collect(),
                actual: actual_v.into_iter().collect(),
            });
        }
    }
    Verdict::Pass
}

/// A P4 fuzz run: entry-aware traffic, the match-action pipeline at
/// `level`, and the reference interpreter, compared on outputs and final
/// register/counter state, under panic isolation.
pub fn p4_fuzz_test(
    workload: &P4Workload,
    entries: &[TableEntry],
    level: OptLevel,
    seed: u64,
    bits: u32,
    packets: usize,
) -> Verdict {
    let input = span("dsim.traffic", || {
        P4Traffic::new(workload, seed, bits).trace(packets)
    });
    let guarded = catch_silent(|| {
        let generated = span("dgen.mat.generate", || {
            MatPipeline::generate(&workload.hlir, entries, &workload.lowering, level)
        });
        let mut pipeline = match generated {
            Ok(p) => p,
            Err(e) => return Verdict::Incompatible(e),
        };
        let actual = span("dgen.mat.exec", || pipeline.run(&input));
        let layout = pipeline.layout();
        let mut interp = span("p4.exec", || workload.interpreter());
        let expected = span("p4.exec", || {
            let phvs = input.phvs.iter().enumerate().map(|(i, phv)| {
                let mut packet = layout.phv_to_packet(i as u64, phv);
                interp.process(&mut packet);
                layout.packet_to_phv(&packet)
            });
            Trace::from_phvs(phvs.collect())
        });
        count("p4.exec_packets", input.phvs.len() as f64);
        span("core.trace.compare", || {
            if let Some(m) = expected.first_mismatch(&actual, None) {
                return Verdict::Mismatch(m);
            }
            match p4_state_mismatch(
                interp.registers(),
                interp.counters(),
                &pipeline.registers(),
                &pipeline.counters(),
            ) {
                Some(m) => Verdict::Mismatch(m),
                None => Verdict::Pass,
            }
        })
    });
    guarded.unwrap_or_else(|p| Verdict::BackendPanic { payload: p.payload })
}

/// The first register or counter cell on which the two executions'
/// final state differs (registers first, then counters; `stage` is the
/// object's index, `slot` the cell).
fn p4_state_mismatch(
    expected_regs: &BTreeMap<String, Vec<Value>>,
    expected_ctrs: &BTreeMap<String, Vec<u64>>,
    actual_regs: &BTreeMap<String, Vec<Value>>,
    actual_ctrs: &BTreeMap<String, Vec<u64>>,
) -> Option<TraceMismatch> {
    fn first_diff<T: Copy + PartialEq>(
        expected: &BTreeMap<String, Vec<T>>,
        actual: &BTreeMap<String, Vec<T>>,
        base: usize,
        widen: impl Fn(T) -> Value,
    ) -> Option<TraceMismatch> {
        for (i, (name, exp)) in expected.iter().enumerate() {
            let act = actual.get(name).cloned().unwrap_or_default();
            if let Some(slot) = (0..exp.len().max(act.len())).find(|&c| exp.get(c) != act.get(c)) {
                return Some(TraceMismatch::StateMismatch {
                    stage: base + i,
                    slot,
                    expected: exp.get(slot).map(|&v| widen(v)).into_iter().collect(),
                    actual: act.get(slot).map(|&v| widen(v)).into_iter().collect(),
                });
            }
        }
        None
    }
    first_diff(expected_regs, actual_regs, 0, |v| v).or_else(|| {
        first_diff(expected_ctrs, actual_ctrs, expected_regs.len(), |v| {
            v as Value
        })
    })
}
