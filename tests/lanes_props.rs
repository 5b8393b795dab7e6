//! Differential sweep-vs-scalar properties for the SoA lane engine
//! (`dgen::lanes`). Every lane of a [`LaneSweep`] is an independent
//! execution from reset, so for any in-domain machine code and any packet
//! sequences it must be *bit-identical* to a fresh scalar
//! [`FusedPipeline::process_in_place`] chain over the same packets: the
//! output after every packet, every state variable, and (under injected
//! faults) the first mismatch a differential oracle reports. Partial
//! `active` counts, multi-packet executions, and the single-lane and empty
//! steps are pinned explicitly; masked lanes must come out untouched.

use proptest::prelude::*;

use druzhba::alu_dsl::atoms::atom;
use druzhba::alu_dsl::HoleDomain;
use druzhba::core::{MachineCode, Phv, PipelineConfig, StateSnapshot, Trace, ValueGen};
use druzhba::dgen::{expected_machine_code, FusedPipeline, LanePipeline, LaneSweep, PipelineSpec};
use druzhba::dsim::fault::FaultInjector;

/// The widths the differential harness sweeps (the engine also supports
/// 16; {1, 8, 32, 64} covers the degenerate, narrow, and widest shapes).
const WIDTHS: [usize; 4] = [1, 8, 32, 64];

/// Longest execution the properties generate, in packets.
const MAX_PACKETS: usize = 3;

/// Written into every container of every masked lane before a step; the
/// step must leave it there.
const POISON: u32 = 0xDEAD_BEEF;

fn spec_for(stateful: &str, stateless: &str, depth: usize, width: usize) -> PipelineSpec {
    PipelineSpec::new(
        PipelineConfig::new(depth, width),
        atom(stateful).unwrap(),
        atom(stateless).unwrap(),
    )
    .unwrap()
}

/// Strategy: an arbitrary in-domain machine code for the spec.
fn machine_code_strategy(spec: &PipelineSpec) -> impl Strategy<Value = MachineCode> {
    let expected = expected_machine_code(spec);
    let fields: Vec<(String, u32)> = expected
        .into_iter()
        .map(|(name, domain)| {
            let bound = match domain {
                HoleDomain::Choice(n) => n,
                HoleDomain::Bits(b) => 1u32 << b.min(8),
            };
            (name, bound)
        })
        .collect();
    let values: Vec<BoxedStrategy<u32>> = fields
        .iter()
        .map(|(_, bound)| (0..*bound).boxed())
        .collect();
    let names: Vec<String> = fields.into_iter().map(|(n, _)| n).collect();
    values.prop_map(move |vs| MachineCode::from_pairs(names.iter().cloned().zip(vs)))
}

/// The vendored proptest only generates fixed-length vecs; variation in
/// the number and length of executions comes from slicing the full-size
/// stream with random `count` and `packets` (see [`executions`]).
fn phv_stream(len: usize, count: usize) -> impl Strategy<Value = Vec<Phv>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..1024, len).prop_map(Phv::new),
        count,
    )
}

/// `count` executions of `packets` consecutive PHVs each, cut from `stream`.
fn executions(stream: &[Phv], count: usize, packets: usize) -> Vec<Vec<Phv>> {
    stream
        .chunks(packets)
        .take(count)
        .map(<[Phv]>::to_vec)
        .collect()
}

/// What a differential check can observe of one execution: the output
/// after every packet and the final state.
type Observed = (Vec<Phv>, StateSnapshot);

/// The scalar reference: one freshly fused pipeline per execution, so
/// every execution starts from reset state.
fn scalar_run(spec: &PipelineSpec, mc: &MachineCode, execution: &[Phv]) -> Observed {
    let mut fused = FusedPipeline::fuse(spec, mc);
    let outputs = execution
        .iter()
        .map(|phv| {
            let mut out = phv.clone();
            fused.process_in_place(&mut out);
            out
        })
        .collect();
    (outputs, fused.state_snapshot())
}

/// Every state variable of `lane`, in the shape of `shape` (a scalar
/// snapshot). Coordinates one past the last variable must read `None`.
fn lane_state(
    sweep: &LaneSweep<'_>,
    shape: &StateSnapshot,
    lane: usize,
) -> Result<StateSnapshot, TestCaseError> {
    let mut state = Vec::with_capacity(shape.len());
    for (stage, row) in shape.iter().enumerate() {
        let mut slots = Vec::with_capacity(row.len());
        for (slot, cells) in row.iter().enumerate() {
            let read = |var| sweep.state_value(lane, stage, slot, var);
            prop_assert_eq!(read(cells.len()), None);
            slots.push((0..cells.len()).map(|var| read(var).unwrap()).collect());
        }
        state.push(slots);
    }
    Ok(state)
}

/// Run `executions` through one sweep at `width`: `width` executions per
/// group, the last group partial, with a reset before each group (the
/// protocol `verify --lanes` follows). Masked lanes are poisoned before
/// every step and must come out of it holding the poison, with their
/// state still at reset.
fn sweep_run(
    lp: &LanePipeline,
    shape: &StateSnapshot,
    executions: &[Vec<Phv>],
    width: usize,
) -> Result<Vec<Observed>, TestCaseError> {
    let phv_len = lp.phv_len();
    let reset_state: StateSnapshot = shape
        .iter()
        .map(|row| row.iter().map(|cells| vec![0; cells.len()]).collect())
        .collect();
    let mut sweep = lp.sweep(width).unwrap();
    let mut observed = Vec::with_capacity(executions.len());
    for group in executions.chunks(width) {
        let active = group.len();
        let packets = group[0].len();
        let mut outputs = vec![Vec::with_capacity(packets); active];
        sweep.reset();
        for t in 0..packets {
            sweep.clear_phv();
            for lane in 0..width {
                for c in 0..phv_len {
                    let v = group.get(lane).map_or(POISON, |e| e[t].get(c));
                    sweep.set_input(lane, c, v);
                }
            }
            sweep.step(active);
            for (lane, out) in outputs.iter_mut().enumerate() {
                out.push(Phv::new(
                    (0..phv_len).map(|c| sweep.output(lane, c)).collect(),
                ));
            }
            for lane in active..width {
                for c in 0..phv_len {
                    prop_assert_eq!(sweep.output(lane, c), POISON);
                }
            }
        }
        for lane in active..width {
            prop_assert_eq!(&lane_state(&sweep, shape, lane)?, &reset_state);
        }
        for (lane, out) in outputs.into_iter().enumerate() {
            observed.push((out, lane_state(&sweep, shape, lane)?));
        }
    }
    Ok(observed)
}

/// The differential property: at every width, each lane observes exactly
/// what its independent scalar run observes. Returns the scalar
/// observations for callers that check more.
fn sweeps_match_scalar(
    spec: &PipelineSpec,
    mc: &MachineCode,
    executions: &[Vec<Phv>],
) -> Result<Vec<Observed>, TestCaseError> {
    let expected: Vec<Observed> = executions.iter().map(|e| scalar_run(spec, mc, e)).collect();
    let fused = FusedPipeline::fuse(spec, mc);
    let lp = LanePipeline::lower(&fused).expect("the fuser emits forward jumps only");
    let shape = fused.state_snapshot();
    for width in WIDTHS {
        let got = sweep_run(&lp, &shape, executions, width)?;
        prop_assert_eq!(got.len(), expected.len());
        for (i, (lane, scalar)) in got.iter().zip(&expected).enumerate() {
            prop_assert!(
                lane == scalar,
                "width {width}, execution {i}: sweep {lane:?} != scalar {scalar:?}"
            );
        }
    }
    Ok(expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any machine code, up to 70 executions of 1–3 packets each (a
    /// partial final group at every width but 1): outputs after every
    /// packet and every state variable match scalar at every width.
    #[test]
    fn lane_batches_bit_identical_to_scalar_fused(
        mc in machine_code_strategy(&spec_for("if_else_raw", "stateless_full", 2, 2)),
        stream in phv_stream(2, 70 * MAX_PACKETS),
        count in 0usize..71,
        packets in 1usize..MAX_PACKETS + 1,
    ) {
        let spec = spec_for("if_else_raw", "stateless_full", 2, 2);
        sweeps_match_scalar(&spec, &mc, &executions(&stream, count, packets))?;
    }

    /// Same property over a stateful two-variable atom on a deeper grid.
    #[test]
    fn lane_batches_bit_identical_for_pair_atom(
        mc in machine_code_strategy(&spec_for("pair", "stateless_arith", 3, 1)),
        stream in phv_stream(1, 40 * MAX_PACKETS),
        count in 1usize..41,
        packets in 1usize..MAX_PACKETS + 1,
    ) {
        let spec = spec_for("pair", "stateless_arith", 3, 1);
        sweeps_match_scalar(&spec, &mc, &executions(&stream, count, packets))?;
    }
}

/// Divergence-detection parity under injected faults: a differential
/// oracle that swaps the scalar fused backend for a lane sweep reports
/// exactly the same first mismatch against the specification, at every
/// width. The specification is the `raw` accumulator (state += container
/// 0, old state -> container 1), recomputed from reset per execution; the
/// fault injector corrupts its machine code. At least one mutant must
/// diverge, or the property checked nothing.
#[test]
fn fault_divergences_detected_identically() {
    let spec = PipelineSpec::new(
        PipelineConfig::with_phv_length(1, 1, 2),
        atom("raw").unwrap(),
        atom("stateless_mux").unwrap(),
    )
    .unwrap();
    let mut good = MachineCode::from_pairs(
        expected_machine_code(&spec)
            .into_iter()
            .map(|(n, _)| (n, 0)),
    );
    good.set("output_mux_phv_0_1", 2);
    let mut gen = ValueGen::new(0xFA_0175, 10);
    let mut diverged = 0;
    for fault_seed in 0..64u64 {
        let Some((bad, _fault)) = FaultInjector::new(fault_seed).mutate_random_value(&spec, &good)
        else {
            continue;
        };
        let count = 1 + gen.value_below(70) as usize;
        let packets = 1 + gen.value_below(MAX_PACKETS as u32) as usize;
        let runs: Vec<Vec<Phv>> = (0..count)
            .map(|_| (0..packets).map(|_| Phv::new(gen.values(2))).collect())
            .collect();
        let observed = sweeps_match_scalar(&spec, &bad, &runs)
            .unwrap_or_else(|e| panic!("fault seed {fault_seed}: {e}"));
        for (run, (outputs, _)) in runs.iter().zip(&observed) {
            let mut state = 0u32;
            let expected: Vec<Phv> = run
                .iter()
                .map(|p| {
                    let old = state;
                    state = state.wrapping_add(p.get(0));
                    Phv::new(vec![p.get(0), old])
                })
                .collect();
            let verdict =
                Trace::from_phvs(expected).first_mismatch(&Trace::from_phvs(outputs.clone()), None);
            diverged += usize::from(verdict.is_some());
        }
    }
    assert!(diverged > 0, "no injected fault diverged");
}

/// A single-lane group after a full-width one, and an empty step: at
/// every width the single lane matches a scalar run from reset over the
/// full-width group's leftovers, with every masked lane keeping its
/// poison and reset state; on a dirty 64-wide frame an empty step
/// changes nothing at all.
#[test]
fn empty_and_single_phv_batches_are_exact() {
    let spec = spec_for("pred_raw", "stateless_full", 2, 1);
    let mut gen = ValueGen::new(0x51_0C1E, 32);
    let mc = MachineCode::from_pairs(expected_machine_code(&spec).into_iter().map(
        |(name, domain)| {
            let bound = domain.bound().min(1 << 8) as u32;
            (name, gen.value_below(bound))
        },
    ));
    let phv_len = spec.config.phv_length;
    let warm: Vec<Vec<Phv>> = (0..64)
        .map(|_| vec![Phv::new(gen.values(phv_len))])
        .collect();
    let mut runs = warm.clone();
    runs.push(vec![Phv::new(gen.values(phv_len))]);
    sweeps_match_scalar(&spec, &mc, &runs).unwrap();

    let fused = FusedPipeline::fuse(&spec, &mc);
    let lp = LanePipeline::lower(&fused).unwrap();
    let shape = fused.state_snapshot();
    let mut sweep = lp.sweep(64).unwrap();
    for (lane, run) in warm.iter().enumerate() {
        for c in 0..phv_len {
            sweep.set_input(lane, c, run[0].get(c));
        }
    }
    sweep.step(64);
    let frame = |sweep: &LaneSweep<'_>| -> Vec<(Vec<u32>, StateSnapshot)> {
        (0..64)
            .map(|lane| {
                let outs = (0..phv_len).map(|c| sweep.output(lane, c)).collect();
                (outs, lane_state(sweep, &shape, lane).unwrap())
            })
            .collect()
    };
    let before = frame(&sweep);
    sweep.step(0);
    assert_eq!(frame(&sweep), before, "an empty step changed the frame");
}
