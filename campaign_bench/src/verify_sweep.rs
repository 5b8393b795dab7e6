//! `verify_sweep`: 64-lane bounded exhaustive verification of the Table 1
//! programs that read packet fields, one `verify_bounded` call per
//! program per cycle. Each program's domain is sized so that enumeration,
//! not pipeline generation, fills the call. Every program must be
//! `Verified` with exactly `(2^bits)^(inputs x packets)` cases.
//!
//! Each call enumerates on one thread; the calls of a cycle run side by
//! side on the campaign runtime's work-stealing pool. A lone thread's
//! speed on a shared 2-vCPU host swings by up to 2x for minutes at a
//! time, which made a one-thread sweep's throughput spread 35% between
//! runs; two threads spread that swing over both vCPUs.
//!
//! The domain is exhaustive, so the seed only orders the programs within
//! each cycle.

use druzhba::chipmunk::CompiledSpec;
use druzhba::core::{Phv, Value};
use druzhba::dgen::{LanePipeline, OptLevel, Pipeline};
use druzhba::dsim::runtime::run_stealing;
use druzhba::dsim::testing::Specification;
use druzhba::dsim::verify::{verify_bounded, VerifyConfig, VerifyOutcome};

use crate::common::{measure, permutation, timed_setups, traced, Opts, Outcome};
use crate::fuzz_corpus::{parse_and_compile, Program};
use crate::trace::{self, count, span};

/// Lane width of the sweep.
const LANES: usize = 64;
/// Enumerated input bits per program: 2^16 cases each.
const DOMAIN_BITS: u32 = 16;

/// The enumerated domain of one program: `bits`-bit values in every
/// input field of `packets`-packet traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Domain {
    bits: u32,
    packets: usize,
}

impl Domain {
    /// A domain of exactly [`DOMAIN_BITS`] enumerated bits with at least
    /// 2-bit values, preferring more packets (cross-packet state); if no
    /// split is exact, the widest single-packet domain below the target.
    fn for_inputs(inputs: usize) -> Domain {
        let inputs = inputs.max(1) as u32;
        for packets in [3u32, 2, 1] {
            let per_value = inputs * packets;
            if DOMAIN_BITS.is_multiple_of(per_value) && DOMAIN_BITS / per_value >= 2 {
                return Domain {
                    bits: DOMAIN_BITS / per_value,
                    packets: packets as usize,
                };
            }
        }
        Domain {
            bits: (DOMAIN_BITS / inputs).max(1),
            packets: 1,
        }
    }

    /// The known answer: every trace of the domain is checked.
    fn cases(self, inputs: usize) -> u64 {
        1u64 << (self.bits as usize * inputs * self.packets)
    }
}

fn verify_config(p: &Program, d: Domain) -> VerifyConfig {
    VerifyConfig {
        input_bits: d.bits,
        packets: d.packets,
        relevant_containers: (0..p.compiled.input_fields.len()).collect(),
        observable: Some(p.compiled.observable_containers()),
        state_cells: p.compiled.state_cells.clone(),
        max_cases: u64::MAX,
        lanes: LANES,
    }
}

/// Set-up: compile the corpus and keep the programs that read packet
/// fields (a program without inputs has a one-case domain).
fn setup() -> Result<Vec<(Program, Domain)>, String> {
    let programs = parse_and_compile()?;
    programs
        .into_iter()
        .filter(|p| !p.compiled.input_fields.is_empty())
        .map(|p| {
            // Lane lowering is checked here so that a program the lane
            // engine cannot sweep fails set-up, not a measured cycle.
            let c = &p.compiled;
            let pipeline = Pipeline::generate(&c.pipeline_spec, &c.machine_code, OptLevel::Fused)
                .map_err(|e| format!("{}: {e}", p.def.name))?;
            let fused = pipeline.fused_program().expect("fused level");
            span("dgen.lanes.lower", || LanePipeline::lower(fused))
                .ok_or_else(|| format!("{}: not lane-lowerable", p.def.name))?;
            let d = Domain::for_inputs(c.input_fields.len());
            Ok((p, d))
        })
        .collect()
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let programs = timed_setups(&mut out, setup)?;
    for (p, d) in &programs {
        let inputs = p.compiled.input_fields.len();
        println!(
            "verify domain {}: {inputs} input(s) x {} packet(s) at {} bit(s) = {} cases",
            p.def.name,
            d.packets,
            d.bits,
            d.cases(inputs)
        );
    }

    let mut order: Vec<Vec<usize>> = Vec::new();
    measure(opts, &mut out, setup, |c, out| {
        let cycle_order = permutation(programs.len(), opts.unit_seed(c as u64));
        let outcomes = run_stealing(cycle_order.clone(), opts.workers, |_, i| {
            let (p, d) = &programs[i];
            let c = &p.compiled;
            let mut reference = CompiledSpec::new(p.source.clone(), c);
            verify_bounded(
                &c.pipeline_spec,
                &c.machine_code,
                OptLevel::Fused,
                &mut reference,
                &verify_config(p, *d),
            )
        });
        let mut units = 0.0;
        for (&i, outcome) in cycle_order.iter().zip(outcomes) {
            let (p, d) = &programs[i];
            let expected = d.cases(p.compiled.input_fields.len());
            match outcome {
                Ok(Ok(VerifyOutcome::Verified { cases })) => {
                    out.check(cases == expected, || {
                        format!(
                            "{}: verified {cases} cases, expected {expected}",
                            p.def.name
                        )
                    });
                    units += cases as f64;
                }
                other => out.check(false, || format!("{}: {other:?}", p.def.name)),
            }
        }
        order.push(cycle_order);
        units
    })?;

    if opts.trace {
        trace::enable();
        trace::serial(setup)?;
        traced(&mut out, |out| {
            for cycle_order in &order {
                let results = trace::parallel(
                    cycle_order.clone(),
                    opts.workers,
                    |_, i| {
                        let (p, d) = &programs[i];
                        span("dsim.verify.harness", || sweep(p, &verify_config(p, *d)))
                    },
                    |_| {},
                );
                for (&i, got) in cycle_order.iter().zip(results) {
                    let (p, d) = &programs[i];
                    let expected = d.cases(p.compiled.input_fields.len());
                    if !matches!(got, Ok(Ok(n)) if n == expected) {
                        out.fail(format!(
                            "traced verdict differs: {}: {got:?}, expected {expected} cases",
                            p.def.name
                        ));
                    }
                }
            }
        });
    }
    Ok(out)
}

/// The lane-swept enumeration of `dsim::verify`, with the lane engine's
/// step and the oracle each in a span; everything else (odometer,
/// per-lane input and output copies, compare) is the sweep harness.
/// Returns the number of cases checked, or where the first divergence
/// was found.
fn sweep(p: &Program, cfg: &VerifyConfig) -> Result<u64, String> {
    let c = &p.compiled;
    let pipeline = span("dgen.generate", || {
        Pipeline::generate(&c.pipeline_spec, &c.machine_code, OptLevel::Fused)
    })
    .map_err(|e| e.to_string())?;
    count("dgen.generate_calls", 1.0);
    let fused = pipeline.fused_program().expect("fused level");
    let lowered =
        span("dgen.lanes.lower", || LanePipeline::lower(fused)).ok_or("not lane-lowerable")?;
    let mut reference = span("chipmunk.spec_new", || {
        CompiledSpec::new(p.source.clone(), c)
    });
    let width = cfg.lanes;
    let mut lanes = lowered.sweep(width).ok_or("unsupported lane width")?;
    let phv_length = c.pipeline_spec.config.phv_length;
    let nrel = cfg.relevant_containers.len();
    let slots = nrel * cfg.packets;
    let max = ((1u64 << cfg.input_bits) - 1) as Value;
    let observable = cfg
        .observable
        .as_deref()
        .expect("corpus programs name outputs");

    let mut assignment = vec![0 as Value; slots];
    let mut assign_buf = vec![0 as Value; slots.max(1) * width];
    let mut out_buf = vec![0 as Value; cfg.packets * phv_length * width];
    let mut inputs = vec![Phv::zeroed(phv_length); cfg.packets * width];
    let mut expected = vec![Phv::zeroed(phv_length); cfg.packets * width];
    let mut expected_state: Vec<Vec<Value>> = vec![Vec::new(); width];
    let mut checked = 0u64;
    let mut done = false;
    while !done {
        let mut active = 0;
        while active < width && !done {
            for (s, &v) in assignment.iter().enumerate() {
                assign_buf[s * width + active] = v;
            }
            active += 1;
            done = slots == 0 || !advance(&mut assignment, max);
        }

        lanes.reset();
        for pk in 0..cfg.packets {
            lanes.clear_phv();
            for lane in 0..active {
                for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                    lanes.set_input(lane, container, assign_buf[(pk * nrel + ci) * width + lane]);
                }
            }
            span("dgen.lanes.step", || lanes.step(active));
            for lane in 0..active {
                for cont in 0..phv_length {
                    out_buf[(pk * phv_length + cont) * width + lane] = lanes.output(lane, cont);
                }
            }
        }
        count("dgen.lanes.cases", active as f64);

        for lane in 0..active {
            for pk in 0..cfg.packets {
                let phv = &mut inputs[lane * cfg.packets + pk];
                for (ci, &container) in cfg.relevant_containers.iter().enumerate() {
                    phv.set(container, assign_buf[(pk * nrel + ci) * width + lane]);
                }
            }
        }
        span("chipmunk.spec", || {
            let lane_inputs = inputs.chunks(cfg.packets);
            let lane_outputs = expected.chunks_mut(cfg.packets);
            let lanes = lane_inputs.zip(lane_outputs).zip(&mut expected_state);
            for ((ins, outs), state) in lanes.take(active) {
                reference.reset();
                for (phv, out) in ins.iter().zip(outs) {
                    reference.process_into(phv, out);
                }
                reference.state_into(state);
            }
        });
        count("chipmunk.spec_phvs", (active * cfg.packets) as f64);

        for lane in 0..active {
            for pk in 0..cfg.packets {
                let exp = &expected[lane * cfg.packets + pk];
                for &cont in observable {
                    let actual = (cont < phv_length)
                        .then(|| out_buf[(pk * phv_length + cont) * width + lane]);
                    if exp.try_get(cont) != actual {
                        return Err(format!("case {checked} diverges on packet {pk}"));
                    }
                }
            }
            for (i, &(stage, slot, var)) in cfg.state_cells.iter().enumerate() {
                if lanes.state_value(lane, stage, slot, var) != expected_state[lane].get(i).copied()
                {
                    return Err(format!("case {checked} diverges on state"));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Step the odometer; false once every assignment has been produced.
fn advance(assignment: &mut [Value], max: Value) -> bool {
    for digit in assignment.iter_mut() {
        if *digit < max {
            *digit += 1;
            return true;
        }
        *digit = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_hit_the_target() {
        for inputs in [1, 2, 4] {
            let d = Domain::for_inputs(inputs);
            let bits = d.bits as usize * inputs * d.packets;
            assert_eq!(bits, DOMAIN_BITS as usize, "{inputs}: {d:?}");
            assert_eq!(d.cases(inputs), 1u64 << bits);
        }
        assert_eq!(
            Domain::for_inputs(1),
            Domain {
                bits: 8,
                packets: 2
            }
        );
        assert_eq!(
            Domain::for_inputs(2),
            Domain {
                bits: 4,
                packets: 2
            }
        );
        assert_eq!(
            Domain::for_inputs(5),
            Domain {
                bits: 3,
                packets: 1
            }
        );
    }
}
