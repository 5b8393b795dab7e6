//! Differential properties for the Domino oracle (`chipmunk::spec`).
//! [`CompiledSpec`] resolves every field and state name once and runs
//! each packet without allocating; it must stay *bit-identical* to the
//! string-keyed path it replaced — [`Interpreter::step`] over a `HashMap`
//! of the input fields, scattered into a zeroed PHV in `output_fields`
//! order. After every packet of random multi-packet traces (full 32-bit
//! values, mixed with each program's literals so that its branches are
//! taken), `process` and `process_into` (the latter starting each trace
//! from a dirty buffer of the wrong length) must both produce the
//! reference's output PHV, and `state()` / `state_into` its state.
//!
//! Programs: the 12 Table 1 programs on their compiled layouts, and a few
//! hundred generated Domino programs, each on its compiled layout (when
//! it compiles) and on a randomized layout. Random layouts reach what the
//! compiler never emits: fields read but not inputs, writes that are not
//! outputs, unread inputs, and output fields sharing a container.

use std::collections::HashMap;

use druzhba::chipmunk::{compile, CompiledProgram, CompiledSpec, CompilerConfig};
use druzhba::core::rng::ValueGen;
use druzhba::core::{Phv, Value};
use druzhba::domino::{parse_program, DominoProgram, Interpreter};
use druzhba::dsim::testing::Specification;
use druzhba::progen::domino_candidate;
use druzhba::programs::PROGRAMS;

/// Generated programs checked.
const GENERATED: u64 = 300;

/// The oracle as it was before name resolution: per packet, a `HashMap`
/// of the input fields, one [`Interpreter::step`], and the written fields
/// scattered into a fresh zeroed PHV in `output_fields` order.
struct Reference {
    interp: Interpreter,
    input_fields: Vec<String>,
    output_fields: Vec<(String, usize)>,
    phv_length: usize,
}

impl Reference {
    fn new(program: DominoProgram, compiled: &CompiledProgram) -> Self {
        Reference {
            interp: Interpreter::new(program),
            input_fields: compiled.input_fields.clone(),
            output_fields: compiled
                .output_fields
                .iter()
                .map(|(f, &c)| (f.clone(), c))
                .collect(),
            phv_length: compiled.pipeline_spec.config.phv_length,
        }
    }

    fn process(&mut self, input: &Phv) -> Phv {
        let fields: HashMap<String, Value> = self
            .input_fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.clone(), input.get(i)))
            .collect();
        let written = self.interp.step(&fields);
        let mut out = Phv::zeroed(self.phv_length);
        for (field, container) in &self.output_fields {
            out.set(*container, written.get(field).copied().unwrap_or(0));
        }
        out
    }
}

/// A packet value: a full 32-bit value, a small one, one at the wrap
/// edge, or a neighbour of one of the program's literals.
fn value(rng: &mut ValueGen, literals: &[Value]) -> Value {
    match rng.value_below(4) {
        0 => rng.value(),
        1 => rng.value_below(8),
        2 => u32::MAX - rng.value_below(4),
        _ if literals.is_empty() => rng.value(),
        _ => {
            let lit = literals[rng.value_below(literals.len() as Value) as usize];
            lit.wrapping_add(rng.value_below(3)).wrapping_sub(1)
        }
    }
}

/// Drive the reference and two oracles (one per entry point) over
/// `traces` random traces of 1–6 packets, resetting all three between
/// traces, and assert agreement after every packet.
fn assert_agree(
    name: &str,
    program: &DominoProgram,
    layout: &CompiledProgram,
    seed: u64,
    traces: usize,
) {
    let mut reference = Reference::new(program.clone(), layout);
    let mut by_value = CompiledSpec::new(program.clone(), layout);
    let mut by_into = CompiledSpec::new(program.clone(), layout);
    let phv_length = layout.pipeline_spec.config.phv_length;
    let literals = program.literals();
    let mut rng = ValueGen::new(seed, 32);
    let mut state = vec![0xDEAD_BEEF; 3];
    for trace in 0..traces {
        reference.interp.reset();
        by_value.reset();
        by_into.reset();
        let wrong = if trace % 2 == 0 {
            phv_length + 1
        } else {
            phv_length.saturating_sub(1)
        };
        let mut out = Phv::new(vec![0xDEAD_BEEF; wrong]);
        for packet in 0..1 + rng.value_below(6) {
            let input = Phv::new(
                (0..phv_length)
                    .map(|_| value(&mut rng, &literals))
                    .collect(),
            );
            let expected = reference.process(&input);
            let at = || format!("{name}: trace {trace} packet {packet} input {input}");
            assert_eq!(by_value.process(&input), expected, "process: {}", at());
            by_into.process_into(&input, &mut out);
            assert_eq!(out, expected, "process_into: {}", at());
            let expected_state = reference.interp.state();
            assert_eq!(by_value.state(), expected_state, "state: {}", at());
            by_into.state_into(&mut state);
            assert_eq!(state, expected_state, "state_into: {}", at());
        }
    }
}

/// A random layout for `program` on a copy of `template`: the read
/// fields (plus an unread one) as inputs in shuffled order with some
/// dropped, and the written fields (plus an unwritten one) with some
/// dropped, each on a random container of a PHV small enough that
/// outputs collide.
fn random_layout(
    program: &DominoProgram,
    template: &CompiledProgram,
    rng: &mut ValueGen,
) -> CompiledProgram {
    let mut inputs = program.fields_read();
    inputs.push("unread".to_string());
    for i in (1..inputs.len()).rev() {
        inputs.swap(i, rng.value_below(i as Value + 1) as usize);
    }
    inputs.retain(|_| rng.value_below(4) != 0);
    let mut outputs = program.fields_written();
    outputs.push("unwritten".to_string());
    outputs.retain(|_| rng.value_below(4) != 0);
    let phv_length = inputs.len() + outputs.len().div_ceil(2).max(1);

    let mut layout = template.clone();
    layout.input_fields = inputs;
    layout.output_fields = outputs
        .into_iter()
        .map(|f| (f, rng.value_below(phv_length as Value) as usize))
        .collect();
    layout.pipeline_spec.config.phv_length = phv_length;
    layout
}

#[test]
fn oracle_matches_reference_on_the_table1_corpus() {
    for (i, def) in PROGRAMS.iter().enumerate() {
        let compiled = def.compile_cached().unwrap();
        assert_agree(def.name, &def.parse(), &compiled, 0x0AC1E + i as u64, 200);
    }
}

#[test]
fn oracle_matches_reference_on_generated_programs() {
    let template = PROGRAMS[0].compile_cached().unwrap();
    let mut rng = ValueGen::new(0x5EED, 32);
    let mut compiled = 0;
    for seed in 0..GENERATED {
        let cand = domino_candidate(seed);
        let program = parse_program(&cand.source).unwrap();
        let name = format!("candidate {seed}");
        let cfg = CompilerConfig::new(cand.grid.depth, cand.grid.width, cand.grid.atom);
        if let Ok(layout) = compile(&program, &cfg) {
            assert_agree(&name, &program, &layout, seed, 20);
            compiled += 1;
        }
        let layout = random_layout(&program, &template, &mut rng);
        let name = format!("{name} on {:?}", layout.output_fields);
        assert_agree(&name, &program, &layout, !seed, 20);
    }
    // The candidate families are built to compile; most do.
    assert!(
        compiled > GENERATED / 2,
        "only {compiled} candidates compiled"
    );
}
