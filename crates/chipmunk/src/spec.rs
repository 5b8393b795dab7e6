//! The Domino oracle: the program's own Domino source run as a dsim
//! [`Specification`], wired to a [`CompiledProgram`]'s container layout.
//!
//! This closes the Fig. 5 loop without hand-writing a Rust spec: the same
//! Domino file that was compiled to machine code also *executes* as the
//! high-level specification, and the fuzz harness asserts the two agree.
//!
//! This is the hot path of every Domino campaign, so [`CompiledSpec::new`]
//! resolves every name once: field reads become input-container
//! positions, state accesses become state slots, and field writes become
//! output containers. A packet then runs over `&Phv` and the live state
//! without allocating. The string-keyed
//! [`Interpreter::step`](druzhba_domino::Interpreter::step) stays the
//! reference semantics; `tests/oracle_props.rs` pins this oracle to it.
//! Only the operator semantics are shared with the frontend — nothing
//! here uses dgen's lowering, so the oracle stays independent of the
//! compiler under test.

use std::ops::Bound;

use druzhba_core::value::{self, Value};
use druzhba_core::Phv;
use druzhba_domino::ast::{BinOp, DominoExpr, DominoProgram, DominoStmt, UnOp};
use druzhba_domino::interp::{apply_binop, apply_unop};
use druzhba_dsim::testing::Specification;

use crate::compile::CompiledProgram;

/// A [`Specification`] that runs the Domino program against the compiled
/// container layout.
pub struct CompiledSpec {
    body: Vec<Stmt>,
    init: Vec<Value>,
    state: Vec<Value>,
    input_count: usize,
    phv_length: usize,
}

/// A Domino expression with every name resolved.
enum Expr {
    Const(Value),
    /// Input container (= position in `input_fields`).
    Input(usize),
    State(usize),
    Binary {
        op: BinOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    Unary {
        op: UnOp,
        x: Box<Expr>,
    },
}

/// A Domino statement with every name resolved. Writes to fields that no
/// output container holds are dropped at construction.
enum Stmt {
    Output {
        container: usize,
        value: Expr,
    },
    State {
        slot: usize,
        value: Expr,
    },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
}

/// Name resolution against one program and layout.
struct Resolver<'a> {
    program: &'a DominoProgram,
    compiled: &'a CompiledProgram,
}

impl Resolver<'_> {
    fn expr(&self, e: &DominoExpr) -> Expr {
        match e {
            DominoExpr::Const(v) => Expr::Const(*v),
            // A field that is not an input reads as a zeroed container.
            DominoExpr::Field(name) => {
                match self.compiled.input_fields.iter().position(|f| f == name) {
                    Some(i) => Expr::Input(i),
                    None => Expr::Const(0),
                }
            }
            DominoExpr::State(name) => Expr::State(self.state_slot(name)),
            DominoExpr::Binary { op, l, r } => Expr::Binary {
                op: *op,
                l: Box::new(self.expr(l)),
                r: Box::new(self.expr(r)),
            },
            DominoExpr::Unary { op, x } => Expr::Unary {
                op: *op,
                x: Box::new(self.expr(x)),
            },
        }
    }

    fn stmts(&self, stmts: &[DominoStmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                DominoStmt::AssignField { field, value } => {
                    if let Some(container) = self.output_container(field) {
                        out.push(Stmt::Output {
                            container,
                            value: self.expr(value),
                        });
                    }
                }
                DominoStmt::AssignState { var, value } => out.push(Stmt::State {
                    slot: self.state_slot(var),
                    value: self.expr(value),
                }),
                DominoStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => out.push(Stmt::If {
                    cond: self.expr(cond),
                    then_body: self.stmts(then_body),
                    else_body: self.stmts(else_body),
                }),
            }
        }
        out
    }

    fn state_slot(&self, name: &str) -> usize {
        self.program.state_index(name).expect("validated")
    }

    /// The container a write to `field` lands in, or `None` when the
    /// write is unobservable: the field is not an output, or a later
    /// output field (in `output_fields` order) shares its container and
    /// so always overwrites it — including with 0 when that later field
    /// is not written on a packet.
    fn output_container(&self, field: &str) -> Option<usize> {
        let outputs = &self.compiled.output_fields;
        let &container = outputs.get(field)?;
        let shadowed = outputs
            .range::<str, _>((Bound::Excluded(field), Bound::Unbounded))
            .any(|(_, &c)| c == container);
        (!shadowed).then_some(container)
    }
}

impl CompiledSpec {
    /// Pair a validated program with its compilation result, resolving
    /// every field and state name against the compiled layout.
    pub fn new(program: DominoProgram, compiled: &CompiledProgram) -> Self {
        let resolver = Resolver {
            program: &program,
            compiled,
        };
        let body = resolver.stmts(&program.body);
        let init: Vec<Value> = program.state_vars.iter().map(|d| d.init).collect();
        CompiledSpec {
            body,
            state: init.clone(),
            init,
            input_count: compiled.input_fields.len(),
            phv_length: compiled.pipeline_spec.config.phv_length,
        }
    }

    /// Expected state in `state_cells` order (declaration order — exactly
    /// how [`CompiledProgram::state_cells`] is ordered).
    pub fn expected_state(&self) -> Vec<Value> {
        self.state.clone()
    }
}

fn eval(e: &Expr, inputs: &[Value], state: &[Value]) -> Value {
    match e {
        Expr::Const(v) => *v,
        Expr::Input(i) => inputs[*i],
        Expr::State(slot) => state[*slot],
        Expr::Binary { op, l, r } => {
            apply_binop(*op, eval(l, inputs, state), eval(r, inputs, state))
        }
        Expr::Unary { op, x } => apply_unop(*op, eval(x, inputs, state)),
    }
}

fn exec(stmts: &[Stmt], inputs: &[Value], state: &mut [Value], out: &mut [Value]) {
    for s in stmts {
        match s {
            Stmt::Output { container, value } => out[*container] = eval(value, inputs, state),
            Stmt::State { slot, value } => state[*slot] = eval(value, inputs, state),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let taken = if value::truthy(eval(cond, inputs, state)) {
                    then_body
                } else {
                    else_body
                };
                exec(taken, inputs, state, out);
            }
        }
    }
}

impl Specification for CompiledSpec {
    fn reset(&mut self) {
        self.state.copy_from_slice(&self.init);
    }

    fn process(&mut self, input: &Phv) -> Phv {
        let mut out = Phv::zeroed(self.phv_length);
        self.process_into(input, &mut out);
        out
    }

    /// Reuses `out` when it already holds `phv_length` containers.
    fn process_into(&mut self, input: &Phv, out: &mut Phv) {
        if out.len() == self.phv_length {
            out.containers_mut().fill(0);
        } else {
            *out = Phv::zeroed(self.phv_length);
        }
        let inputs = &input.containers()[..self.input_count];
        exec(&self.body, inputs, &mut self.state, out.containers_mut());
    }

    fn state(&self) -> Vec<Value> {
        self.state.clone()
    }

    fn state_into(&mut self, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(&self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompilerConfig};
    use druzhba_dgen::OptLevel;
    use druzhba_domino::parse_program;
    use druzhba_dsim::testing::{fuzz_test, FuzzConfig};

    /// The complete Fig. 5 workflow: compile, fuzz, assert equivalence.
    fn fuzz_program(src: &str, cfg: CompilerConfig, num_phvs: usize) {
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &cfg).unwrap();
        let mut spec = CompiledSpec::new(program, &compiled);
        let fuzz_cfg = FuzzConfig {
            num_phvs,
            observable: Some(compiled.observable_containers()),
            state_cells: compiled.state_cells.clone(),
            ..FuzzConfig::default()
        };
        for level in OptLevel::ALL {
            let report = fuzz_test(
                &compiled.pipeline_spec,
                &compiled.machine_code,
                level,
                &mut spec,
                &fuzz_cfg,
            );
            assert!(report.passed(), "{level:?}: {:?}", report.verdict);
        }
    }

    /// A spec running `src` against the layout the accumulator compiles
    /// to (input `x` in container 0, output `o`), after `edit`, and the
    /// container of `o`. The compiler only emits layouts for programs it
    /// accepts; pairing them with other validated programs reaches the
    /// resolution corner cases directly.
    fn against_accumulator_layout(
        src: &str,
        edit: impl FnOnce(&mut CompiledProgram),
    ) -> (CompiledSpec, usize) {
        let accumulator = "state int s = 0;\ns = s + pkt.x;\npkt.o = pkt.x * 2;";
        let mut layout = compile(
            &parse_program(accumulator).unwrap(),
            &CompilerConfig::new(1, 1, "raw"),
        )
        .unwrap();
        assert_eq!(layout.input_fields, vec!["x".to_string()]);
        let o = layout.output_fields["o"];
        edit(&mut layout);
        (CompiledSpec::new(parse_program(src).unwrap(), &layout), o)
    }

    /// One packet with every container set to `fill`, through both
    /// `process` and `process_into` (over a dirty, wrongly sized buffer),
    /// which must agree; returns the output.
    fn run(spec: &mut CompiledSpec, fill: Value) -> Phv {
        let input = Phv::new(vec![fill; spec.phv_length]);
        let mut into = Phv::new(vec![7; spec.phv_length + 3]);
        let before = spec.state();
        spec.process_into(&input, &mut into);
        let after = spec.state();
        spec.state.copy_from_slice(&before);
        let out = spec.process(&input);
        assert_eq!(out, into);
        assert_eq!(spec.state(), after);
        out
    }

    #[test]
    fn nonzero_initial_state_is_restored_by_reset() {
        let (mut spec, _) =
            against_accumulator_layout("state int s = 100;\ns = s + pkt.x;", |_| {});
        assert_eq!(spec.state(), vec![100]);
        run(&mut spec, 5);
        run(&mut spec, 5);
        assert_eq!(spec.state(), vec![110]);
        spec.reset();
        assert_eq!(spec.state(), vec![100]);
        let mut into = vec![1, 2, 3];
        spec.state_into(&mut into);
        assert_eq!(into, vec![100]);
    }

    #[test]
    fn field_read_that_is_not_an_input_reads_zero() {
        let src = "state int s = 0;\ns = s + pkt.x + pkt.ghost;\npkt.o = pkt.ghost + 3;";
        let (mut spec, o) = against_accumulator_layout(src, |_| {});
        assert_eq!(run(&mut spec, 40).get(o), 3);
        assert_eq!(spec.state(), vec![40]);
    }

    #[test]
    fn written_field_that_is_not_an_output_is_dropped() {
        let src = "state int s = 0;\ns = s + pkt.x;\npkt.p = pkt.x + 1;\npkt.o = pkt.x * 2;";
        let (mut spec, o) = against_accumulator_layout(src, |_| {});
        let out = run(&mut spec, 4);
        assert_eq!(out.get(o), 8);
        for c in (0..out.len()).filter(|&c| c != o) {
            assert_eq!(out.get(c), 0, "container {c}");
        }
        assert_eq!(spec.state(), vec![4]);
    }

    #[test]
    fn output_written_on_one_branch_reads_zero_on_the_other() {
        let src = "state int s = 0;\nif (pkt.x == 80) { s = s + 1; pkt.o = 1; }";
        let (mut spec, o) = against_accumulator_layout(src, |_| {});
        assert_eq!(run(&mut spec, 80).get(o), 1);
        assert_eq!(run(&mut spec, 22).get(o), 0);
        assert_eq!(spec.state(), vec![1]);
    }

    #[test]
    fn fields_sharing_a_container_keep_the_last_in_output_order() {
        let src = "if (pkt.x == 1) { pkt.a = 5; } else { pkt.b = 6; }";
        let (mut spec, o) = against_accumulator_layout(src, |layout| {
            let shared = layout.output_fields.remove("o").unwrap();
            layout.output_fields.insert("a".into(), shared);
            layout.output_fields.insert("b".into(), shared);
        });
        assert_eq!(
            run(&mut spec, 1).get(o),
            0,
            "`b` is unwritten, so it zeroes `a`"
        );
        assert_eq!(run(&mut spec, 2).get(o), 6);
    }

    #[test]
    fn end_to_end_accumulator() {
        fuzz_program(
            "state int sum = 0;\nsum = sum + pkt.x;\npkt.double = pkt.x * 2;",
            CompilerConfig::new(1, 1, "raw"),
            500,
        );
    }

    #[test]
    fn end_to_end_sampling() {
        fuzz_program(
            "state int count = 0;\n\
             if (count == 9) { count = 0; pkt.sample = 1; }\n\
             else { count = count + 1; pkt.sample = 0; }",
            CompilerConfig::new(2, 1, "if_else_raw"),
            500,
        );
    }

    #[test]
    fn end_to_end_port_counter() {
        fuzz_program(
            "state int hits = 0;\n\
             if (pkt.port == 80) { hits = hits + 1; }",
            CompilerConfig::new(2, 1, "pred_raw"),
            500,
        );
    }

    #[test]
    fn end_to_end_pair_max_tracker() {
        fuzz_program(
            "state int best_util = 0;\n\
             state int best_path = 0;\n\
             if (best_util <= pkt.util) { best_util = pkt.util; best_path = pkt.path; }",
            CompilerConfig::new(1, 1, "pair"),
            500,
        );
    }
}
