//! Reference interpreter for Domino programs.
//!
//! [`Interpreter`] is the string-keyed, allocation-per-packet definition of
//! Domino semantics: it walks the AST, looks every field up in a
//! `HashMap` and every state variable up by name. It is *not* the hot
//! path of the fuzz-testing workflow of Fig. 5 — that is
//! `druzhba_chipmunk::spec::CompiledSpec`, which resolves every name to a
//! slot once and shares only the operator semantics below
//! ([`apply_binop`], [`apply_unop`]). `Interpreter::step` stays the
//! reference for that fast oracle; `tests/oracle_props.rs` pins the two
//! equal packet by packet.

use std::collections::HashMap;

use druzhba_core::value::{self, Value};

use crate::ast::{BinOp, DominoExpr, DominoProgram, DominoStmt, UnOp};

/// An interpreter holding a program's persistent state across packets.
#[derive(Debug, Clone)]
pub struct Interpreter {
    program: DominoProgram,
    state: Vec<Value>,
}

impl Interpreter {
    /// Create an interpreter with state initialized from the declarations.
    pub fn new(program: DominoProgram) -> Self {
        let state = program.state_vars.iter().map(|d| d.init).collect();
        Interpreter { program, state }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &DominoProgram {
        &self.program
    }

    /// Current state values, in declaration order.
    pub fn state(&self) -> &[Value] {
        &self.state
    }

    /// Reset state to the declared initial values.
    pub fn reset(&mut self) {
        for (slot, decl) in self.state.iter_mut().zip(&self.program.state_vars) {
            *slot = decl.init;
        }
    }

    /// Run the transaction once on a packet, returning the fields it wrote.
    ///
    /// `fields` carries the input packet's field values; reads of fields
    /// absent from the map evaluate to 0 (matching a zeroed PHV container).
    pub fn step(&mut self, fields: &HashMap<String, Value>) -> HashMap<String, Value> {
        let mut written = HashMap::new();
        // Clone of state for the body to mutate; committed at the end so a
        // failed step cannot half-apply (there are no failure paths today,
        // but the transactional shape is the Domino model).
        let mut state = self.state.clone();
        exec_stmts(
            &self.program,
            &self.program.body,
            fields,
            &mut state,
            &mut written,
        );
        self.state = state;
        written
    }
}

fn exec_stmts(
    program: &DominoProgram,
    stmts: &[DominoStmt],
    fields: &HashMap<String, Value>,
    state: &mut [Value],
    written: &mut HashMap<String, Value>,
) {
    for stmt in stmts {
        match stmt {
            DominoStmt::AssignField { field, value } => {
                let v = eval(program, value, fields, state);
                written.insert(field.clone(), v);
            }
            DominoStmt::AssignState { var, value } => {
                let v = eval(program, value, fields, state);
                let idx = program.state_index(var).expect("validated");
                state[idx] = v;
            }
            DominoStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if value::truthy(eval(program, cond, fields, state)) {
                    exec_stmts(program, then_body, fields, state, written);
                } else {
                    exec_stmts(program, else_body, fields, state, written);
                }
            }
        }
    }
}

/// Evaluate a Domino expression against packet fields and current state.
pub fn eval(
    program: &DominoProgram,
    expr: &DominoExpr,
    fields: &HashMap<String, Value>,
    state: &[Value],
) -> Value {
    match expr {
        DominoExpr::Const(v) => *v,
        DominoExpr::Field(name) => fields.get(name).copied().unwrap_or(0),
        DominoExpr::State(name) => {
            let idx = program.state_index(name).expect("validated");
            state[idx]
        }
        DominoExpr::Binary { op, l, r } => {
            let (l, r) = (
                eval(program, l, fields, state),
                eval(program, r, fields, state),
            );
            apply_binop(*op, l, r)
        }
        DominoExpr::Unary { op, x } => apply_unop(*op, eval(program, x, fields, state)),
    }
}

/// The shared total-semantics binary operators (identical to the ALU DSL's).
pub fn apply_binop(op: BinOp, a: Value, b: Value) -> Value {
    match op {
        BinOp::Add => value::wadd(a, b),
        BinOp::Sub => value::wsub(a, b),
        BinOp::Mul => value::wmul(a, b),
        BinOp::Div => value::wdiv(a, b),
        BinOp::Mod => value::wmod(a, b),
        BinOp::Eq => value::from_bool(a == b),
        BinOp::Ne => value::from_bool(a != b),
        BinOp::Lt => value::from_bool(a < b),
        BinOp::Gt => value::from_bool(a > b),
        BinOp::Le => value::from_bool(a <= b),
        BinOp::Ge => value::from_bool(a >= b),
        BinOp::And => value::from_bool(value::truthy(a) && value::truthy(b)),
        BinOp::Or => value::from_bool(value::truthy(a) || value::truthy(b)),
    }
}

/// The shared total-semantics unary operators.
pub fn apply_unop(op: UnOp, x: Value) -> Value {
    match op {
        UnOp::Neg => value::wneg(x),
        UnOp::Not => value::from_bool(!value::truthy(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn fields(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn sampling_program_counts_to_ten() {
        let p = parse_program(
            "state int count = 0;\n\
             if (count == 9) {\n\
                 count = 0;\n\
                 pkt.sample = 1;\n\
             } else {\n\
                 count = count + 1;\n\
                 pkt.sample = 0;\n\
             }",
        )
        .unwrap();
        let mut interp = Interpreter::new(p);
        let mut samples = 0;
        for _ in 0..30 {
            let out = interp.step(&fields(&[]));
            samples += out["sample"];
        }
        assert_eq!(samples, 3, "every 10th packet is sampled");
        assert_eq!(interp.state(), &[0]);
    }

    #[test]
    fn state_persists_across_steps() {
        let p = parse_program("state int sum = 0;\nsum = sum + pkt.x;").unwrap();
        let mut interp = Interpreter::new(p);
        interp.step(&fields(&[("x", 5)]));
        interp.step(&fields(&[("x", 7)]));
        assert_eq!(interp.state(), &[12]);
        interp.reset();
        assert_eq!(interp.state(), &[0]);
    }

    #[test]
    fn nonzero_initial_state_honoured() {
        let p = parse_program("state int s = 100;\ns = s - pkt.x;\npkt.o = 1;").unwrap();
        let mut interp = Interpreter::new(p);
        interp.step(&fields(&[("x", 30)]));
        assert_eq!(interp.state(), &[70]);
    }

    #[test]
    fn sequential_statements_see_updates() {
        let p = parse_program(
            "state int s = 0;\n\
             s = s + 1;\n\
             s = s * 2;\n\
             pkt.o = 5;",
        )
        .unwrap();
        let mut interp = Interpreter::new(p);
        interp.step(&fields(&[]));
        assert_eq!(interp.state(), &[2]);
        interp.step(&fields(&[]));
        assert_eq!(interp.state(), &[6]);
    }

    #[test]
    fn missing_fields_read_as_zero() {
        let p = parse_program("pkt.o = pkt.ghost + 1;").unwrap();
        let mut interp = Interpreter::new(p);
        let out = interp.step(&fields(&[]));
        assert_eq!(out["o"], 1);
    }

    #[test]
    fn wrapping_semantics_match_core() {
        let p = parse_program("pkt.o = pkt.a - pkt.b;\npkt.d = pkt.a / pkt.b;").unwrap();
        let mut interp = Interpreter::new(p);
        let out = interp.step(&fields(&[("a", 0), ("b", 1)]));
        assert_eq!(out["o"], u32::MAX);
        assert_eq!(out["d"], 0, "division by b=1 is 0/1");
        let out = interp.step(&fields(&[("a", 5), ("b", 0)]));
        assert_eq!(out["d"], 0, "division by zero is total");
    }

    #[test]
    fn branch_conditions_on_fields() {
        let p = parse_program(
            "state int hits = 0;\n\
             if (pkt.port == 80 || pkt.port == 443) { hits = hits + 1; }",
        )
        .unwrap();
        let mut interp = Interpreter::new(p);
        interp.step(&fields(&[("port", 80)]));
        interp.step(&fields(&[("port", 22)]));
        interp.step(&fields(&[("port", 443)]));
        assert_eq!(interp.state(), &[2]);
    }
}
