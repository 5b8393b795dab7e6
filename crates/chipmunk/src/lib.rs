//! # druzhba-chipmunk
//!
//! A program-synthesis-based compiler from the Domino subset to Druzhba
//! machine code — the stand-in for Chipmunk, the paper's case-study
//! compiler (§5.2): *"Chipmunk generates machine code in the form of
//! constant integers from a given Domino file through the use of program
//! synthesis; these constants can be used to target Druzhba's instruction
//! set."*
//!
//! Compilation passes:
//!
//! 1. **Symbolic execution** ([`ir`]) of the packet transaction into
//!    per-state-variable guarded-update trees and per-field write
//!    expressions.
//! 2. **Grouping** ([`lower`]): state variables are partitioned into atom
//!    groups (cyclically-dependent variables must share an atom; merged
//!    groupings are preferred, with fallback to minimal ones).
//! 3. **Lowering** ([`lower`]): operand extraction and a hash-consed
//!    stateless DAG for everything state-free.
//! 4. **Scheduling** ([`schedule`]): greedy topological placement onto the
//!    `depth × width` grid with fresh-container allocation — the
//!    all-or-nothing fit check of §1.
//! 5. **Hole synthesis** ([`synth`]): structured CEGIS against the ALU DSL
//!    atoms, verified on randomized inputs. Shrinking
//!    [`SynthConfig::verify_bits`](synth::SynthConfig::verify_bits)
//!    deliberately reproduces the paper's "limited range of values" bug
//!    class.
//! 6. **Assembly** ([`compile()`](compile())): full-grid machine code plus the
//!    container/state mappings the fuzz harness needs.
//!
//! The [`spec`] module runs the Domino program itself as a dsim
//! [`Specification`](druzhba_dsim::testing::Specification) — the oracle,
//! with every name resolved once against the compiled layout — so the
//! Fig. 5 workflow — compile, simulate, fuzz, compare traces — is a
//! three-call affair:
//!
//! ```
//! use druzhba_chipmunk::{compile, CompilerConfig, CompiledSpec};
//! use druzhba_dsim::testing::{fuzz_test, FuzzConfig};
//! use druzhba_dgen::OptLevel;
//!
//! let src = "state int sum = 0;\nsum = sum + pkt.x;";
//! let program = druzhba_domino::parse_program(src).unwrap();
//! let compiled = compile(&program, &CompilerConfig::new(1, 1, "raw")).unwrap();
//! let mut spec = CompiledSpec::new(program, &compiled);
//! let report = fuzz_test(
//!     &compiled.pipeline_spec,
//!     &compiled.machine_code,
//!     OptLevel::SccInline,
//!     &mut spec,
//!     &FuzzConfig {
//!         observable: Some(compiled.observable_containers()),
//!         state_cells: compiled.state_cells.clone(),
//!         ..Default::default()
//!     },
//! );
//! assert!(report.passed());
//! ```

pub mod compile;
pub mod ir;
pub mod lower;
pub mod schedule;
pub mod spec;
pub mod synth;

pub use compile::{compile, CompileReport, CompiledProgram, CompilerConfig};
pub use spec::CompiledSpec;
pub use synth::SynthConfig;
