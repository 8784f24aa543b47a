//! A C-subset frontend for the HeteroGen reproduction.
//!
//! `minic` implements the slice of C/C++ (plus HLS extensions) that the
//! HeteroGen pipeline operates on:
//!
//! * functions, recursion, `struct`/`union` definitions with C++-lite methods
//!   and constructors (needed for the paper's struct-and-union error class),
//! * pointers, fixed-size and unknown-size arrays, `malloc`/`free`,
//! * the full C statement set used by the ten subject programs, including
//!   `goto`/labels (required by the recursion-to-stack repair),
//! * HLS data types: `fpga_uint<N>`, `fpga_int<N>`, `fpga_float<E,M>` and
//!   `hls::stream<T>`,
//! * `#pragma HLS …` directives (`pipeline`, `unroll`, `dataflow`,
//!   `array_partition`, `interface`, `top`, `inline`).
//!
//! The crate provides a lexer, a recursive-descent parser, a permissive type
//! checker, a pretty printer (used for line-of-code accounting), a line diff,
//! and an AST edit engine that the repair crate builds its parameterized
//! edit templates on.
//!
//! # Examples
//!
//! ```
//! use minic::parse;
//!
//! let program = parse(r#"
//!     int kernel(int x) {
//!         int acc = 0;
//!         for (int i = 0; i < x; i = i + 1) { acc = acc + i; }
//!         return acc;
//!     }
//! "#)?;
//! assert_eq!(program.functions().count(), 1);
//! # Ok::<(), minic::ParseError>(())
//! ```

pub mod ast;
pub mod diff;
pub mod edit;
pub mod error;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod typeck;
pub mod types;
pub mod visit;

pub use ast::{
    Block, Ctor, DesignConfig, Expr, ExprKind, Field, Function, Item, NodeId, Param, Pragma,
    PragmaKind, Program, Stmt, StmtKind, StructDef, VarDecl,
};
pub use error::{ParseError, ParseErrorKind, TypeError};
pub use fingerprint::{fingerprint_node_ids, fingerprint_program};
pub use parser::parse;
pub use printer::print_program;
pub use types::{ArraySize, IntWidth, Type};

/// Counts the lines of code of a program as rendered by the pretty printer.
///
/// The paper reports subject sizes and edit sizes in lines; this is the single
/// LOC definition used across the reproduction so that ΔLOC numbers are
/// comparable between the original, manual, HeteroRefactor and HeteroGen
/// versions.
///
/// # Examples
///
/// ```
/// let p = minic::parse("int f(int a) { return a; }").unwrap();
/// assert!(minic::loc(&p) >= 1);
/// ```
pub fn loc(program: &ast::Program) -> usize {
    printer::print_program(program)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// A program serializes as its pretty-printed source: the JSON consumer's
/// artifact is the HLS-C text, not the AST shape (which is not a stable
/// interchange format).
impl serde::Serialize for ast::Program {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Str(printer::print_program(self))
    }
}
