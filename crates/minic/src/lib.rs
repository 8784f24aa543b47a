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
pub mod depth;
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
pub use depth::{ast_depth, MAX_AST_DEPTH};
pub use error::{ParseError, ParseErrorKind, TypeError};
pub use fingerprint::{
    behaviour_digest, fingerprint_node_ids, fingerprint_program, fnv1a, fnv1a_extend,
    same_behaviour, FNV1A_OFFSET,
};
pub use parser::parse;
pub use printer::print_program;
pub use types::{ArraySize, IntWidth, Type};

/// Counts the non-blank lines of code of a program as rendered by the
/// pretty printer, without rendering it: a fold over the items' line counts
/// and the blocks' memoized digests (see [`fingerprint`]).
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
    program.items.iter().map(printer::item_lines).sum()
}

/// A program serializes as its pretty-printed source: the JSON consumer's
/// artifact is the HLS-C text, not the AST shape (which is not a stable
/// interchange format).
impl serde::Serialize for ast::Program {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Str(printer::print_program(self))
    }
}

#[cfg(test)]
mod tests {
    /// The definition [`loc`](crate::loc) folds: the printed program's
    /// non-blank lines.
    fn loc_by_printing(p: &crate::Program) -> usize {
        crate::print_program(p)
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }

    #[test]
    fn loc_counts_the_printed_lines_without_printing() {
        let src = r#"
            #include <hls_stream.h>
            #define N 4
            #pragma HLS top name=f
            typedef int word;
            int g = 1 + 2;
            int proto(int x);
            struct S {
                int v;
                hls::stream<int> &s;
                S(int a) : v(a * 2) { v = v + 1; if (a) { v--; } }
                int get(int k) { for (int i = 0; i < k; i++) { v += i; } return v; }
            };
            union U { int i; float f; };
            struct E { int e; };
            int f(int n) {
                int a[2] = {1, 2};
                for (int i = 0; i < n; i++) {
                #pragma HLS pipeline
                    a[i % 2] += i;
                }
                for (;;) { break; }
                do { int t = -n; n = t; } while (n < 0);
                if (n > 0) { n--; } else { int e = (int)1.5; n = e ? sizeof(int) : 'c'; }
                if (n) { } else { }
                while (n > 10) { if (true) { break; } n = n - 1; continue; }
                { puts("x\ny"); ; }
                goto done;
                done:
                return a[0];
            }
            void empty() {}
        "#;
        let p = crate::parse(src).unwrap();
        assert_eq!(crate::loc(&p), loc_by_printing(&p));
        assert!(crate::loc(&p) > 40);
        assert_eq!(crate::loc(&crate::Program::new()), 0);
    }
}
