//! A baseline reimplementation of HeteroRefactor (Lau et al., ICSE 2020),
//! the prior work the paper compares against in §6.4.
//!
//! HeteroRefactor's scope is *dynamic data structures only*: it removes
//! `malloc`/`free`/pointers via backing arrays, turns recursion into an
//! explicit stack, and finitizes unknown-extent arrays — with fixed,
//! type-based conservative sizes. It performs **no** test generation, **no**
//! pragma exploration, and cannot address the other five error categories.
//! Consequently it succeeds only on subjects whose sole incompatibilities
//! are dynamic data structures (P3 and P8 in the paper — a 20% success rate
//! versus HeteroGen's 100%), and its output is slower than HeteroGen's
//! because no performance-improving edits are applied.
//!
//! # Examples
//!
//! ```
//! let p = minic::parse(
//!     "struct Node { int v; struct Node* next; };\n\
//!      int kernel(int n) {\n\
//!          struct Node* h = (struct Node*)malloc(sizeof(struct Node));\n\
//!          h->v = n; int r = h->v; free(h); return r;\n\
//!      }",
//! ).unwrap();
//! let out = heterorefactor::refactor(&p);
//! assert!(out.success);
//! ```

use heterogen_toolchain::{SimBackend, Toolchain};
use hls_sim::{ErrorCategory, HlsDiagnostic};
use minic::Program;
use repair::templates::RepairEdit;

/// Conservative default size HeteroRefactor uses for every finitized
/// structure (the paper's §6.2 notes it initially picks 1024 for P3's
/// stack — the size the generated tests later prove insufficient).
pub const DEFAULT_CAPACITY: u64 = 1024;

/// The outcome of a HeteroRefactor run.
#[derive(Debug, Clone)]
pub struct RefactorResult {
    /// The (possibly partially) transformed program.
    pub program: Program,
    /// All HLS compatibility errors removed.
    pub success: bool,
    /// Edit families applied.
    pub applied: Vec<String>,
    /// Diagnostics remaining after the run (non-empty iff not successful).
    pub remaining: Vec<hls_sim::HlsDiagnostic>,
}

/// Runs the HeteroRefactor baseline on a program, diagnosing through the
/// default [`SimBackend`] profile.
pub fn refactor(p: &Program) -> RefactorResult {
    refactor_with(p, &SimBackend::default_profile())
}

/// Like [`refactor`], diagnosing through an arbitrary [`Toolchain`] backend.
/// A backend whose compile infrastructure fails mid-run stops the fixed
/// point gracefully: the result reports the diagnostics gathered so far.
pub fn refactor_with<B: Toolchain + ?Sized>(p: &Program, backend: &B) -> RefactorResult {
    let diagnose = |prog: &Program| -> Option<Vec<HlsDiagnostic>> {
        let fp = minic::fingerprint_program(prog);
        backend.compile(prog, fp).ok().map(|c| c.diags)
    };
    let mut program = p.clone();
    let mut applied = Vec::new();
    // Fixed-point over the dynamic-data-structure repairs only.
    for _ in 0..16 {
        let Some(diags) = diagnose(&program) else {
            break;
        };
        let mut progressed = false;
        for d in &diags {
            let edit = match d.category {
                ErrorCategory::DynamicDataStructures => dynamic_edit(&program, d),
                // Pointer removal is within HeteroRefactor's scope when the
                // pointer belongs to a malloc'd struct.
                ErrorCategory::UnsupportedDataTypes if d.message.contains("pointer") => {
                    struct_pointer_edit(&program)
                }
                _ => None,
            };
            if let Some(e) = edit {
                if let Some(next) = e.apply(&program) {
                    applied.push(e.kind().to_string());
                    program = next;
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    // A backend that cannot even diagnose the final program is a failure,
    // not a clean bill of health.
    let (success, remaining) = match diagnose(&program) {
        Some(r) => (r.is_empty(), r),
        None => (false, Vec::new()),
    };
    RefactorResult {
        success,
        program,
        applied,
        remaining,
    }
}

fn dynamic_edit(p: &Program, d: &hls_sim::HlsDiagnostic) -> Option<RepairEdit> {
    let m = d.message.to_ascii_lowercase();
    if m.contains("recursi") {
        let f = d.function.clone().or_else(|| d.symbol.clone())?;
        return Some(RepairEdit::StackTrans {
            function: f,
            capacity: DEFAULT_CAPACITY,
        });
    }
    if m.contains("dynamic memory") {
        let s = repair::localize::malloced_structs(p).into_iter().next()?;
        return Some(RepairEdit::PointerToIndex {
            struct_name: s,
            capacity: DEFAULT_CAPACITY,
        });
    }
    if m.contains("unknown size") {
        return Some(RepairEdit::ArrayStatic {
            var: d.symbol.clone()?,
            function: d.function.clone(),
            size: DEFAULT_CAPACITY,
        });
    }
    None
}

fn struct_pointer_edit(p: &Program) -> Option<RepairEdit> {
    let s = repair::localize::malloced_structs(p).into_iter().next()?;
    Some(RepairEdit::PointerToIndex {
        struct_name: s,
        capacity: DEFAULT_CAPACITY,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixes_pure_dynamic_subject() {
        let p = minic::parse(
            r#"
            struct Node { int val; struct Node* next; };
            int kernel(int n) {
                struct Node* head = (struct Node*)malloc(sizeof(struct Node));
                head->val = 1;
                head->next = 0;
                struct Node* cur = head;
                for (int i = 0; i < n; i++) {
                    struct Node* x = (struct Node*)malloc(sizeof(struct Node));
                    x->val = i;
                    x->next = 0;
                    cur->next = x;
                    cur = x;
                }
                int sum = 0;
                cur = head;
                while (cur != 0) { sum = sum + cur->val; cur = cur->next; }
                return sum;
            }
        "#,
        )
        .unwrap();
        let out = refactor(&p);
        assert!(out.success, "remaining: {:?}", out.remaining);
        assert!(out.applied.contains(&"pointer_to_index".to_string()));
    }

    #[test]
    fn fixes_recursion() {
        let p = minic::parse(
            r#"
            #define N 16
            int buf[N];
            void walk(int i) {
                if (i >= 16) { return; }
                buf[i] = i;
                walk(i + 1);
            }
            void kernel(int x) { walk(0); }
        "#,
        )
        .unwrap();
        let out = refactor(&p);
        assert!(out.success, "remaining: {:?}", out.remaining);
        assert!(out.applied.contains(&"stack_trans".to_string()));
    }

    #[test]
    fn fails_on_unsupported_types() {
        let p = minic::parse("int kernel(int x) { long double y = x; return y; }").unwrap();
        let out = refactor(&p);
        assert!(!out.success, "HR has no type repairs");
        assert!(!out.remaining.is_empty());
    }

    #[test]
    fn fails_on_struct_errors() {
        let p = minic::parse(
            r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                void do1() { out.write(in.read()); }
            };
            void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            #pragma HLS dataflow
                static hls::stream<unsigned> tmp;
                If2{in, tmp}.do1();
                If2{tmp, out}.do1();
            }
        "#,
        )
        .unwrap();
        let out = refactor(&p);
        assert!(!out.success);
    }

    #[test]
    fn fails_on_pragma_errors() {
        let p = minic::parse(
            r#"
            void kernel(int x) {
                int A[13];
            #pragma HLS array_partition variable=A factor=4 dim=1
                for (int i = 0; i < 13; i++) { A[i] = x; }
            }
        "#,
        )
        .unwrap();
        let out = refactor(&p);
        assert!(!out.success);
    }

    #[test]
    fn behaviour_preserved_on_success() {
        let src = r#"
            struct Node { int val; struct Node* next; };
            int kernel(int n) {
                struct Node* head = (struct Node*)malloc(sizeof(struct Node));
                head->val = 7;
                head->next = 0;
                int r = head->val + n;
                free(head);
                return r;
            }
        "#;
        let p = minic::parse(src).unwrap();
        let out = refactor(&p);
        assert!(out.success);
        let mut m1 = minic_exec::Vm::new(
            minic_exec::compiled_for(&p),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let a = m1
            .run_function("kernel", vec![minic_exec::Value::int(3)])
            .unwrap();
        let mut m2 = minic_exec::Vm::new(
            minic_exec::compiled_for(&out.program),
            minic_exec::MachineConfig::fpga(),
        )
        .unwrap();
        let b = m2
            .run_function("kernel", vec![minic_exec::Value::int(3)])
            .unwrap();
        assert_eq!(a.as_int(), b.as_int());
    }
}
