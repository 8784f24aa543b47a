//! Guards for the copy-on-write AST: a repair edit must leave its parent
//! untouched, a pragma edit must copy only the function or struct it
//! rewrites and, inside it, only the blocks on the path to what it rewrites,
//! no statement or expression id may live in two functions, and the
//! memoized block digests must never go stale.
//!
//! The id property is what lets an edit that addresses a loop by id walk
//! only the function it names: a whole-program walk would find the same
//! loop first.

use heterogen_core::{HeteroGen, JobSpec};
use heterogen_toolchain::{
    BackendInfo, CompileCostModel, Compiled, SimBackend, SimResult, Simulated, StyleViolation,
    Toolchain, ToolchainError,
};
use minic::ast::{Block, Function, Item, NodeId, Program, Stmt};
use minic::visit::{self, Child};
use minic_exec::{ArgValue, Profile};
use repair::localize::resize_edits;
use repair::{candidate_edits, performance_edits, EditKind, RepairEdit};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything about a program an edit must not change.
fn observables(p: &Program) -> (u64, u64, String) {
    (
        minic::fingerprint_program(p),
        minic::fingerprint_node_ids(p),
        minic::print_program(p),
    )
}

/// Edits that rewrite exactly one function or struct.
fn confined_to_one_item(e: &RepairEdit) -> bool {
    matches!(
        e,
        RepairEdit::InsertPragma { .. }
            | RepairEdit::InsertPragmaInMethod { .. }
            | RepairEdit::IndexStatic { .. }
            | RepairEdit::DeletePragma { .. }
            | RepairEdit::ReplacePragmaFactor { .. }
    )
}

/// Applies every edit the search could propose for `p` and checks the
/// sharing rules. Returns how many confined edits applied.
fn check_edits(what: &str, p: &Program, profile: &Profile) -> usize {
    let before = observables(p);
    let diags = hls_sim::check_program(p);
    let mut edits = candidate_edits(p, &diags, profile);
    edits.extend(resize_edits(p));
    edits.extend(performance_edits(p));
    let mut confined = 0;
    for edit in &edits {
        let Some(child) = edit.apply(p) else {
            continue;
        };
        assert!(
            observables(p) == before,
            "{what}: {edit:?} changed its parent"
        );
        if !confined_to_one_item(edit) {
            continue;
        }
        confined += 1;
        assert_eq!(child.items.len(), p.items.len(), "{what}: {edit:?}");
        let copied = copied_items(&format!("{what}: {edit:?}"), p, &child);
        assert_eq!(copied, 1, "{what}: {edit:?} must copy exactly one item");
    }
    confined
}

/// Checks that `child` shares with `parent` every function or struct it
/// left unchanged and, inside each one it copied, every block it left
/// unchanged: a block is copied only on the path to what the edit
/// rewrote. Items pair up by name; items the edit added are skipped.
/// Returns how many items were copied.
fn copied_items(what: &str, parent: &Program, child: &Program) -> usize {
    let name = |item: &Item| match item {
        Item::Function(f) => Some(f.name.clone()),
        Item::Struct(s) => Some(s.name.clone()),
        _ => None,
    };
    let mut copied = 0;
    for child_item in &child.items {
        let Some(parent_item) = name(child_item)
            .and_then(|n| parent.items.iter().find(|i| name(i).as_ref() == Some(&n)))
        else {
            continue;
        };
        let shared = match (parent_item, child_item) {
            (Item::Function(a), Item::Function(b)) => Arc::ptr_eq(a, b),
            (Item::Struct(a), Item::Struct(b)) => Arc::ptr_eq(a, b),
            _ => continue,
        };
        if shared {
            continue;
        }
        copied += 1;
        assert!(
            parent_item != child_item,
            "{what} copied an item it left unchanged"
        );
        let (before, after) = (item_blocks(parent_item), item_blocks(child_item));
        assert_eq!(before.len(), after.len(), "{what}");
        for (a, b) in before.iter().zip(&after) {
            assert!(
                a.shares_stmts_with(b) || a != b,
                "{what} copied a block off its path"
            );
        }
    }
    copied
}

/// Checks the sharing rules on the whole-program expression rewrites where
/// they apply to `p`: `pointer_to_index`, and `inst_update` on the program
/// `flatten` leaves. Returns the kinds of the rewrites that applied.
fn check_rewrites(what: &str, p: &Program, profile: &Profile) -> Vec<EditKind> {
    let mut applied = Vec::new();
    for edit in candidate_edits(p, &hls_sim::check_program(p), profile) {
        let (parent, rewrite) = match &edit {
            RepairEdit::PointerToIndex { .. } => (p.clone(), edit.clone()),
            RepairEdit::Flatten { struct_name } => match edit.apply(p) {
                Some(flat) => (
                    flat,
                    RepairEdit::InstUpdate {
                        struct_name: struct_name.clone(),
                    },
                ),
                None => continue,
            },
            _ => continue,
        };
        let before = observables(&parent);
        let Some(child) = rewrite.apply(&parent) else {
            continue;
        };
        let what = format!("{what}: {rewrite:?}");
        assert!(observables(&parent) == before, "{what} changed its parent");
        assert!(copied_items(&what, &parent, &child) >= 1, "{what}");
        applied.push(rewrite.kind_enum());
    }
    applied
}

/// Every block of a function or struct item, in walk order.
fn item_blocks(item: &Item) -> Vec<&Block> {
    fn walk<'a>(b: &'a Block, out: &mut Vec<&'a Block>) {
        out.push(b);
        for s in b.stmts() {
            stmt(s, out);
        }
    }
    fn stmt<'a>(s: &'a Stmt, out: &mut Vec<&'a Block>) {
        visit::stmt_children(s, &mut |c| match c {
            Child::Block(b) => walk(b, out),
            Child::Stmt(i) => stmt(i, out),
            Child::Expr(_) => {}
        });
    }
    let mut out = Vec::new();
    for code in visit::item_code(item) {
        match code {
            visit::Code::Function(f) => {
                if let Some(b) = &f.body {
                    walk(b, &mut out);
                }
            }
            visit::Code::Block(b) => walk(b, &mut out),
            visit::Code::Expr(_) => {}
        }
    }
    out
}

#[test]
fn edits_leave_the_parent_alone_and_copy_only_what_they_rewrite() {
    let cfg = bench::standard_config();
    let mut confined = 0;
    let mut rewrites = Vec::new();
    for s in benchsuite::subjects() {
        let (_, fuzz, initial) = bench::fuzz_subject(&s, &cfg.fuzz);
        confined += check_edits(&format!("{} initial", s.id), &initial, &fuzz.profile);
        rewrites.extend(check_rewrites(
            &format!("{} initial", s.id),
            &initial,
            &fuzz.profile,
        ));
        let report = bench::run_subject(&s, &cfg);
        confined += check_edits(
            &format!("{} repaired", s.id),
            &report.program,
            &report.profile,
        );
    }
    assert!(confined > 200, "only {confined} pragma edits applied");
    for kind in [EditKind::PointerToIndex, EditKind::InstUpdate] {
        assert!(rewrites.contains(&kind), "{kind:?} never applied");
    }
}

/// A statement or expression id that appears in two functions (struct
/// methods and constructors count as functions, and so does each global
/// initializer), described for a failure message.
fn id_in_two_functions(p: &Program) -> Option<String> {
    let mut owner: HashMap<NodeId, String> = HashMap::new();
    let mut clash = None;
    let mut claim = |id: NodeId, unit: &str| {
        let prev = owner.entry(id).or_insert_with(|| unit.to_string());
        if prev != unit && clash.is_none() {
            clash = Some(format!("{id} is in both `{prev}` and `{unit}`"));
        }
    };
    for item in &p.items {
        match item {
            Item::Function(f) => claim_function(f, &f.name, &mut claim),
            Item::Struct(sd) => {
                for m in &sd.methods {
                    claim_function(m, &format!("{}::{}", sd.name, m.name), &mut claim);
                }
                if let Some(c) = &sd.ctor {
                    let unit = format!("{}::{}", sd.name, sd.name);
                    for (_, e) in &c.inits {
                        visit::walk_expr(e, &mut |e| claim(e.id, &unit));
                    }
                    claim_stmts(c.body.stmts(), &unit, &mut claim);
                }
            }
            Item::Global(g) => {
                if let Some(e) = &g.init {
                    visit::walk_expr(e, &mut |e| claim(e.id, &g.name));
                }
            }
            _ => {}
        }
    }
    clash
}

fn claim_function(f: &Function, unit: &str, claim: &mut dyn FnMut(NodeId, &str)) {
    if let Some(b) = &f.body {
        claim_stmts(b.stmts(), unit, claim);
    }
}

fn claim_stmts(stmts: &[Stmt], unit: &str, claim: &mut dyn FnMut(NodeId, &str)) {
    for st in stmts {
        visit::walk_stmt(st, &mut |s| claim(s.id, unit));
        visit::walk_stmt_exprs(st, &mut |e| claim(e.id, unit));
    }
}

#[derive(Default)]
struct AuditLog {
    programs: usize,
    clashes: Vec<String>,
    stale: Vec<String>,
}

/// The default backend, checking every program the search style-checks or
/// compiles for ids shared between functions and for stale digests.
struct IdAudit {
    inner: SimBackend,
    log: Arc<Mutex<AuditLog>>,
}

impl IdAudit {
    fn audit(&self, p: &Program) {
        let stale = stale_digests(p);
        let mut log = self.log.lock().unwrap();
        log.programs += 1;
        if let Some(clash) = id_in_two_functions(p) {
            log.clashes.push(clash);
        }
        log.stale.extend(stale);
    }
}

/// The fingerprints and line count a program reports from its memoized
/// block digests, against the same values computed from scratch: the
/// fingerprints of a copy whose every block is rebuilt with an empty memo,
/// and the line count of the printed program.
fn stale_digests(p: &Program) -> Option<String> {
    let memo = (
        minic::fingerprint_program(p),
        minic::fingerprint_node_ids(p),
        minic::loc(p),
    );
    let mut fresh = p.clone();
    visit::visit_blocks_mut(&mut fresh, &mut |b| *b = Block::new(b.stmts().to_vec()));
    let printed = minic::print_program(p);
    let scratch = (
        minic::fingerprint_program(&fresh),
        minic::fingerprint_node_ids(&fresh),
        printed.lines().filter(|l| !l.trim().is_empty()).count(),
    );
    (memo != scratch).then(|| format!("memo {memo:?} != scratch {scratch:?} for:\n{printed}"))
}

impl Toolchain for IdAudit {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }
    fn cost_model(&self) -> CompileCostModel {
        self.inner.cost_model()
    }
    fn style_check(&self, p: &Program) -> Vec<StyleViolation> {
        self.audit(p);
        self.inner.style_check(p)
    }
    fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
        self.audit(p);
        self.inner.compile(p, key)
    }
    fn can_simulate(&self, p: &Program) -> bool {
        self.inner.can_simulate(p)
    }
    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.inner.simulate(p, args, key)
    }
    fn simulate_spiked(
        &self,
        p: &Program,
        args: &[ArgValue],
        factor: u32,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError> {
        self.inner.simulate_spiked(p, args, factor, attempt)
    }
}

/// Every candidate the ten searches style-check or compile keeps each id in
/// one function, and reports the same fingerprints and line count from its
/// memoized digests as from scratch.
#[test]
fn no_search_candidate_has_an_id_in_two_functions() {
    let log = Arc::new(Mutex::new(AuditLog::default()));
    let session = HeteroGen::builder()
        .config(bench::standard_config())
        .backend(IdAudit {
            inner: SimBackend::default_profile(),
            log: log.clone(),
        })
        .build();
    for s in benchsuite::subjects() {
        session
            .run(JobSpec::fuzz(s.parse(), s.kernel, bench::seeds(&s)))
            .unwrap_or_else(|e| panic!("{}: {e}", s.id));
        let clashes = std::mem::take(&mut log.lock().unwrap().clashes);
        assert!(
            clashes.is_empty(),
            "{}: {} candidates clash, the first: {}",
            s.id,
            clashes.len(),
            clashes[0]
        );
        let stale = std::mem::take(&mut log.lock().unwrap().stale);
        assert!(
            stale.is_empty(),
            "{}: {} candidates have stale digests, the first: {}",
            s.id,
            stale.len(),
            stale[0]
        );
    }
    let programs = log.lock().unwrap().programs;
    assert!(programs > 1000, "only {programs} candidates audited");
}
