//! Structural 64-bit fingerprints of programs, folded from memoized block
//! digests.
//!
//! The repair search dedups candidate programs; keying that set by
//! pretty-printed source means every candidate costs a full render plus a
//! permanently retained `String`. A fingerprint is an FNV-1a hash over the
//! AST *structure* — variant tags, names, literals, types, and the design
//! config — while ignoring [`NodeId`]s and
//! [`Span`](crate::token::Span)s, which differ between
//! otherwise identical candidates derived along different edit paths.
//!
//! Each [`Block`] memoizes a digest of its statements (structural hash,
//! node-id hash, printed line count, and whether a [`NodeId::SYNTH`] node
//! is under it), in which a nested block counts by its own digest. A
//! program's fingerprints and [`loc`](crate::loc) fold these digests with
//! the item headers, so after an edit only the blocks on the path to the
//! edit are hashed again.
//!
//! Invariant (checked by a property test): programs with equal
//! pretty-printed source have equal fingerprints. The converse can fail
//! with probability ~2⁻⁶⁴ per pair; the search tolerates a false dedup hit
//! the same way it tolerates re-deriving an already-seen candidate.

use crate::ast::{
    Block, Ctor, DesignConfig, Expr, ExprKind, Function, Item, NodeId, Param, Pragma, PragmaKind,
    Program, Stmt, StmtKind, StructDef, UnOp, VarDecl,
};
use crate::printer;
use crate::types::{ArraySize, Type};
use crate::visit::{self, Child, Code};
use std::sync::Arc;

/// The memoized digests of a block's statements (see [`Block::digest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest {
    /// Structural hash, the block's share of [`fingerprint_program`].
    pub hash: u64,
    /// Hash of the statement and expression ids in walk order, the block's
    /// share of [`fingerprint_node_ids`].
    pub ids: u64,
    /// Non-blank lines the printer writes for the statements, the block's
    /// share of [`loc`](crate::loc).
    pub lines: usize,
    /// Whether a statement or expression under the block has the id
    /// [`NodeId::SYNTH`].
    pub synth: bool,
    /// Whether a statement pragma ([`StmtKind::Pragma`]) is under the
    /// block.
    pub pragma: bool,
}

impl Digest {
    /// Digests a statement list, reading (and filling) the memos of the
    /// blocks nested in it.
    pub(crate) fn of(stmts: &[Stmt]) -> Digest {
        let mut hash = Fnv::new();
        let mut ids = IdHasher {
            h: Fnv::new(),
            synth: false,
            pragma: false,
        };
        hash.u64(stmts.len() as u64);
        for s in stmts {
            hash_stmt(&mut hash, s);
            ids.stmt(s);
        }
        Digest {
            hash: hash.h,
            ids: ids.h.h,
            lines: stmts.iter().map(printer::stmt_lines).sum(),
            synth: ids.synth,
            pragma: ids.pragma,
        }
    }

    /// The `synth` flag of [`Digest::of`], without filling any memo.
    pub(crate) fn holds_synth(stmts: &[Stmt]) -> bool {
        fn stmt(s: &Stmt) -> bool {
            let mut synth = s.id == NodeId::SYNTH;
            visit::stmt_children(s, &mut |c| {
                synth = synth
                    || match c {
                        Child::Expr(e) => visit::expr_holds(e, &|e| e.id == NodeId::SYNTH),
                        Child::Stmt(i) => stmt(i),
                        Child::Block(b) => b.holds_synth(),
                    }
            });
            synth
        }
        stmts.iter().any(stmt)
    }
}

/// Hashes node ids in walk order; a nested block counts by its digest.
/// Notes on the way whether it passed a synthesized id or a statement
/// pragma.
struct IdHasher {
    h: Fnv,
    synth: bool,
    pragma: bool,
}

impl IdHasher {
    fn id(&mut self, id: NodeId) {
        self.synth |= id == NodeId::SYNTH;
        self.h.u64(id.0 as u64);
    }

    fn stmt(&mut self, s: &Stmt) {
        self.id(s.id);
        self.pragma |= matches!(s.kind, StmtKind::Pragma(_));
        visit::stmt_children(s, &mut |c| match c {
            Child::Expr(e) => visit::walk_expr(e, &mut |e| self.id(e.id)),
            Child::Stmt(i) => self.stmt(i),
            Child::Block(b) => {
                let d = b.digest();
                self.h.u64(d.ids);
                self.synth |= d.synth;
                self.pragma |= d.pragma;
            }
        });
    }
}

/// 64-bit FNV-1a's offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the 64-bit FNV-1a hash `h` over `bytes`. This is the one
/// FNV-1a in the workspace: fingerprints, the store's checksums and keys,
/// and test-suite fingerprints and trace digests all hash through it.
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// Streaming FNV-1a over structural bytes.
struct Fnv {
    h: u64,
    /// Hash every block as if its statement pragmas were removed (see
    /// [`behaviour_digest`]).
    strip: bool,
}

impl Fnv {
    fn new() -> Fnv {
        Fnv {
            h: FNV1A_OFFSET,
            strip: false,
        }
    }

    fn stripping() -> Fnv {
        Fnv {
            h: FNV1A_OFFSET,
            strip: true,
        }
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.h = fnv1a_extend(self.h, bs);
    }

    /// Variant / position tag. Each call site uses a distinct constant so
    /// that differently-shaped trees cannot collide by concatenation.
    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i128(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn boolean(&mut self, v: bool) {
        self.tag(if v { 1 } else { 0 });
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.tag(0xE0),
            Some(x) => {
                self.tag(0xE1);
                f(self, x);
            }
        }
    }
}

/// Structural fingerprint of a whole program, including its
/// [`DesignConfig`]. `NodeId`s, spans, and the internal id counter do not
/// participate, so candidates that print identically hash identically.
pub fn fingerprint_program(p: &Program) -> u64 {
    hash_program(Fnv::new(), p)
}

fn hash_program(mut h: Fnv, p: &Program) -> u64 {
    hash_config(&mut h, &p.config);
    h.u64(p.items.len() as u64);
    for item in &p.items {
        hash_item(&mut h, item);
    }
    h.h
}

/// Fingerprint of a program's *node-id labeling*: an FNV-1a hash over every
/// statement and expression [`NodeId`] in walk order (see [`visit`]).
/// Programs with equal [`fingerprint_program`] can still differ here —
/// reparses and print-identical candidates derived along different edit
/// paths renumber their nodes from different counters.
/// Consumers that bake `NodeId`s into derived artifacts (e.g. compiled
/// bytecode whose coverage and loop sites address the source AST) must key
/// caches by the *pair* of fingerprints, or a structural hit would hand
/// back sites labeled with another AST's ids.
pub fn fingerprint_node_ids(p: &Program) -> u64 {
    let mut h = Fnv::new();
    for code in p.items.iter().flat_map(visit::item_code) {
        match code {
            Code::Function(f) => {
                if let Some(b) = &f.body {
                    h.u64(b.digest().ids);
                }
            }
            Code::Block(b) => h.u64(b.digest().ids),
            Code::Expr(e) => visit::walk_expr(e, &mut |e| h.u64(e.id.0 as u64)),
        }
    }
    h.h
}

/// Structural fingerprint of a program's behaviour: the
/// [`fingerprint_program`] of the same program with every statement pragma
/// ([`StmtKind::Pragma`]) removed, computed without removing them. A
/// statement pragma steers the schedule, not the computation: both
/// execution engines charge it one unit of fuel and do nothing else. So
/// programs with equal behaviour digests run alike up to those charges.
///
/// A block that holds no statement pragma counts by its memoized digest;
/// only the blocks that hold one are hashed again. Node ids do not take
/// part; [`same_behaviour`] confirms a match, ids included.
pub fn behaviour_digest(p: &Program) -> u64 {
    hash_program(Fnv::stripping(), p)
}

/// Whether `a` and `b` are the same program once every statement pragma is
/// removed from both: the same design config and items, node ids and spans
/// included. Items and blocks the two programs share are equal without a
/// walk. Programs this accepts have equal [`behaviour_digest`]s.
pub fn same_behaviour(a: &Program, b: &Program) -> bool {
    a.config == b.config
        && a.items.len() == b.items.len()
        && a.items.iter().zip(&b.items).all(|(x, y)| match (x, y) {
            (Item::Function(f), Item::Function(g)) => Arc::ptr_eq(f, g) || same_function(f, g),
            (Item::Struct(s), Item::Struct(t)) => Arc::ptr_eq(s, t) || same_struct(s, t),
            _ => x == y,
        })
}

/// The statements of `b` that are not statement pragmas: the one view of a
/// block that both [`behaviour_digest`] and [`same_behaviour`] take.
fn kept(b: &Block) -> impl Iterator<Item = &Stmt> {
    b.stmts()
        .iter()
        .filter(|s| !matches!(s.kind, StmtKind::Pragma(_)))
}

/// [`Digest::of`]'s structural hash over the [`kept`] statements of `b`,
/// nested blocks stripped too. A block that holds no statement pragma
/// hashes to its memoized digest.
fn stripped_hash(b: &Block) -> u64 {
    let mut h = Fnv::stripping();
    h.u64(kept(b).count() as u64);
    for s in kept(b) {
        hash_stmt(&mut h, s);
    }
    h.h
}

fn same_block(a: &Block, b: &Block) -> bool {
    if a.shares_stmts_with(b) {
        return true;
    }
    let (mut x, mut y) = (kept(a), kept(b));
    loop {
        match (x.next(), y.next()) {
            (None, None) => return true,
            (Some(s), Some(t)) if same_stmt(s, t) => {}
            _ => return false,
        }
    }
}

fn same_stmt(s: &Stmt, t: &Stmt) -> bool {
    s.id == t.id
        && s.span == t.span
        && match (&s.kind, &t.kind) {
            (StmtKind::If(c, x, e), StmtKind::If(d, y, f)) => {
                c == d && same_block(x, y) && same_opt(e, f, same_block)
            }
            (StmtKind::While(c, x), StmtKind::While(d, y))
            | (StmtKind::DoWhile(x, c), StmtKind::DoWhile(y, d)) => c == d && same_block(x, y),
            (StmtKind::For(i, c, st, x), StmtKind::For(j, d, su, y)) => {
                same_opt(i, j, |a, b| same_stmt(a, b)) && c == d && st == su && same_block(x, y)
            }
            (StmtKind::Block(x), StmtKind::Block(y)) => same_block(x, y),
            (k, l) => k == l,
        }
}

fn same_function(f: &Function, g: &Function) -> bool {
    let Function {
        id,
        name,
        ret,
        params,
        body,
        is_static,
    } = f;
    *id == g.id
        && *name == g.name
        && *ret == g.ret
        && *params == g.params
        && *is_static == g.is_static
        && same_opt(body, &g.body, same_block)
}

fn same_struct(s: &StructDef, t: &StructDef) -> bool {
    let StructDef {
        id,
        name,
        is_union,
        fields,
        methods,
        ctor,
    } = s;
    *id == t.id
        && *name == t.name
        && *is_union == t.is_union
        && *fields == t.fields
        && methods.len() == t.methods.len()
        && methods
            .iter()
            .zip(&t.methods)
            .all(|(m, n)| same_function(m, n))
        && same_opt(ctor, &t.ctor, |c, d| {
            c.params == d.params && c.inits == d.inits && same_block(&c.body, &d.body)
        })
}

fn same_opt<T>(a: &Option<T>, b: &Option<T>, same: impl Fn(&T, &T) -> bool) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => same(x, y),
        (None, None) => true,
        _ => false,
    }
}

fn hash_config(h: &mut Fnv, c: &DesignConfig) {
    h.tag(0x01);
    h.opt(&c.top, |h, t| h.str(t));
    h.f64(c.clock_mhz);
    h.str(&c.device);
}

fn hash_item(h: &mut Fnv, item: &Item) {
    match item {
        Item::Function(f) => {
            h.tag(0x10);
            hash_function(h, f);
        }
        Item::Struct(s) => {
            h.tag(0x11);
            hash_struct(h, s);
        }
        Item::Global(g) => {
            h.tag(0x12);
            hash_var_decl(h, g);
        }
        Item::Typedef(name, ty) => {
            h.tag(0x13);
            h.str(name);
            hash_type(h, ty);
        }
        Item::Include(s) => {
            h.tag(0x14);
            h.str(s);
        }
        Item::Define(name, v) => {
            h.tag(0x15);
            h.str(name);
            h.i128(*v);
        }
        Item::Pragma(p) => {
            h.tag(0x16);
            hash_pragma(h, p);
        }
    }
}

fn hash_function(h: &mut Fnv, f: &Function) {
    h.str(&f.name);
    hash_type(h, &f.ret);
    h.boolean(f.is_static);
    h.u64(f.params.len() as u64);
    for p in &f.params {
        hash_param(h, p);
    }
    h.opt(&f.body, hash_block);
}

fn hash_param(h: &mut Fnv, p: &Param) {
    h.str(&p.name);
    hash_type(h, &p.ty);
    h.boolean(p.by_ref);
}

fn hash_struct(h: &mut Fnv, s: &StructDef) {
    h.str(&s.name);
    h.boolean(s.is_union);
    h.u64(s.fields.len() as u64);
    for f in &s.fields {
        h.str(&f.name);
        hash_type(h, &f.ty);
        h.boolean(f.by_ref);
    }
    h.u64(s.methods.len() as u64);
    for m in &s.methods {
        hash_function(h, m);
    }
    h.opt(&s.ctor, hash_ctor);
}

fn hash_ctor(h: &mut Fnv, c: &Ctor) {
    h.u64(c.params.len() as u64);
    for p in &c.params {
        hash_param(h, p);
    }
    h.u64(c.inits.len() as u64);
    for (name, e) in &c.inits {
        h.str(name);
        hash_expr(h, e);
    }
    hash_block(h, &c.body);
}

fn hash_var_decl(h: &mut Fnv, d: &VarDecl) {
    h.str(&d.name);
    hash_type(h, &d.ty);
    h.boolean(d.is_static);
    h.boolean(d.is_const);
    h.opt(&d.init, hash_expr);
}

fn hash_block(h: &mut Fnv, b: &Block) {
    let d = b.digest();
    if h.strip && d.pragma {
        h.u64(stripped_hash(b));
    } else {
        h.u64(d.hash);
    }
}

fn hash_stmt(h: &mut Fnv, s: &Stmt) {
    match &s.kind {
        StmtKind::Decl(d) => {
            h.tag(0x30);
            hash_var_decl(h, d);
        }
        StmtKind::Expr(e) => {
            h.tag(0x31);
            hash_expr(h, e);
        }
        StmtKind::If(c, t, e) => {
            h.tag(0x32);
            hash_expr(h, c);
            hash_block(h, t);
            h.opt(e, hash_block);
        }
        StmtKind::While(c, b) => {
            h.tag(0x33);
            hash_expr(h, c);
            hash_block(h, b);
        }
        StmtKind::DoWhile(b, c) => {
            h.tag(0x34);
            hash_block(h, b);
            hash_expr(h, c);
        }
        StmtKind::For(init, cond, step, b) => {
            h.tag(0x35);
            h.opt(init, |h, s| hash_stmt(h, s));
            h.opt(cond, hash_expr);
            h.opt(step, hash_expr);
            hash_block(h, b);
        }
        StmtKind::Return(e) => {
            h.tag(0x36);
            h.opt(e, hash_expr);
        }
        StmtKind::Break => h.tag(0x37),
        StmtKind::Continue => h.tag(0x38),
        StmtKind::Block(b) => {
            h.tag(0x39);
            hash_block(h, b);
        }
        StmtKind::Pragma(p) => {
            h.tag(0x3A);
            hash_pragma(h, p);
        }
        StmtKind::Label(l) => {
            h.tag(0x3B);
            h.str(l);
        }
        StmtKind::Goto(l) => {
            h.tag(0x3C);
            h.str(l);
        }
        StmtKind::Empty => h.tag(0x3D),
    }
}

fn hash_expr(h: &mut Fnv, e: &Expr) {
    match &e.kind {
        ExprKind::IntLit(v, unsigned) => {
            h.tag(0x50);
            h.i128(*v);
            h.boolean(*unsigned);
        }
        ExprKind::FloatLit(v, long) => {
            h.tag(0x51);
            h.f64(*v);
            h.boolean(*long);
        }
        ExprKind::CharLit(c) => {
            h.tag(0x52);
            h.bytes(&[*c]);
        }
        ExprKind::StrLit(s) => {
            h.tag(0x53);
            h.str(s);
        }
        ExprKind::BoolLit(b) => {
            h.tag(0x54);
            h.boolean(*b);
        }
        ExprKind::Ident(name) => {
            h.tag(0x55);
            h.str(name);
        }
        ExprKind::Unary(op, a) => {
            h.tag(0x56);
            hash_unop(h, *op);
            hash_expr(h, a);
        }
        ExprKind::Binary(op, a, b) => {
            h.tag(0x57);
            h.tag(*op as u8);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        ExprKind::Assign(op, a, b) => {
            h.tag(0x58);
            h.opt(op, |h, o| h.tag(*o as u8));
            hash_expr(h, a);
            hash_expr(h, b);
        }
        ExprKind::Call(name, args) => {
            h.tag(0x59);
            h.str(name);
            hash_exprs(h, args);
        }
        ExprKind::MethodCall(recv, name, args) => {
            h.tag(0x5A);
            hash_expr(h, recv);
            h.str(name);
            hash_exprs(h, args);
        }
        ExprKind::Index(a, i) => {
            h.tag(0x5B);
            hash_expr(h, a);
            hash_expr(h, i);
        }
        ExprKind::Member(a, field, arrow) => {
            h.tag(0x5C);
            hash_expr(h, a);
            h.str(field);
            h.boolean(*arrow);
        }
        ExprKind::Cast(ty, a) => {
            h.tag(0x5D);
            hash_type(h, ty);
            hash_expr(h, a);
        }
        ExprKind::SizeOf(ty) => {
            h.tag(0x5E);
            hash_type(h, ty);
        }
        ExprKind::Ternary(c, t, e) => {
            h.tag(0x5F);
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, e);
        }
        ExprKind::InitList(xs) => {
            h.tag(0x60);
            hash_exprs(h, xs);
        }
        ExprKind::StructLit(name, xs) => {
            h.tag(0x61);
            h.str(name);
            hash_exprs(h, xs);
        }
    }
}

fn hash_exprs(h: &mut Fnv, xs: &[Expr]) {
    h.u64(xs.len() as u64);
    for x in xs {
        hash_expr(h, x);
    }
}

fn hash_unop(h: &mut Fnv, op: UnOp) {
    match op {
        UnOp::Neg => h.tag(0x70),
        UnOp::Not => h.tag(0x71),
        UnOp::BitNot => h.tag(0x72),
        UnOp::Deref => h.tag(0x73),
        UnOp::AddrOf => h.tag(0x74),
        UnOp::Inc(pre) => {
            h.tag(0x75);
            h.boolean(pre);
        }
        UnOp::Dec(pre) => {
            h.tag(0x76);
            h.boolean(pre);
        }
    }
}

fn hash_pragma(h: &mut Fnv, p: &Pragma) {
    match &p.kind {
        PragmaKind::Pipeline { ii } => {
            h.tag(0x80);
            h.opt(ii, |h, v| h.u64(*v as u64));
        }
        PragmaKind::Unroll { factor } => {
            h.tag(0x81);
            h.opt(factor, |h, v| h.u64(*v as u64));
        }
        PragmaKind::Dataflow => h.tag(0x82),
        PragmaKind::ArrayPartition {
            var,
            factor,
            dim,
            complete,
        } => {
            h.tag(0x83);
            h.str(var);
            h.u64(*factor as u64);
            h.u64(*dim as u64);
            h.boolean(*complete);
        }
        PragmaKind::Interface { mode, port } => {
            h.tag(0x84);
            h.str(mode);
            h.str(port);
        }
        PragmaKind::Top { name } => {
            h.tag(0x85);
            h.str(name);
        }
        PragmaKind::Inline => h.tag(0x86),
        PragmaKind::LoopTripcount { min, max } => {
            h.tag(0x87);
            h.u64(*min);
            h.u64(*max);
        }
        PragmaKind::Other(s) => {
            h.tag(0x88);
            h.str(s);
        }
    }
}

fn hash_type(h: &mut Fnv, ty: &Type) {
    match ty {
        Type::Void => h.tag(0x90),
        Type::Bool => h.tag(0x91),
        Type::Int { width, signed } => {
            h.tag(0x92);
            h.u64(width.bits() as u64);
            h.boolean(*signed);
        }
        Type::Float => h.tag(0x93),
        Type::Double => h.tag(0x94),
        Type::LongDouble => h.tag(0x95),
        Type::FpgaInt { bits, signed } => {
            h.tag(0x96);
            h.u64(*bits as u64);
            h.boolean(*signed);
        }
        Type::FpgaFloat { exp, mant } => {
            h.tag(0x97);
            h.u64(*exp as u64);
            h.u64(*mant as u64);
        }
        Type::Pointer(inner) => {
            h.tag(0x98);
            hash_type(h, inner);
        }
        Type::Array(inner, size) => {
            h.tag(0x99);
            hash_type(h, inner);
            match size {
                ArraySize::Const(n) => {
                    h.tag(0xA0);
                    h.u64(*n);
                }
                ArraySize::Named(name) => {
                    h.tag(0xA1);
                    h.str(name);
                }
                ArraySize::Runtime(name) => {
                    h.tag(0xA2);
                    h.str(name);
                }
                ArraySize::Unknown => h.tag(0xA3),
            }
        }
        Type::Struct(name) => {
            h.tag(0x9A);
            h.str(name);
        }
        Type::Union(name) => {
            h.tag(0x9B);
            h.str(name);
        }
        Type::Stream(inner) => {
            h.tag(0x9C);
            hash_type(h, inner);
        }
        Type::Named(name) => {
            h.tag(0x9D);
            h.str(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const SRC: &str = r#"
        #define N 8
        int kernel(int a[8], int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
#pragma HLS pipeline II=1
                acc = acc + a[i];
            }
            return acc;
        }
    "#;

    /// A copy of `p` whose every block is rebuilt with an empty memo, so
    /// its digests are computed from scratch.
    fn fresh(p: &Program) -> Program {
        let mut q = p.clone();
        crate::visit::visit_blocks_mut(&mut q, &mut |b| *b = Block::new(b.stmts().to_vec()));
        q
    }

    fn digests(p: &Program) -> (u64, u64, usize) {
        (
            fingerprint_program(p),
            fingerprint_node_ids(p),
            crate::loc(p),
        )
    }

    /// The body block of the `for` loop that is `kernel`'s second
    /// statement.
    fn loop_body(p: &Program) -> &Block {
        let body = p.function("kernel").unwrap().body.as_ref().unwrap();
        match &body.stmts()[1].kind {
            StmtKind::For(.., b) => b,
            other => panic!("{other:?}"),
        }
    }

    /// Mutating a nested block through [`Block::stmts_mut`] changes the
    /// digests of the block and of every block above it, copies only those
    /// blocks, and leaves the program it was cloned from alone.
    #[test]
    fn nested_edits_refresh_every_ancestor_and_spare_the_clone() {
        let src = SRC.replace("return acc;", "if (n > 2) { acc = 1; }\n return acc;");
        let p = parse(&src).unwrap();
        let before = digests(&p);
        let body_before = *p
            .function("kernel")
            .unwrap()
            .body
            .as_ref()
            .unwrap()
            .digest();
        let loop_before = *loop_body(&p).digest();

        let mut q = p.clone();
        let body = q.function_mut("kernel").unwrap().body.as_mut().unwrap();
        let StmtKind::For(.., b) = &mut body.stmts_mut()[1].kind else {
            unreachable!()
        };
        b.stmts_mut().push(Stmt::synth(StmtKind::Break));
        q.renumber_synthesized();

        // The parent keeps its memoized digests, and they are still right.
        assert_eq!(digests(&p), before);
        assert_eq!(digests(&fresh(&p)), before);
        assert_eq!(*loop_body(&p).digest(), loop_before);
        // The child's digests moved, at the loop body and at the function
        // body above it, and equal a computation from scratch.
        let after = digests(&q);
        assert_eq!(after, digests(&fresh(&q)));
        assert_ne!(after.0, before.0);
        assert_ne!(after.1, before.1);
        assert_eq!(after.2, before.2 + 1);
        let body_after = q
            .function("kernel")
            .unwrap()
            .body
            .as_ref()
            .unwrap()
            .digest();
        assert_ne!(body_after.hash, body_before.hash);
        assert_ne!(loop_body(&q).digest().hash, loop_before.hash);
        // The `if` block, off the path, is still shared.
        let if_block =
            |p: &Program| match &p.function("kernel").unwrap().body.as_ref().unwrap().stmts()[2]
                .kind
            {
                StmtKind::If(_, t, _) => t.clone(),
                other => panic!("{other:?}"),
            };
        assert!(if_block(&p).shares_stmts_with(&if_block(&q)));
        assert!(!loop_body(&p).shares_stmts_with(loop_body(&q)));
    }

    /// The memo's synthesized-node flag follows renumbering.
    #[test]
    fn digest_tracks_synthesized_nodes() {
        let mut p = parse(SRC).unwrap();
        assert!(!loop_body(&p).digest().synth);
        let body = p.function_mut("kernel").unwrap().body.as_mut().unwrap();
        let StmtKind::For(.., b) = &mut body.stmts_mut()[1].kind else {
            unreachable!()
        };
        b.stmts_mut().push(Stmt::synth(StmtKind::Break));
        assert!(loop_body(&p).digest().synth);
        assert!(
            p.function("kernel")
                .unwrap()
                .body
                .as_ref()
                .unwrap()
                .digest()
                .synth
        );
        p.renumber_synthesized();
        assert!(!loop_body(&p).digest().synth);
        assert_eq!(digests(&p), digests(&fresh(&p)));
    }

    #[test]
    fn stable_across_reparse() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(&crate::print_program(&p1)).unwrap();
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&p2));
    }

    #[test]
    fn ignores_node_ids() {
        let p1 = parse(SRC).unwrap();
        let mut p2 = parse(SRC).unwrap();
        // Renumbering synthesized ids must not affect the fingerprint; nor
        // does reparsing with a different id baseline (p2's ids are fresh).
        p2.renumber_synthesized();
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&p2));
    }

    #[test]
    fn node_id_fingerprint_tracks_labeling_not_structure() {
        let p1 = parse(SRC).unwrap();
        let p2 = parse(SRC).unwrap();
        // Same source, same parse → same labeling.
        assert_eq!(fingerprint_node_ids(&p1), fingerprint_node_ids(&p2));
        // A padding global consumes ids, so dropping it afterwards yields a
        // program that prints identically (equal structural fingerprint)
        // but is labeled differently — the node-id fingerprint must differ.
        let mut shifted = parse(&format!("int __pad = 1;\n{SRC}")).unwrap();
        shifted.items.remove(0);
        assert_eq!(fingerprint_program(&p1), fingerprint_program(&shifted));
        assert_ne!(fingerprint_node_ids(&p1), fingerprint_node_ids(&shifted));
    }

    #[test]
    fn node_id_fingerprint_covers_constructor_body_statements() {
        let p = parse("struct S { int x; S(int a) : x(a) { x = 1; } };").unwrap();
        let mut relabeled = p.clone();
        let ctor = relabeled
            .struct_def_mut("S")
            .unwrap()
            .ctor
            .as_mut()
            .unwrap();
        ctor.body.stmts_mut()[0].id = crate::ast::NodeId(999);
        assert_ne!(fingerprint_node_ids(&p), fingerprint_node_ids(&relabeled));
    }

    #[test]
    fn sensitive_to_structure_config_and_pragmas() {
        let base = parse(SRC).unwrap();
        let variant = parse(&SRC.replace("acc + a[i]", "acc - a[i]")).unwrap();
        assert_ne!(fingerprint_program(&base), fingerprint_program(&variant));

        let pragma = parse(&SRC.replace("II=1", "II=2")).unwrap();
        assert_ne!(fingerprint_program(&base), fingerprint_program(&pragma));

        let mut config = parse(SRC).unwrap();
        config.config.top = Some("kernel".to_string());
        assert_ne!(fingerprint_program(&base), fingerprint_program(&config));

        let define = parse(&SRC.replace("#define N 8", "#define N 9")).unwrap();
        assert_ne!(fingerprint_program(&base), fingerprint_program(&define));
    }

    const PRAGMAS: &str = r#"
        struct Acc { int v; int add(int n) { for (int i = 0; i < n; i++) {
#pragma HLS unroll factor=2
            v = v + i; } return v; } };
        int kernel(int a[8], int n) {
#pragma HLS array_partition variable=a factor=2 dim=1
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
#pragma HLS pipeline II=1
                if (a[i] > 0) {
#pragma HLS inline
                    acc = acc + a[i];
                }
                for (int j = 0; j < 2; j++) { acc = acc + j; }
            }
            return acc;
        }
    "#;

    /// `p` with every statement pragma removed.
    fn stripped(p: &Program) -> Program {
        let mut q = p.clone();
        crate::visit::visit_blocks_mut(&mut q, &mut |b| {
            b.stmts_mut()
                .retain(|s| !matches!(s.kind, StmtKind::Pragma(_)))
        });
        q
    }

    #[test]
    fn behaviour_digest_is_the_fingerprint_of_the_stripped_program() {
        let p = parse(PRAGMAS).unwrap();
        let q = stripped(&p);
        assert_ne!(fingerprint_program(&p), fingerprint_program(&q));
        assert_eq!(behaviour_digest(&p), fingerprint_program(&q));
        assert_eq!(behaviour_digest(&q), fingerprint_program(&q));
        assert_eq!(behaviour_digest(&fresh(&p)), behaviour_digest(&p));
        assert!(same_behaviour(&p, &q) && same_behaviour(&q, &p));
        let body = p.function("kernel").unwrap().body.as_ref().unwrap();
        assert!(body.holds_pragma());
        assert!(!q
            .function("kernel")
            .unwrap()
            .body
            .as_ref()
            .unwrap()
            .holds_pragma());
        // The inner `for` holds no pragma; its stripped hash is its memo.
        let StmtKind::For(.., outer) = &body.stmts()[2].kind else {
            panic!()
        };
        let StmtKind::For(.., inner) = &outer.stmts()[2].kind else {
            panic!()
        };
        assert!(outer.holds_pragma() && !inner.holds_pragma());
        assert_eq!(stripped_hash(inner), inner.digest().hash);
    }

    #[test]
    fn same_behaviour_skips_only_statement_pragmas() {
        let base = parse(SRC).unwrap();
        assert!(same_behaviour(
            &base,
            &parse(&SRC.replace("II=1", "II=2")).unwrap()
        ));
        let mut more = base.clone();
        more.function_mut("kernel")
            .unwrap()
            .body
            .as_mut()
            .unwrap()
            .stmts_mut()
            .insert(
                0,
                Stmt::synth(StmtKind::Pragma(Pragma {
                    kind: PragmaKind::Dataflow,
                })),
            );
        more.renumber_synthesized();
        assert!(same_behaviour(&base, &more));
        assert_eq!(behaviour_digest(&base), behaviour_digest(&more));

        let variant = parse(&SRC.replace("acc + a[i]", "acc - a[i]")).unwrap();
        assert!(!same_behaviour(&base, &variant));
        assert_ne!(behaviour_digest(&base), behaviour_digest(&variant));
        let mut config = base.clone();
        config.config.clock_mhz = 100.0;
        assert!(!same_behaviour(&base, &config));
        // A relabeling keeps the digest but is not the same program: a
        // trace is keyed to its program's loop ids.
        let mut relabeled = base.clone();
        relabeled
            .function_mut("kernel")
            .unwrap()
            .body
            .as_mut()
            .unwrap()
            .stmts_mut()[1]
            .id = crate::ast::NodeId(999);
        assert_eq!(behaviour_digest(&base), behaviour_digest(&relabeled));
        assert!(!same_behaviour(&base, &relabeled));
        // An item-level pragma is not a statement pragma.
        let item = parse(&format!("#pragma HLS top name=kernel\n{SRC}")).unwrap();
        assert!(!same_behaviour(&base, &item));
    }
}
