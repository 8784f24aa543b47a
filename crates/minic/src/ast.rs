//! Abstract syntax tree for the minic dialect.
//!
//! Every expression and statement carries a [`NodeId`] that is stable across
//! pretty-printing and is used by the repair engine to address edit sites.
//! Fresh ids for synthesized nodes are allocated from [`Program::fresh_id`].

use crate::fingerprint::Digest;
use crate::token::Span;
use crate::types::Type;
use crate::visit;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A stable identifier for an AST node within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// A placeholder id used for synthesized nodes before renumbering.
    pub const SYNTH: NodeId = NodeId(u32::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*p`
    Deref,
    /// `&x`
    AddrOf,
    /// `++x` / `x++` (flag: prefix)
    Inc(bool),
    /// `--x` / `x--` (flag: prefix)
    Dec(bool),
}

/// Binary operators (excluding assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// Whether the operator yields `bool`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// Compound-assignment operators; `None` inside [`ExprKind::Assign`] means
/// plain `=`.
pub type AssignOp = Option<BinOp>;

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Stable node id.
    pub id: NodeId,
    /// Source span (synthesized nodes carry a default span).
    pub span: Span,
    /// The expression itself.
    pub kind: ExprKind,
}

impl Expr {
    /// Creates a synthesized expression (placeholder id, default span).
    pub fn synth(kind: ExprKind) -> Expr {
        Expr {
            id: NodeId::SYNTH,
            span: Span::default(),
            kind,
        }
    }

    /// Convenience: synthesized integer literal.
    pub fn int(v: i128) -> Expr {
        Expr::synth(ExprKind::IntLit(v, false))
    }

    /// Convenience: synthesized identifier reference.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::synth(ExprKind::Ident(name.into()))
    }

    /// Convenience: synthesized call.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::synth(ExprKind::Call(name.into(), args))
    }

    /// Convenience: synthesized binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::synth(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)))
    }
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal (value, unsigned-suffixed).
    IntLit(i128, bool),
    /// Float literal (value, is-long-double).
    FloatLit(f64, bool),
    /// Character literal.
    CharLit(u8),
    /// String literal.
    StrLit(String),
    /// `true` / `false`.
    BoolLit(bool),
    /// Variable reference.
    Ident(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment `lhs op= rhs` (`op == None` for plain `=`).
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// Direct function call `f(args)`. Builtins (`malloc`, `free`, `sqrt`, …)
    /// use this form too.
    Call(String, Vec<Expr>),
    /// Method call `recv.name(args)` — used by `hls::stream` (`read`,
    /// `write`, `empty`, `push`, `pop`) and struct methods.
    MethodCall(Box<Expr>, String, Vec<Expr>),
    /// `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `s.field` (`arrow == false`) or `p->field` (`arrow == true`).
    Member(Box<Expr>, String, bool),
    /// `(T)e`.
    Cast(Type, Box<Expr>),
    /// `sizeof(T)`.
    SizeOf(Type),
    /// `c ? t : e`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `{e1, e2, …}` initializer list.
    InitList(Vec<Expr>),
    /// `S{e1, e2}` aggregate construction (the paper's `If2{in, tmp}` form).
    StructLit(String, Vec<Expr>),
}

/// A variable declaration (local or global).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Declared name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// `static` storage — significant for HLS stream rules.
    pub is_static: bool,
    /// `const` qualifier.
    pub is_const: bool,
}

impl VarDecl {
    /// Creates a plain declaration with no qualifiers.
    pub fn new(name: impl Into<String>, ty: Type, init: Option<Expr>) -> VarDecl {
        VarDecl {
            name: name.into(),
            ty,
            init,
            is_static: false,
            is_const: false,
        }
    }
}

/// An HLS pragma (`#pragma HLS …`).
#[derive(Debug, Clone, PartialEq)]
pub struct Pragma {
    /// Parsed directive.
    pub kind: PragmaKind,
}

/// Parsed `#pragma HLS` directives.
#[derive(Debug, Clone, PartialEq)]
pub enum PragmaKind {
    /// `pipeline [II=n]`
    Pipeline {
        /// Initiation interval target.
        ii: Option<u32>,
    },
    /// `unroll [factor=n]` (no factor means full unroll).
    Unroll {
        /// Unroll factor.
        factor: Option<u32>,
    },
    /// `dataflow` — task-level pipelining.
    Dataflow,
    /// `array_partition variable=v [factor=n] [dim=d] [complete]`
    ArrayPartition {
        /// Target array variable.
        var: String,
        /// Partition factor (ignored when `complete`).
        factor: u32,
        /// Dimension (1-based).
        dim: u32,
        /// Complete partitioning.
        complete: bool,
    },
    /// `interface mode=m port=p`
    Interface {
        /// Interface mode (e.g. `m_axi`, `s_axilite`).
        mode: String,
        /// Port name.
        port: String,
    },
    /// `top name=f` — design configuration naming the top function.
    Top {
        /// The configured top-function name.
        name: String,
    },
    /// `inline`
    Inline,
    /// `loop_tripcount min=a max=b` — explicit trip count bound, the paper's
    /// loop-parallelization fix ingredient.
    LoopTripcount {
        /// Lower bound.
        min: u64,
        /// Upper bound.
        max: u64,
    },
    /// Any other directive, kept verbatim.
    Other(String),
}

impl fmt::Display for Pragma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#pragma HLS ")?;
        match &self.kind {
            PragmaKind::Pipeline { ii: Some(ii) } => write!(f, "pipeline II={ii}"),
            PragmaKind::Pipeline { ii: None } => write!(f, "pipeline"),
            PragmaKind::Unroll { factor: Some(n) } => write!(f, "unroll factor={n}"),
            PragmaKind::Unroll { factor: None } => write!(f, "unroll"),
            PragmaKind::Dataflow => write!(f, "dataflow"),
            PragmaKind::ArrayPartition {
                var,
                factor,
                dim,
                complete,
            } => {
                if *complete {
                    write!(f, "array_partition variable={var} complete dim={dim}")
                } else {
                    write!(
                        f,
                        "array_partition variable={var} factor={factor} dim={dim}"
                    )
                }
            }
            PragmaKind::Interface { mode, port } => write!(f, "interface mode={mode} port={port}"),
            PragmaKind::Top { name } => write!(f, "top name={name}"),
            PragmaKind::Inline => write!(f, "inline"),
            PragmaKind::LoopTripcount { min, max } => {
                write!(f, "loop_tripcount min={min} max={max}")
            }
            PragmaKind::Other(s) => write!(f, "{s}"),
        }
    }
}

/// A `{ … }` block of statements.
///
/// The statement list is shared copy-on-write, next to a memo of the
/// block's digests (see [`fingerprint`](crate::fingerprint)): cloning a
/// block copies neither. [`Block::stmts_mut`]
/// is the only mutable access to the statements; it unshares the list (one
/// level deep: nested blocks stay shared) and clears the memo. Every `&mut`
/// to a nested node is reached through the `stmts_mut` of each enclosing
/// block, so no memo can outlive a change below it.
#[derive(Clone, Default)]
pub struct Block {
    stmts: Arc<Vec<Stmt>>,
    memo: OnceLock<Digest>,
}

impl Block {
    /// Creates a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Block {
        Block {
            stmts: Arc::new(stmts),
            memo: OnceLock::new(),
        }
    }

    /// The statements in order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Mutable access to the statements. Unshares the statement list and
    /// clears the memo.
    pub fn stmts_mut(&mut self) -> &mut Vec<Stmt> {
        self.memo.take();
        Arc::make_mut(&mut self.stmts)
    }

    /// The statements, by value (copied only if shared).
    pub fn into_stmts(self) -> Vec<Stmt> {
        Arc::try_unwrap(self.stmts).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Whether both blocks hold the same shared statement list (not merely
    /// equal statements).
    pub fn shares_stmts_with(&self, other: &Block) -> bool {
        Arc::ptr_eq(&self.stmts, &other.stmts)
    }

    /// Whether a statement pragma ([`StmtKind::Pragma`]) is anywhere under
    /// the block. Reads (and fills) the memo.
    pub fn holds_pragma(&self) -> bool {
        self.digest().pragma
    }

    /// The block's digests, computed on first use after a change.
    pub(crate) fn digest(&self) -> &Digest {
        self.memo.get_or_init(|| Digest::of(self.stmts()))
    }

    /// Whether any statement or expression under the block has the id
    /// [`NodeId::SYNTH`]. Reads the memo when it is filled, and does not
    /// fill it: a block holding a synthesized node changes when it is
    /// renumbered.
    pub(crate) fn holds_synth(&self) -> bool {
        match self.memo.get() {
            Some(d) => d.synth,
            None => Digest::holds_synth(self.stmts()),
        }
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.stmts == other.stmts
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block").field("stmts", &self.stmts).finish()
    }
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Stable node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The statement itself.
    pub kind: StmtKind,
}

impl Stmt {
    /// Creates a synthesized statement (placeholder id, default span).
    pub fn synth(kind: StmtKind) -> Stmt {
        Stmt {
            id: NodeId::SYNTH,
            span: Span::default(),
            kind,
        }
    }
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local declaration.
    Decl(VarDecl),
    /// Expression statement.
    Expr(Expr),
    /// `if (c) { … } [else { … }]`
    If(Expr, Block, Option<Block>),
    /// `while (c) { … }`
    While(Expr, Block),
    /// `do { … } while (c);`
    DoWhile(Block, Expr),
    /// `for (init; cond; step) { … }` — any part may be absent.
    For(Option<Box<Stmt>>, Option<Expr>, Option<Expr>, Block),
    /// `return [e];`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Nested block.
    Block(Block),
    /// `#pragma HLS …` in statement position.
    Pragma(Pragma),
    /// `label:`
    Label(String),
    /// `goto label;`
    Goto(String),
    /// `;`
    Empty,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type. Array parameters (`float in[]`) keep their array type.
    pub ty: Type,
    /// C++ reference parameter (`hls::stream<T> &s`).
    pub by_ref: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Stable node id.
    pub id: NodeId,
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body (`None` for a prototype).
    pub body: Option<Block>,
    /// `static` linkage.
    pub is_static: bool,
}

/// A struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// C++ reference member (`hls::stream<unsigned> &in`).
    pub by_ref: bool,
}

/// An explicit constructor (the struct-and-union repair inserts one).
#[derive(Debug, Clone, PartialEq)]
pub struct Ctor {
    /// Parameters.
    pub params: Vec<Param>,
    /// Member-initializer list `name(expr)`.
    pub inits: Vec<(String, Expr)>,
    /// Body.
    pub body: Block,
}

/// A `struct` or `union` definition, optionally with C++-lite methods.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Stable node id.
    pub id: NodeId,
    /// Type name.
    pub name: String,
    /// `union` rather than `struct`.
    pub is_union: bool,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
    /// Methods.
    pub methods: Vec<Function>,
    /// Explicit constructor, if declared.
    pub ctor: Option<Ctor>,
}

impl StructDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&Function> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Top-level items.
///
/// Functions and structs are shared copy-on-write: cloning a [`Program`]
/// copies only the item list, and an edit copies an item the first time it
/// writes to it, through [`Program::function_mut`] /
/// [`Program::struct_def_mut`] (or the mutable walks of [`visit`]). Inside
/// an item the blocks are shared too (see [`Block`]), so a chained repair
/// edit copies only the item it rewrites and, inside it, the blocks on the
/// path to what it rewrites.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Function definition or prototype.
    Function(Arc<Function>),
    /// Struct/union definition.
    Struct(Arc<StructDef>),
    /// Global variable.
    Global(VarDecl),
    /// `typedef T Name;`
    Typedef(String, Type),
    /// `#include …` (recorded verbatim, semantically inert).
    Include(String),
    /// `#define NAME <int>` constant (only integer macros are modeled).
    Define(String, i128),
    /// File-scope pragma (e.g. `top` design configuration).
    Pragma(Pragma),
}

/// Design-level configuration: the paper's "top function" error class is
/// about this metadata (top name, clock, device) being wrong or missing.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignConfig {
    /// Configured top-function name, if any.
    pub top: Option<String>,
    /// Target clock in MHz.
    pub clock_mhz: f64,
    /// Target device name.
    pub device: String,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            top: None,
            clock_mhz: 250.0,
            device: "xcvu9p".to_string(),
        }
    }
}

/// A complete translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Items in source order.
    pub items: Vec<Item>,
    /// Design configuration (from `#pragma HLS top …` or set via API).
    pub config: DesignConfig,
    next_id: u32,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program {
            items: Vec::new(),
            config: DesignConfig::default(),
            next_id: 0,
        }
    }

    /// Creates a program with a starting id counter (used by the parser).
    pub fn with_next_id(items: Vec<Item>, config: DesignConfig, next_id: u32) -> Program {
        Program {
            items,
            config,
            next_id,
        }
    }

    /// Allocates a fresh [`NodeId`] for a synthesized node.
    pub fn fresh_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Iterates over function definitions (not prototypes).
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) if f.body.is_some() => Some(&**f),
            _ => None,
        })
    }

    /// Looks up a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// Mutable lookup of a function definition by name. Unshares only that
    /// function.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.items.iter_mut().find_map(|i| match i {
            Item::Function(f) if f.name == name && f.body.is_some() => Some(Arc::make_mut(f)),
            _ => None,
        })
    }

    /// Looks up a struct/union definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.items.iter().find_map(|i| match i {
            Item::Struct(s) if s.name == name => Some(&**s),
            _ => None,
        })
    }

    /// Mutable lookup of a struct/union definition. Unshares only that
    /// struct.
    pub fn struct_def_mut(&mut self, name: &str) -> Option<&mut StructDef> {
        self.items.iter_mut().find_map(|i| match i {
            Item::Struct(s) if s.name == name => Some(Arc::make_mut(s)),
            _ => None,
        })
    }

    /// Looks up a global variable by name.
    pub fn global(&self, name: &str) -> Option<&VarDecl> {
        self.items.iter().find_map(|i| match i {
            Item::Global(g) if g.name == name => Some(g),
            _ => None,
        })
    }

    /// Looks up an integer `#define` constant.
    pub fn define(&self, name: &str) -> Option<i128> {
        self.items.iter().find_map(|i| match i {
            Item::Define(n, v) if n == name => Some(*v),
            _ => None,
        })
    }

    /// Resolves a typedef name.
    pub fn typedef(&self, name: &str) -> Option<&Type> {
        self.items.iter().find_map(|i| match i {
            Item::Typedef(n, t) if n == name => Some(t),
            _ => None,
        })
    }

    /// The effective top (kernel) function name: the configured one, or the
    /// conventional names `top` / `kernel` when present.
    pub fn top_function_name(&self) -> Option<&str> {
        if let Some(t) = &self.config.top {
            return Some(t);
        }
        ["top", "kernel"]
            .into_iter()
            .find(|candidate| self.function(candidate).is_some())
    }

    /// Assigns fresh ids to every synthesized node (id == [`NodeId::SYNTH`])
    /// anywhere in the tree, in the walk order of [`visit`]. Call after
    /// splicing synthesized subtrees.
    ///
    /// Only the items and blocks that hold a synthesized node are unshared
    /// (read from the blocks' memos where filled). Skipping the others skips
    /// no `SYNTH` id, and the walk order is [`visit`]'s either way, so the
    /// ids assigned do not depend on what was shared.
    pub fn renumber_synthesized(&mut self) {
        let mut next = self.next_id;
        let mut fix = |id: &mut NodeId| {
            if *id == NodeId::SYNTH {
                *id = NodeId(next);
                next += 1;
            }
        };
        for item in &mut self.items {
            if visit::item_holds_synth(item) {
                visit::item_node_ids_mut(item, &mut Block::holds_synth, &mut fix);
            }
        }
        self.next_id = next;
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique() {
        let mut p = Program::new();
        let a = p.fresh_id();
        let b = p.fresh_id();
        assert_ne!(a, b);
    }

    #[test]
    fn renumber_assigns_ids_to_synthesized_nodes() {
        let mut p = Program::new();
        let body = Block::new(vec![Stmt::synth(StmtKind::Return(Some(Expr::int(1))))]);
        p.items.push(Item::Function(Arc::new(Function {
            id: NodeId::SYNTH,
            name: "f".into(),
            ret: Type::int(),
            params: vec![],
            body: Some(body),
            is_static: false,
        })));
        p.renumber_synthesized();
        let f = p.function("f").unwrap();
        assert_ne!(f.id, NodeId::SYNTH);
        let ret = &f.body.as_ref().unwrap().stmts()[0];
        assert_ne!(ret.id, NodeId::SYNTH);
    }

    /// Every id position [`visit::item_node_ids_mut`] renumbers is one the
    /// read-only [`visit::item_node_ids`] check sees: a synthesized node
    /// anywhere gets an id.
    #[test]
    fn renumbering_reaches_a_synthesized_node_in_every_position() {
        let p = crate::parse(
            r#"
            int g = 1 + 2;
            struct S {
                int v;
                S(int a) : v(a * 2) { v = v + 1; }
                int get(int k) { for (int i = 0; i < k; i++) { v += i; } return v; }
            };
            int f(int n) {
                int acc = n > 0 ? n : -n;
                for (int i = 0; i < n; i++) { if (i % 2) { acc -= i; } else { acc++; } }
                while (acc > 9) { acc /= 2; }
                do { acc = S{acc}.get(acc); } while (acc < 0);
                return acc;
            }
        "#,
        )
        .unwrap();
        let synth_left = |p: &mut Program| {
            let mut left = 0;
            for item in &mut p.items {
                visit::item_node_ids_mut(item, &mut |_| true, &mut |id| {
                    left += usize::from(*id == NodeId::SYNTH)
                });
            }
            left
        };
        let mut positions = 0;
        for i in 0..p.items.len() {
            let mut k = 0;
            loop {
                let mut q = p.clone();
                let mut seen = 0;
                visit::item_node_ids_mut(&mut q.items[i], &mut |_| true, &mut |id| {
                    if seen == k {
                        *id = NodeId::SYNTH;
                    }
                    seen += 1;
                });
                if k == seen {
                    break;
                }
                q.renumber_synthesized();
                assert_eq!(synth_left(&mut q), 0, "item {i}, id {k}");
                k += 1;
                positions += 1;
            }
        }
        assert!(positions > 70, "{positions}");
    }

    #[test]
    fn top_function_name_prefers_config() {
        let mut p = Program::new();
        p.items.push(Item::Function(Arc::new(Function {
            id: NodeId::SYNTH,
            name: "kernel".into(),
            ret: Type::Void,
            params: vec![],
            body: Some(Block::default()),
            is_static: false,
        })));
        assert_eq!(p.top_function_name(), Some("kernel"));
        p.config.top = Some("other".into());
        assert_eq!(p.top_function_name(), Some("other"));
    }

    #[test]
    fn pragma_display() {
        let p = Pragma {
            kind: PragmaKind::ArrayPartition {
                var: "A".into(),
                factor: 4,
                dim: 1,
                complete: false,
            },
        };
        assert_eq!(
            p.to_string(),
            "#pragma HLS array_partition variable=A factor=4 dim=1"
        );
        let q = Pragma {
            kind: PragmaKind::Unroll { factor: Some(8) },
        };
        assert_eq!(q.to_string(), "#pragma HLS unroll factor=8");
    }
}
