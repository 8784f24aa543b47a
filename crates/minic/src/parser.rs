//! Recursive-descent parser for the minic dialect.

use crate::ast::*;
use crate::depth::{expr_depth, type_depth, MAX_AST_DEPTH};
use crate::error::ParseError;
use crate::token::{Keyword, Span, Token, TokenKind};
use crate::types::{ArraySize, IntWidth, Type};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Parses a complete translation unit.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered; there is no error recovery
/// (the repair pipeline always works on well-formed inputs).
///
/// # Examples
///
/// ```
/// let p = minic::parse("float kernel(float x) { return x * 2.0; }")?;
/// assert!(p.function("kernel").is_some());
/// # Ok::<(), minic::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = crate::lexer::lex(src)?;
    let program = Parser::new(tokens).parse_program()?;
    let (depth, at) = crate::depth::deepest(&program);
    if depth > MAX_AST_DEPTH {
        return Err(ParseError::too_deep(depth, at));
    }
    Ok(program)
}

/// How deep statements and expressions may nest before [`parse`] returns a
/// [`ParseErrorKind::RecursionLimitExceeded`](crate::ParseErrorKind) error
/// instead of recursing further. One level is a nested statement (a block,
/// or the body of `if`/`for`/`while`/`do`), a nested unary operand (a
/// parenthesized, indexed, call-argument or prefix-operator operand), a
/// right-nested assignment or conditional, a nested initializer list, or a
/// nested `hls::stream` element type.
///
/// A fixed constant, sized for the stack rather than for programs: the
/// paper's subjects all parse within 12 levels, while a debug build needs
/// about 26 KiB of stack per nested parenthesis, so 48 levels stay well
/// inside a default 2 MiB thread stack.
pub const MAX_NESTING: u32 = 48;

/// One postfix suffix, parsed before it is linked onto its operand.
enum Suffix {
    Call(Vec<Expr>),
    Index(Expr),
    /// Field name, and whether it was reached through `->`.
    Member(String, bool),
    /// Postfix `++` or `--`.
    Step(UnOp),
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Names introduced by `struct`, `union` or `typedef`.
    type_names: HashSet<String>,
    /// Names that are struct types specifically (for `S{…}` literals).
    struct_names: HashSet<String>,
    /// Integer macro constants in scope.
    defines: HashMap<String, i128>,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: u32,
    /// How many of those levels add no AST level: parentheses, and
    /// initializers that are a plain expression.
    hollow: u32,
    /// How many binary operators the expression being parsed is a right
    /// operand of: each is an AST level the nesting depth does not count.
    right_operand: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_id: 0,
            type_names: HashSet::new(),
            struct_names: HashSet::new(),
            defines: HashMap::new(),
            depth: 0,
            hollow: 0,
            right_operand: 0,
        }
    }

    /// Runs `parse` one nesting level deeper, failing once the depth would
    /// pass [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(ParseError::recursion_limit(self.span()));
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.span())
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat(&TokenKind::Keyword(kw))
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        self.peek() == &TokenKind::Keyword(kw)
    }

    // ----- program ---------------------------------------------------------

    fn parse_program(mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        let mut config = DesignConfig::default();
        while self.peek() != &TokenKind::Eof {
            match self.peek().clone() {
                TokenKind::IncludeLine(path) => {
                    self.bump();
                    items.push(Item::Include(path));
                }
                TokenKind::DefineLine(text) => {
                    self.bump();
                    let (name, value) = parse_define(&text)
                        .ok_or_else(|| self.err(format!("unsupported #define `{text}`")))?;
                    self.defines.insert(name.clone(), value);
                    items.push(Item::Define(name, value));
                }
                TokenKind::PragmaLine(text) => {
                    self.bump();
                    let pragma = parse_pragma(&text);
                    if let PragmaKind::Top { name } = &pragma.kind {
                        config.top = Some(name.clone());
                    }
                    if let PragmaKind::Other(raw) = &pragma.kind {
                        apply_config_pragma(raw, &mut config);
                    }
                    items.push(Item::Pragma(pragma));
                }
                TokenKind::Keyword(Keyword::Typedef) => {
                    self.bump();
                    let ty = self.parse_type()?;
                    let ty = self.parse_pointer_suffix(ty)?;
                    let name = self.expect_ident()?;
                    self.expect(TokenKind::Semi)?;
                    self.type_names.insert(name.clone());
                    items.push(Item::Typedef(name, ty));
                }
                TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union)
                    if matches!(self.peek_at(2), TokenKind::LBrace) =>
                {
                    let def = self.parse_struct_def()?;
                    items.push(Item::Struct(Arc::new(def)));
                }
                _ => {
                    let item = self.parse_decl_or_function()?;
                    items.push(item);
                }
            }
        }
        Ok(Program::with_next_id(items, config, self.next_id))
    }

    fn parse_struct_def(&mut self) -> Result<StructDef, ParseError> {
        let id = self.fresh();
        let is_union = match self.bump().kind {
            TokenKind::Keyword(Keyword::Union) => true,
            TokenKind::Keyword(Keyword::Struct) => false,
            other => return Err(self.err(format!("expected struct/union, found {other}"))),
        };
        let name = self.expect_ident()?;
        self.type_names.insert(name.clone());
        if !is_union {
            self.struct_names.insert(name.clone());
        }
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut ctor = None;
        while !self.eat(&TokenKind::RBrace) {
            // Constructor: `Name(` …
            if let TokenKind::Ident(n) = self.peek() {
                if *n == name && self.peek_at(1) == &TokenKind::LParen {
                    self.bump();
                    ctor = Some(self.parse_ctor()?);
                    self.eat(&TokenKind::Semi);
                    continue;
                }
            }
            let is_static = self.eat_kw(Keyword::Static);
            let is_const0 = self.eat_kw(Keyword::Const);
            let ty = self.parse_type()?;
            let ty = self.parse_pointer_suffix(ty)?;
            let by_ref = self.eat(&TokenKind::Amp);
            let fname = self.expect_ident()?;
            if self.peek() == &TokenKind::LParen {
                // method
                let mut f = self.parse_function_rest(ty, fname)?;
                f.is_static = is_static;
                methods.push(f);
                self.eat(&TokenKind::Semi);
            } else {
                let ty = self.parse_array_suffix(ty)?;
                // Fields may not have initializers in this subset.
                let _ = is_const0;
                self.expect(TokenKind::Semi)?;
                fields.push(Field {
                    name: fname,
                    ty,
                    by_ref,
                });
            }
        }
        self.expect(TokenKind::Semi)?;
        Ok(StructDef {
            id,
            name,
            is_union,
            fields,
            methods,
            ctor,
        })
    }

    fn parse_ctor(&mut self) -> Result<Ctor, ParseError> {
        let params = self.parse_params()?;
        let mut inits = Vec::new();
        if self.eat(&TokenKind::Colon) {
            loop {
                let field = self.expect_ident()?;
                self.expect(TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                inits.push((field, e));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let body = if self.peek() == &TokenKind::LBrace {
            self.parse_block()?
        } else {
            Block::default()
        };
        Ok(Ctor {
            params,
            inits,
            body,
        })
    }

    fn parse_decl_or_function(&mut self) -> Result<Item, ParseError> {
        let is_static = self.eat_kw(Keyword::Static);
        let is_const = self.eat_kw(Keyword::Const);
        let ty = self.parse_type()?;
        let ty = self.parse_pointer_suffix(ty)?;
        let name = self.expect_ident()?;
        if self.peek() == &TokenKind::LParen {
            let mut f = self.parse_function_rest(ty, name)?;
            f.is_static = is_static;
            self.eat(&TokenKind::Semi);
            Ok(Item::Function(Arc::new(f)))
        } else {
            let ty = self.parse_array_suffix(ty)?;
            let init = if self.eat(&TokenKind::Eq) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            Ok(Item::Global(VarDecl {
                name,
                ty,
                init,
                is_static,
                is_const,
            }))
        }
    }

    fn parse_function_rest(&mut self, ret: Type, name: String) -> Result<Function, ParseError> {
        let id = self.fresh();
        let params = self.parse_params()?;
        let body = if self.peek() == &TokenKind::LBrace {
            Some(self.parse_block()?)
        } else {
            self.expect(TokenKind::Semi)?;
            None
        };
        Ok(Function {
            id,
            name,
            ret,
            params,
            body,
            is_static: false,
        })
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok(params);
        }
        if self.at_kw(Keyword::Void) && self.peek_at(1) == &TokenKind::RParen {
            self.bump();
            self.bump();
            return Ok(params);
        }
        loop {
            self.eat_kw(Keyword::Const);
            let ty = self.parse_type()?;
            let ty = self.parse_pointer_suffix(ty)?;
            let by_ref = self.eat(&TokenKind::Amp);
            let pname = self.expect_ident()?;
            let ty = self.parse_array_suffix(ty)?;
            params.push(Param {
                name: pname,
                ty,
                by_ref,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(params)
    }

    // ----- types ------------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        // `struct S` / `union U`
        if self.eat_kw(Keyword::Struct) {
            let n = self.expect_ident()?;
            return Ok(Type::Struct(n));
        }
        if self.eat_kw(Keyword::Union) {
            let n = self.expect_ident()?;
            return Ok(Type::Union(n));
        }
        if let TokenKind::Ident(n) = self.peek().clone() {
            match n.as_str() {
                "fpga_uint" | "fpga_int" => {
                    self.bump();
                    self.expect(TokenKind::Lt)?;
                    let bits = self.parse_const_u64()? as u16;
                    self.expect(TokenKind::Gt)?;
                    return Ok(Type::FpgaInt {
                        bits,
                        signed: n == "fpga_int",
                    });
                }
                "fpga_float" => {
                    self.bump();
                    self.expect(TokenKind::Lt)?;
                    let exp = self.parse_const_u64()? as u16;
                    self.expect(TokenKind::Comma)?;
                    let mant = self.parse_const_u64()? as u16;
                    self.expect(TokenKind::Gt)?;
                    return Ok(Type::FpgaFloat { exp, mant });
                }
                "hls" => {
                    self.bump();
                    self.expect(TokenKind::ColonColon)?;
                    let what = self.expect_ident()?;
                    if what != "stream" {
                        return Err(self.err(format!("unknown hls:: type `{what}`")));
                    }
                    self.expect(TokenKind::Lt)?;
                    let inner = self.nested(Self::parse_type)?;
                    let inner = self.parse_pointer_suffix(inner)?;
                    self.expect(TokenKind::Gt)?;
                    return Ok(Type::Stream(Box::new(inner)));
                }
                _ if self.type_names.contains(&n) => {
                    self.bump();
                    if self.struct_names.contains(&n) {
                        return Ok(Type::Struct(n));
                    }
                    return Ok(Type::Named(n));
                }
                _ => return Err(self.err(format!("expected type, found identifier `{n}`"))),
            }
        }
        // Plain C base types: combinations of the specifier keywords.
        let mut signedness: Option<bool> = None;
        let mut longs = 0u8;
        let mut short = false;
        let mut base: Option<&'static str> = None;
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Void) => {
                    self.bump();
                    return Ok(Type::Void);
                }
                TokenKind::Keyword(Keyword::Bool) => {
                    self.bump();
                    return Ok(Type::Bool);
                }
                TokenKind::Keyword(Keyword::Signed) => {
                    self.bump();
                    signedness = Some(true);
                }
                TokenKind::Keyword(Keyword::Unsigned) => {
                    self.bump();
                    signedness = Some(false);
                }
                TokenKind::Keyword(Keyword::Short) => {
                    self.bump();
                    short = true;
                }
                TokenKind::Keyword(Keyword::Long) => {
                    self.bump();
                    longs += 1;
                }
                TokenKind::Keyword(Keyword::Char) => {
                    self.bump();
                    base = Some("char");
                    break;
                }
                TokenKind::Keyword(Keyword::Int) => {
                    self.bump();
                    base = Some("int");
                    break;
                }
                TokenKind::Keyword(Keyword::Float) => {
                    self.bump();
                    base = Some("float");
                    break;
                }
                TokenKind::Keyword(Keyword::Double) => {
                    self.bump();
                    base = Some("double");
                    break;
                }
                _ => break,
            }
        }
        match base {
            Some("float") => Ok(Type::Float),
            Some("double") => {
                if longs > 0 {
                    Ok(Type::LongDouble)
                } else {
                    Ok(Type::Double)
                }
            }
            Some("char") => Ok(Type::Int {
                width: IntWidth::W8,
                signed: signedness.unwrap_or(true),
            }),
            Some("int") | None if longs > 0 || short || signedness.is_some() || base.is_some() => {
                let width = if longs > 0 {
                    IntWidth::W64
                } else if short {
                    IntWidth::W16
                } else {
                    IntWidth::W32
                };
                Ok(Type::Int {
                    width,
                    signed: signedness.unwrap_or(true),
                })
            }
            _ => Err(self.err(format!("expected type, found {}", self.peek()))),
        }
    }

    /// Parses the `*`s of a declarator. Like an operator chain, a run of
    /// stars is a loop that nothing bounds, so once it alone is deeper than
    /// [`MAX_AST_DEPTH`] the rest is counted but not linked and the program
    /// is refused.
    fn parse_pointer_suffix(&mut self, mut ty: Type) -> Result<Type, ParseError> {
        let span = self.span();
        let mut stars = 0;
        while self.eat(&TokenKind::Star) {
            if stars < MAX_AST_DEPTH {
                ty = Type::Pointer(Box::new(ty));
            }
            stars += 1;
        }
        if stars >= MAX_AST_DEPTH {
            return Err(self.too_deep(type_depth(&ty) + stars - MAX_AST_DEPTH, span));
        }
        Ok(ty)
    }

    /// The depth error for a chain of `depth` levels rooted one level
    /// below the current nesting depth, less the levels that add none to
    /// the AST, plus the binary operators the chain is a right operand of.
    /// A chain on the left of an operator is refused before the operator
    /// is read, so it reports the depth without that operator's level.
    fn too_deep(&self, depth: usize, span: Span) -> ParseError {
        let context = self.depth - self.hollow + self.right_operand;
        ParseError::too_deep(context as usize + depth, span)
    }

    /// Parses `[N][M]…` after a declarator name, folding into nested arrays
    /// (outermost dimension first).
    fn parse_array_suffix(&mut self, base: Type) -> Result<Type, ParseError> {
        let span = self.span();
        let mut dims = Vec::new();
        while self.eat(&TokenKind::LBracket) {
            if self.eat(&TokenKind::RBracket) {
                dims.push(ArraySize::Unknown);
                continue;
            }
            let size = match self.peek().clone() {
                TokenKind::Int(v, _) => {
                    self.bump();
                    ArraySize::Const(v as u64)
                }
                TokenKind::Ident(n) => {
                    self.bump();
                    if let Some(v) = self.defines.get(&n) {
                        ArraySize::Const(*v as u64)
                    } else {
                        // A runtime variable: a VLA — unknown at compile
                        // time (the HLS-incompatible case), but the CPU
                        // interpreter sizes it at declaration.
                        ArraySize::Runtime(n)
                    }
                }
                other => return Err(self.err(format!("unsupported array size {other}"))),
            };
            self.expect(TokenKind::RBracket)?;
            dims.push(size);
        }
        // The dimensions nest like a chain: refuse a run deeper than the
        // bound before building it.
        if dims.len() >= MAX_AST_DEPTH {
            return Err(self.too_deep(type_depth(&base) + dims.len(), span));
        }
        let mut ty = base;
        for d in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), d);
        }
        Ok(ty)
    }

    fn parse_const_u64(&mut self) -> Result<u64, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(v, _) => {
                self.bump();
                Ok(v as u64)
            }
            TokenKind::Ident(n) => {
                if let Some(v) = self.defines.get(&n).copied() {
                    self.bump();
                    Ok(v as u64)
                } else {
                    Err(self.err(format!("expected constant, found `{n}`")))
                }
            }
            other => Err(self.err(format!("expected constant, found {other}"))),
        }
    }

    // ----- statements -------------------------------------------------------

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(Block::new(stmts))
    }

    fn stmt(&mut self, span: Span, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.fresh(),
            span,
            kind,
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::parse_stmt_at_depth)
    }

    fn parse_stmt_at_depth(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::PragmaLine(text) => {
                self.bump();
                Ok(self.stmt(span, StmtKind::Pragma(parse_pragma(&text))))
            }
            TokenKind::LBrace => {
                let b = self.parse_block()?;
                Ok(self.stmt(span, StmtKind::Block(b)))
            }
            TokenKind::Semi => {
                self.bump();
                Ok(self.stmt(span, StmtKind::Empty))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                let then = self.parse_stmt_as_block()?;
                let els = if self.eat_kw(Keyword::Else) {
                    Some(self.parse_stmt_as_block()?)
                } else {
                    None
                };
                Ok(self.stmt(span, StmtKind::If(cond, then, els)))
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(self.stmt(span, StmtKind::While(cond, body)))
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.parse_stmt_as_block()?;
                if !self.eat_kw(Keyword::While) {
                    return Err(self.err("expected `while` after do-body"));
                }
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt(span, StmtKind::DoWhile(body, cond)))
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if self.eat(&TokenKind::Semi) {
                    None
                } else {
                    Some(Box::new(self.parse_simple_stmt_semi()?))
                };
                let cond = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if self.peek() == &TokenKind::RParen {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(self.stmt(span, StmtKind::For(init, cond, step, body)))
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt(span, StmtKind::Return(value)))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt(span, StmtKind::Break))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt(span, StmtKind::Continue))
            }
            TokenKind::Keyword(Keyword::Goto) => {
                self.bump();
                let label = self.expect_ident()?;
                self.expect(TokenKind::Semi)?;
                Ok(self.stmt(span, StmtKind::Goto(label)))
            }
            // Label: `ident:` not followed by `::`.
            TokenKind::Ident(name)
                if self.peek_at(1) == &TokenKind::Colon && self.peek_at(2) != &TokenKind::Colon =>
            {
                self.bump();
                self.bump();
                Ok(self.stmt(span, StmtKind::Label(name)))
            }
            _ => self.parse_simple_stmt_semi(),
        }
    }

    /// Declaration or expression statement, consuming the trailing `;`.
    fn parse_simple_stmt_semi(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let is_static = self.at_kw(Keyword::Static);
        let is_const = self.at_kw(Keyword::Const)
            || (is_static && self.peek_at(1) == &TokenKind::Keyword(Keyword::Const));
        if is_static || is_const || self.starts_declaration() {
            if is_static {
                self.bump();
            }
            if is_const {
                self.eat_kw(Keyword::Const);
            }
            let ty = self.parse_type()?;
            let ty = self.parse_pointer_suffix(ty)?;
            let name = self.expect_ident()?;
            let ty = self.parse_array_suffix(ty)?;
            let init = if self.eat(&TokenKind::Eq) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            // Comma-separated declarators are split into sibling statements by
            // desugaring to a block.
            if self.peek() == &TokenKind::Comma {
                let mut decls = vec![VarDecl {
                    name,
                    ty: ty.clone(),
                    init,
                    is_static,
                    is_const,
                }];
                while self.eat(&TokenKind::Comma) {
                    let n = self.expect_ident()?;
                    let t2 = self.parse_array_suffix(ty.clone())?;
                    let init2 = if self.eat(&TokenKind::Eq) {
                        Some(self.parse_initializer()?)
                    } else {
                        None
                    };
                    decls.push(VarDecl {
                        name: n,
                        ty: t2,
                        init: init2,
                        is_static,
                        is_const,
                    });
                }
                self.expect(TokenKind::Semi)?;
                let stmts = decls
                    .into_iter()
                    .map(|d| {
                        let id = self.fresh();
                        Stmt {
                            id,
                            span,
                            kind: StmtKind::Decl(d),
                        }
                    })
                    .collect();
                return Ok(self.stmt(span, StmtKind::Block(Block::new(stmts))));
            }
            self.expect(TokenKind::Semi)?;
            Ok(self.stmt(
                span,
                StmtKind::Decl(VarDecl {
                    name,
                    ty,
                    init,
                    is_static,
                    is_const,
                }),
            ))
        } else {
            let e = self.parse_expr()?;
            self.expect(TokenKind::Semi)?;
            Ok(self.stmt(span, StmtKind::Expr(e)))
        }
    }

    /// True when the upcoming tokens begin a declaration rather than an
    /// expression. A known type name followed by `*`/identifier/`&` starts a
    /// declaration; a keyword type always does.
    fn starts_declaration(&self) -> bool {
        match self.peek() {
            TokenKind::Keyword(
                Keyword::Void
                | Keyword::Bool
                | Keyword::Char
                | Keyword::Short
                | Keyword::Int
                | Keyword::Long
                | Keyword::Float
                | Keyword::Double
                | Keyword::Signed
                | Keyword::Unsigned
                | Keyword::Struct
                | Keyword::Union,
            ) => true,
            TokenKind::Ident(n) => {
                let is_type = matches!(n.as_str(), "fpga_uint" | "fpga_int" | "fpga_float")
                    || n == "hls"
                    || self.type_names.contains(n);
                if !is_type {
                    return false;
                }
                // `hls::stream<T> v` or `Node* p` or `Node p` or `fpga_uint<7> v`
                matches!(
                    self.peek_at(1),
                    TokenKind::Ident(_)
                        | TokenKind::Star
                        | TokenKind::Lt
                        | TokenKind::ColonColon
                        | TokenKind::Amp
                )
            }
            _ => false,
        }
    }

    fn parse_stmt_as_block(&mut self) -> Result<Block, ParseError> {
        if self.peek() == &TokenKind::LBrace {
            self.parse_block()
        } else {
            let s = self.parse_stmt()?;
            Ok(Block::new(vec![s]))
        }
    }

    fn parse_initializer(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_initializer_at_depth)
    }

    fn parse_initializer_at_depth(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == &TokenKind::LBrace {
            let span = self.span();
            self.bump();
            let mut elems = Vec::new();
            if !self.eat(&TokenKind::RBrace) {
                loop {
                    elems.push(self.parse_initializer()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    if self.peek() == &TokenKind::RBrace {
                        break;
                    }
                }
                self.expect(TokenKind::RBrace)?;
            }
            Ok(Expr {
                id: self.fresh(),
                span,
                kind: ExprKind::InitList(elems),
            })
        } else {
            self.hollow += 1;
            let e = self.parse_expr();
            self.hollow -= 1;
            e
        }
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self, span: Span, kind: ExprKind) -> Expr {
        Expr {
            id: self.fresh(),
            span,
            kind,
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        let lhs = self.parse_ternary()?;
        let op: Option<AssignOp> = match self.peek() {
            TokenKind::Eq => Some(None),
            TokenKind::PlusEq => Some(Some(BinOp::Add)),
            TokenKind::MinusEq => Some(Some(BinOp::Sub)),
            TokenKind::StarEq => Some(Some(BinOp::Mul)),
            TokenKind::SlashEq => Some(Some(BinOp::Div)),
            TokenKind::PercentEq => Some(Some(BinOp::Rem)),
            TokenKind::AmpEq => Some(Some(BinOp::BitAnd)),
            TokenKind::PipeEq => Some(Some(BinOp::BitOr)),
            TokenKind::CaretEq => Some(Some(BinOp::BitXor)),
            TokenKind::ShlEq => Some(Some(BinOp::Shl)),
            TokenKind::ShrEq => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Self::parse_assign)?;
            Ok(self.expr(span, ExprKind::Assign(op, Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        let cond = self.parse_bin(0)?;
        if self.eat(&TokenKind::Question) {
            let t = self.parse_expr()?;
            self.expect(TokenKind::Colon)?;
            let e = self.nested(Self::parse_ternary)?;
            Ok(self.expr(
                span,
                ExprKind::Ternary(Box::new(cond), Box::new(t), Box::new(e)),
            ))
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing binary expression parser.
    ///
    /// Operators of one precedence chain in a loop into a left-nested tree,
    /// so nothing in the parser bounds a chain's depth. Once a chain alone
    /// is deeper than [`MAX_AST_DEPTH`], the program is refused whatever
    /// its context: the rest of the chain is parsed and measured but not
    /// linked, and the error reports the depth of the whole chain. So no
    /// tree much deeper than the bound is built; dropping one recurses once
    /// per level.
    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let span = self.span();
        let mut lhs = self.parse_unary()?;
        let mut links = 0;
        // The chain's depth, once it passes the bound.
        let mut refused: Option<usize> = None;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::PipePipe => (BinOp::Or, 1),
                TokenKind::AmpAmp => (BinOp::And, 2),
                TokenKind::Pipe => (BinOp::BitOr, 3),
                TokenKind::Caret => (BinOp::BitXor, 4),
                TokenKind::Amp => (BinOp::BitAnd, 5),
                TokenKind::EqEq => (BinOp::Eq, 6),
                TokenKind::BangEq => (BinOp::Ne, 6),
                TokenKind::Lt => (BinOp::Lt, 7),
                TokenKind::Gt => (BinOp::Gt, 7),
                TokenKind::Le => (BinOp::Le, 7),
                TokenKind::Ge => (BinOp::Ge, 7),
                TokenKind::Shl => (BinOp::Shl, 8),
                TokenKind::Shr => (BinOp::Shr, 8),
                TokenKind::Plus => (BinOp::Add, 9),
                TokenKind::Minus => (BinOp::Sub, 9),
                TokenKind::Star => (BinOp::Mul, 10),
                TokenKind::Slash => (BinOp::Div, 10),
                TokenKind::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            self.right_operand += 1;
            let rhs = self.parse_bin(prec + 1);
            self.right_operand -= 1;
            let rhs = rhs?;
            match &mut refused {
                Some(depth) => *depth = 1 + (*depth).max(expr_depth(&rhs)),
                None => {
                    lhs = self.expr(span, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)));
                    links += 1;
                    if links >= MAX_AST_DEPTH {
                        refused = Some(expr_depth(&lhs));
                    }
                }
            }
        }
        match refused {
            Some(depth) => Err(self.too_deep(depth, span)),
            None => Ok(lhs),
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_unary_at_depth)
    }

    fn parse_unary_at_depth(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::Neg, Box::new(e))))
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::Not, Box::new(e))))
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::BitNot, Box::new(e))))
            }
            TokenKind::Star => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::Deref, Box::new(e))))
            }
            TokenKind::Amp => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::AddrOf, Box::new(e))))
            }
            TokenKind::PlusPlus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::Inc(true), Box::new(e))))
            }
            TokenKind::MinusMinus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Unary(UnOp::Dec(true), Box::new(e))))
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let ty = self.parse_type()?;
                let ty = self.parse_pointer_suffix(ty)?;
                self.expect(TokenKind::RParen)?;
                Ok(self.expr(span, ExprKind::SizeOf(ty)))
            }
            TokenKind::LParen if self.cast_ahead() => {
                self.bump();
                let ty = self.parse_type()?;
                let ty = self.parse_pointer_suffix(ty)?;
                self.expect(TokenKind::RParen)?;
                let e = self.parse_unary()?;
                Ok(self.expr(span, ExprKind::Cast(ty, Box::new(e))))
            }
            _ => self.parse_postfix(),
        }
    }

    /// Lookahead: does `(` begin a cast `(T)` / `(T*)`?
    fn cast_ahead(&self) -> bool {
        debug_assert_eq!(self.peek(), &TokenKind::LParen);
        let next = self.peek_at(1);
        let is_type_start = match next {
            TokenKind::Keyword(
                Keyword::Void
                | Keyword::Bool
                | Keyword::Char
                | Keyword::Short
                | Keyword::Int
                | Keyword::Long
                | Keyword::Float
                | Keyword::Double
                | Keyword::Signed
                | Keyword::Unsigned
                | Keyword::Struct
                | Keyword::Union,
            ) => true,
            TokenKind::Ident(n) => {
                matches!(n.as_str(), "fpga_uint" | "fpga_int" | "fpga_float")
                    || n == "hls"
                    || self.type_names.contains(n)
            }
            _ => false,
        };
        if !is_type_start {
            return false;
        }
        // Distinguish `(T)x` from `(ident + 1)`: for bare identifiers we need
        // the token after the type to be `)` or `*`. Scan forward minimally.
        let mut i = 2;
        // `(struct Node*)` / `(union U*)`: skip the tag name too.
        if matches!(
            self.peek_at(1),
            TokenKind::Keyword(Keyword::Struct | Keyword::Union)
        ) {
            if !matches!(self.peek_at(2), TokenKind::Ident(_)) {
                return false;
            }
            i = 3;
        }
        // Skip over template args `<...>`.
        if self.peek_at(i) == &TokenKind::Lt {
            let mut depth = 1;
            i += 1;
            while depth > 0 {
                match self.peek_at(i) {
                    TokenKind::Lt => depth += 1,
                    TokenKind::Gt => depth -= 1,
                    TokenKind::Eof => return false,
                    _ => {}
                }
                i += 1;
            }
        }
        // Skip over `::stream<...>`.
        while self.peek_at(i) == &TokenKind::ColonColon {
            i += 2;
            if self.peek_at(i) == &TokenKind::Lt {
                let mut depth = 1;
                i += 1;
                while depth > 0 {
                    match self.peek_at(i) {
                        TokenKind::Lt => depth += 1,
                        TokenKind::Gt => depth -= 1,
                        TokenKind::Eof => return false,
                        _ => {}
                    }
                    i += 1;
                }
            }
        }
        // Multi-word C types (`unsigned int`, `long long`, `long double`).
        while matches!(
            self.peek_at(i),
            TokenKind::Keyword(
                Keyword::Int
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Long
                    | Keyword::Double
                    | Keyword::Float
            )
        ) {
            i += 1;
        }
        while self.peek_at(i) == &TokenKind::Star {
            i += 1;
        }
        self.peek_at(i) == &TokenKind::RParen
    }

    /// Parses a primary expression and its postfix chain (calls, indexing,
    /// member access, `++`/`--`). Like an operator chain, the suffixes link
    /// in a loop that nothing bounds, so once a chain is `MAX_AST_DEPTH`
    /// links long the rest is parsed and measured but not linked, and the
    /// program is refused with the depth of the whole chain.
    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        let mut e = self.parse_primary()?;
        let mut links = 0;
        // The chain's depth, and whether its last link is a member access
        // (the only callable link), once it reaches the bound.
        let mut refused: Option<(usize, bool)> = None;
        loop {
            let suffix = match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    Suffix::Call(self.parse_args()?)
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(TokenKind::RBracket)?;
                    Suffix::Index(idx)
                }
                TokenKind::Dot | TokenKind::Arrow => {
                    let arrow = self.bump().kind == TokenKind::Arrow;
                    Suffix::Member(self.expect_ident()?, arrow)
                }
                TokenKind::PlusPlus => {
                    self.bump();
                    Suffix::Step(UnOp::Inc(false))
                }
                TokenKind::MinusMinus => {
                    self.bump();
                    Suffix::Step(UnOp::Dec(false))
                }
                _ => break,
            };
            let Some((depth, callable)) = &mut refused else {
                e = self.link_postfix(e, suffix, span)?;
                links += 1;
                if links >= MAX_AST_DEPTH {
                    let callable = matches!(e.kind, ExprKind::Member(..));
                    refused = Some((expr_depth(&e), callable));
                }
                continue;
            };
            // A method call replaces the member access it calls.
            *depth = match &suffix {
                Suffix::Call(_) if !*callable => return Err(self.err("unsupported call target")),
                Suffix::Call(args) => args
                    .iter()
                    .map(|a| 1 + expr_depth(a))
                    .fold(*depth, usize::max),
                Suffix::Index(idx) => 1 + (*depth).max(expr_depth(idx)),
                Suffix::Member(..) | Suffix::Step(_) => 1 + *depth,
            };
            *callable = matches!(suffix, Suffix::Member(..));
        }
        match refused {
            // The chain's root is the operand one level below this nesting
            // depth.
            Some((depth, _)) => Err(self.too_deep(depth - 1, span)),
            None => Ok(e),
        }
    }

    /// Links one postfix `suffix` onto `e`.
    fn link_postfix(&mut self, e: Expr, suffix: Suffix, span: Span) -> Result<Expr, ParseError> {
        let kind = match suffix {
            // Only identifiers and members are callable in the subset.
            Suffix::Call(args) => match e.kind {
                ExprKind::Ident(name) => ExprKind::Call(name, args),
                ExprKind::Member(recv, name, _arrow) => ExprKind::MethodCall(recv, name, args),
                _ => return Err(self.err("unsupported call target")),
            },
            Suffix::Index(idx) => ExprKind::Index(Box::new(e), Box::new(idx)),
            Suffix::Member(field, arrow) => ExprKind::Member(Box::new(e), field, arrow),
            Suffix::Step(op) => ExprKind::Unary(op, Box::new(e)),
        };
        Ok(self.expr(span, kind))
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.parse_expr()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Int(v, u) => {
                self.bump();
                Ok(self.expr(span, ExprKind::IntLit(v, u)))
            }
            TokenKind::Float(v, ld) => {
                self.bump();
                Ok(self.expr(span, ExprKind::FloatLit(v, ld)))
            }
            TokenKind::Char(c) => {
                self.bump();
                Ok(self.expr(span, ExprKind::CharLit(c)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(self.expr(span, ExprKind::StrLit(s)))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(self.expr(span, ExprKind::BoolLit(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(self.expr(span, ExprKind::BoolLit(false)))
            }
            TokenKind::Ident(name) => {
                self.bump();
                // `S{a, b}` aggregate when S is a known struct type.
                if self.peek() == &TokenKind::LBrace && self.struct_names.contains(&name) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RBrace) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RBrace)?;
                    }
                    return Ok(self.expr(span, ExprKind::StructLit(name, args)));
                }
                Ok(self.expr(span, ExprKind::Ident(name)))
            }
            TokenKind::LParen => {
                self.bump();
                self.hollow += 1;
                let e = self.parse_expr();
                self.hollow -= 1;
                let e = e?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

/// Parses `NAME 123` from a `#define` line. Only integer macros are modeled.
fn parse_define(text: &str) -> Option<(String, i128)> {
    let mut parts = text.split_whitespace();
    let name = parts.next()?.to_string();
    let value: i128 = parts.next()?.parse().ok()?;
    Some((name, value))
}

/// Parses the text after `#pragma` into a [`Pragma`].
///
/// Unknown directives are preserved as [`PragmaKind::Other`].
pub fn parse_pragma(text: &str) -> Pragma {
    let raw = text.trim();
    let body = raw
        .strip_prefix("HLS")
        .or_else(|| raw.strip_prefix("hls"))
        .unwrap_or(raw)
        .trim();
    let mut words = body.split_whitespace();
    let head = words.next().unwrap_or("").to_ascii_lowercase();
    let kv: HashMap<String, String> = body
        .split_whitespace()
        .skip(1)
        .filter_map(|w| {
            let mut it = w.splitn(2, '=');
            let k = it.next()?.to_ascii_lowercase();
            let v = it.next().unwrap_or("").to_string();
            Some((k, v))
        })
        .collect();
    let flags: HashSet<String> = body
        .split_whitespace()
        .skip(1)
        .filter(|w| !w.contains('='))
        .map(|w| w.to_ascii_lowercase())
        .collect();
    let kind = match head.as_str() {
        "pipeline" => PragmaKind::Pipeline {
            ii: kv.get("ii").and_then(|v| v.parse().ok()),
        },
        "unroll" => PragmaKind::Unroll {
            factor: kv.get("factor").and_then(|v| v.parse().ok()),
        },
        "dataflow" => PragmaKind::Dataflow,
        "array_partition" => PragmaKind::ArrayPartition {
            var: kv.get("variable").cloned().unwrap_or_default(),
            factor: kv.get("factor").and_then(|v| v.parse().ok()).unwrap_or(0),
            dim: kv.get("dim").and_then(|v| v.parse().ok()).unwrap_or(1),
            complete: flags.contains("complete"),
        },
        "interface" => PragmaKind::Interface {
            mode: kv.get("mode").cloned().unwrap_or_default(),
            port: kv.get("port").cloned().unwrap_or_default(),
        },
        "top" => PragmaKind::Top {
            name: kv.get("name").cloned().unwrap_or_default(),
        },
        "inline" => PragmaKind::Inline,
        "loop_tripcount" => PragmaKind::LoopTripcount {
            min: kv.get("min").and_then(|v| v.parse().ok()).unwrap_or(0),
            max: kv.get("max").and_then(|v| v.parse().ok()).unwrap_or(0),
        },
        _ => PragmaKind::Other(body.to_string()),
    };
    Pragma { kind }
}

/// Applies design-configuration pragmas (`config clock=…`, `config device=…`).
fn apply_config_pragma(raw: &str, config: &mut DesignConfig) {
    if let Some(rest) = raw.strip_prefix("config") {
        for w in rest.split_whitespace() {
            if let Some(v) = w.strip_prefix("clock=") {
                if let Ok(mhz) = v.parse::<f64>() {
                    config.clock_mhz = mhz;
                }
            }
            if let Some(v) = w.strip_prefix("device=") {
                config.device = v.to_string();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;
    use crate::ParseErrorKind;

    /// Parses `src` and expects the nesting limit to stop it. Runs on the
    /// default-size test thread, so an unguarded recursion would overflow.
    fn assert_nesting_limit(src: &str) {
        let err = parse(src).unwrap_err();
        assert_eq!(err.kind(), ParseErrorKind::RecursionLimitExceeded, "{err}");
        assert!(err.message().contains("nesting"), "{err}");
    }

    #[test]
    fn ten_thousand_nested_parentheses_hit_the_nesting_limit() {
        let n = 10_000;
        assert_nesting_limit(&format!(
            "int kernel(int x) {{ return {}x{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ));
    }

    #[test]
    fn ten_thousand_nested_blocks_hit_the_nesting_limit() {
        let n = 10_000;
        assert_nesting_limit(&format!(
            "void kernel() {{ {} {} }}",
            "{".repeat(n),
            "}".repeat(n)
        ));
    }

    #[test]
    fn other_deep_nesting_hits_the_limit() {
        let n = 10_000;
        for src in [
            format!("int kernel(int x) {{ return {}x; }}", "-".repeat(n)),
            format!("int kernel(int x) {{ return {}x; }}", "x = ".repeat(n)),
            format!("int kernel(int x) {{ return {}x; }}", "x ? x : ".repeat(n)),
            format!(
                "int kernel(int x) {{ return {}x{}; }}",
                "x[".repeat(n),
                "]".repeat(n)
            ),
            format!("void kernel(int x) {{ {} x = 1; }}", "if (x) ".repeat(n)),
            format!(
                "void kernel({}int{} s) {{ }}",
                "hls::stream<".repeat(n),
                " >".repeat(n)
            ),
            format!(
                "void kernel() {{ int a[1] = {}0{}; }}",
                "{".repeat(n),
                "}".repeat(n)
            ),
        ] {
            assert_nesting_limit(&src);
        }
    }

    #[test]
    fn a_long_binary_chain_exceeds_the_ast_depth_bound() {
        // Left-nested operators parse in a loop, so only the finished AST
        // shows their depth; 500 terms would overflow a 2 MiB debug
        // thread in the passes after parsing.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let sum = |terms: usize| {
                    format!("int k(int x) {{ return {}x; }}", "x + ".repeat(terms - 1))
                };
                let err = parse(&sum(500)).unwrap_err();
                assert_eq!(err.kind(), ParseErrorKind::RecursionLimitExceeded, "{err}");
                assert!(err.message().contains("AST depth 501"), "{err}");
                // `return` and the innermost operand are one level each.
                let p = parse(&sum(crate::MAX_AST_DEPTH - 1)).unwrap();
                assert_eq!(crate::ast_depth(&p), crate::MAX_AST_DEPTH);
                assert!(parse(&sum(crate::MAX_AST_DEPTH)).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn a_hundred_thousand_term_chain_is_refused_on_a_small_stack() {
        // The chain is refused before its tree is built: dropping a
        // 100 000-level tree would overflow this stack in a debug build.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let terms = 100_000;
                let chain = format!("{}x", "x + ".repeat(terms - 1));
                let src = format!("int k(int x) {{\n    int y = 0;\n    return {chain};\n}}");
                let err = parse(&src).unwrap_err();
                assert_eq!(err.kind(), ParseErrorKind::RecursionLimitExceeded, "{err}");
                assert!(err.message().contains("AST depth 100001"), "{err}");
                assert_eq!(err.span().line, 3, "{err}");
                // Parentheses, initializers and operands deeper than a
                // leaf count as they do in the tree.
                let src = format!("int g = ((x * x) + {chain});");
                let err = parse(&src).unwrap_err();
                assert!(err.message().contains("AST depth 100002"), "{err}");
                assert_eq!(err.span().line, 1, "{err}");
                let src = format!("void k(int x) {{ int a[2] = {{1, -({chain})}}; }}");
                let err = parse(&src).unwrap_err();
                // decl, list, `-`, then the chain
                assert!(err.message().contains("AST depth 100003"), "{err}");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn a_hundred_thousand_link_postfix_or_type_chain_is_refused_on_a_small_stack() {
        // Postfix suffixes, stars and array dimensions also chain in loops;
        // each is refused before a tree this deep is built.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let n = 100_000;
                for (src, depth, line) in [
                    // `return`, then the chain over the innermost `x`
                    (
                        format!("int k(int x) {{\n    return x{};\n}}", "[0]".repeat(n)),
                        n + 2,
                        2,
                    ),
                    (
                        format!("int k(int x) {{ return x{}; }}", ".a".repeat(n)),
                        n + 2,
                        1,
                    ),
                    (
                        format!("int k(int x) {{ return -(x{}++); }}", "[0]".repeat(n)),
                        n + 4,
                        1,
                    ),
                    // the type's `int` is one level and each star another
                    (format!("int {}g;", "*".repeat(n)), n + 1, 1),
                    (
                        format!("void k() {{\n\n    int {}g;\n}}", "*".repeat(n)),
                        n + 2,
                        3,
                    ),
                    (
                        format!("int k() {{ return sizeof(int {}); }}", "*".repeat(n)),
                        n + 3,
                        1,
                    ),
                    (format!("int g{};", "[1]".repeat(n)), n + 1, 1),
                ] {
                    let err = parse(&src).unwrap_err();
                    assert_eq!(err.kind(), ParseErrorKind::RecursionLimitExceeded, "{err}");
                    assert!(
                        err.message().contains(&format!("AST depth {depth} ")),
                        "{err}"
                    );
                    assert_eq!(err.span().line, line, "{err}");
                }
                // A method call on a refused chain is measured; a call on
                // anything but a member is still refused as a call.
                let src = format!("int k(int x) {{ return x{}.f(-x); }}", "[0]".repeat(n));
                let err = parse(&src).unwrap_err();
                assert!(
                    err.message().contains(&format!("AST depth {} ", n + 3)),
                    "{err}"
                );
                let src = format!("int k(int x) {{ return x{}(x); }}", "[0]".repeat(n));
                let err = parse(&src).unwrap_err();
                assert!(err.message().contains("unsupported call target"), "{err}");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn postfix_and_type_chains_up_to_the_bound_parse() {
        // `return` and the innermost operand are one level each, as are
        // the scalar base type and each pointer.
        let index = |n: usize| format!("int k(int x) {{ return x{}; }}", "[0]".repeat(n));
        let p = parse(&index(crate::MAX_AST_DEPTH - 2)).unwrap();
        assert_eq!(crate::ast_depth(&p), crate::MAX_AST_DEPTH);
        assert!(parse(&index(crate::MAX_AST_DEPTH - 1)).is_err());
        let stars = |n: usize| format!("int {}g;", "*".repeat(n));
        let p = parse(&stars(crate::MAX_AST_DEPTH - 1)).unwrap();
        assert_eq!(crate::ast_depth(&p), crate::MAX_AST_DEPTH);
        assert!(parse(&stars(crate::MAX_AST_DEPTH)).is_err());
    }

    #[test]
    fn a_chain_right_of_an_operator_counts_the_operator() {
        // Up to 63 links the post-parse check measures the tree; from 64
        // the chain is refused while it is parsed. Both count the `+` and,
        // in a call argument, the call.
        for k in 62..=65 {
            let suffixes = "[0]".repeat(k);
            let terms = "x + ".repeat(k);
            for (src, depth) in [
                (
                    format!("int k(int x, int y) {{ return y + x{suffixes}; }}"),
                    k + 3,
                ),
                (
                    format!("int k(int x, int y) {{ return y + f(x{suffixes}); }}"),
                    k + 4,
                ),
                (
                    format!("int k(int x, int y) {{ return y + f({terms}x); }}"),
                    k + 4,
                ),
            ] {
                let err = parse(&src).unwrap_err();
                assert_eq!(err.kind(), ParseErrorKind::RecursionLimitExceeded, "{err}");
                assert!(
                    err.message().contains(&format!("AST depth {depth} ")),
                    "{k}: {err}"
                );
            }
        }
    }

    #[test]
    fn the_depth_error_reports_the_line_of_the_deepest_node() {
        // 50 operators under 20 negations: neither the nesting bound nor
        // the chain bound trips, the tree is too deep.
        let inner = format!("{}x", "x + ".repeat(50));
        let src = format!(
            "int k(int x) {{\n    int y = 0;\n\n    return {}{inner}{};\n}}",
            "-(".repeat(20),
            ")".repeat(20)
        );
        let err = parse(&src).unwrap_err();
        assert!(err.message().contains("AST depth 72"), "{err}");
        assert_eq!(err.span().line, 4, "{err}");
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // The `return` statement is one level and the innermost operand
        // another; every parenthesis adds one.
        let parens = MAX_NESTING as usize - 2;
        let src = format!(
            "int kernel(int x) {{ return {}x{}; }}",
            "(".repeat(parens),
            ")".repeat(parens)
        );
        assert!(parse(&src).is_ok());
        let src = format!(
            "int kernel(int x) {{ return {}x{}; }}",
            "(".repeat(parens + 1),
            ")".repeat(parens + 1)
        );
        assert_nesting_limit(&src);
    }

    #[test]
    fn parses_function_with_loop() {
        let p = parse(
            "int sum(int n) { int acc = 0; for (int i = 0; i < n; i++) { acc += i; } return acc; }",
        )
        .unwrap();
        let f = p.function("sum").unwrap();
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.ret, Type::int());
    }

    #[test]
    fn parses_struct_with_methods_and_ctor() {
        let p = parse(
            r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
                unsigned doRead() { return in.read(); }
                void do1() { out.write(doRead()); }
            };
        "#,
        )
        .unwrap();
        let s = p.struct_def("If2").unwrap();
        assert_eq!(s.fields.len(), 2);
        assert!(s.fields[0].by_ref);
        assert_eq!(s.methods.len(), 2);
        assert!(s.ctor.is_some());
        assert_eq!(s.ctor.as_ref().unwrap().inits.len(), 2);
    }

    #[test]
    fn parses_pointers_malloc_and_recursion() {
        let p = parse(
            r#"
            struct Node { int val; struct Node* left; struct Node* right; };
            void init(struct Node **root) { *root = (struct Node*)malloc(sizeof(struct Node)); }
            void traverse(struct Node *curr) {
                if (curr == 0) { return; }
                traverse(curr->left);
                traverse(curr->right);
            }
        "#,
        )
        .unwrap();
        assert!(p.function("traverse").is_some());
        assert!(p.struct_def("Node").is_some());
    }

    #[test]
    fn parses_hls_types() {
        let p = parse(
            r#"
            fpga_uint<7> narrow(fpga_float<8,71> x) { return (fpga_uint<7>)x; }
        "#,
        )
        .unwrap();
        let f = p.function("narrow").unwrap();
        assert_eq!(
            f.ret,
            Type::FpgaInt {
                bits: 7,
                signed: false
            }
        );
        assert_eq!(f.params[0].ty, Type::FpgaFloat { exp: 8, mant: 71 });
    }

    #[test]
    fn parses_pragmas_in_statements() {
        let p = parse(
            r#"
            void top(int a[16]) {
            #pragma HLS dataflow
                for (int i = 0; i < 16; i++) {
            #pragma HLS unroll factor=4
                    a[i] = a[i] + 1;
                }
            }
        "#,
        )
        .unwrap();
        let f = p.function("top").unwrap();
        let body = f.body.as_ref().unwrap();
        assert!(matches!(
            body.stmts()[0].kind,
            StmtKind::Pragma(Pragma {
                kind: PragmaKind::Dataflow
            })
        ));
    }

    #[test]
    fn parses_top_pragma_into_config() {
        let p = parse("#pragma HLS top name=mytop\nvoid mytop() {}").unwrap();
        assert_eq!(p.config.top.as_deref(), Some("mytop"));
    }

    #[test]
    fn parses_defines_as_array_sizes() {
        let p = parse("#define N 128\nint buf[N];").unwrap();
        let g = p.global("buf").unwrap();
        assert_eq!(g.ty, Type::array(Type::int(), 128));
        assert_eq!(p.define("N"), Some(128));
    }

    #[test]
    fn unknown_size_array_parses_as_unknown() {
        let p = parse("void f(int n) { int a[n]; }").unwrap();
        let f = p.function("f").unwrap();
        match &f.body.as_ref().unwrap().stmts()[0].kind {
            StmtKind::Decl(d) => {
                assert_eq!(
                    d.ty,
                    Type::Array(Box::new(Type::int()), ArraySize::Runtime("n".into()))
                )
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_goto_and_labels() {
        let p = parse(
            r#"
            int f(int x) {
                if (x > 0) { goto done; }
                x = x + 1;
            done:
                return x;
            }
        "#,
        )
        .unwrap();
        let f = p.function("f").unwrap();
        let has_label = f
            .body
            .as_ref()
            .unwrap()
            .stmts()
            .iter()
            .any(|s| matches!(&s.kind, StmtKind::Label(l) if l == "done"));
        assert!(has_label);
    }

    #[test]
    fn parses_struct_literal_and_method_call() {
        let p = parse(
            r#"
            struct If2 { int a; int b; void do1() {} };
            void top() {
                If2{1, 2}.do1();
            }
        "#,
        )
        .unwrap();
        let f = p.function("top").unwrap();
        match &f.body.as_ref().unwrap().stmts()[0].kind {
            StmtKind::Expr(e) => {
                assert!(matches!(e.kind, ExprKind::MethodCall(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_ternary_and_compound_assign() {
        let p = parse("int f(int a) { int b = a > 0 ? a : -a; b <<= 2; return b; }").unwrap();
        assert!(p.function("f").is_some());
    }

    #[test]
    fn parses_casts() {
        let p = parse(
            "float f(int a) { float x = (float)a; long double y = (long double)x; return (float)y; }",
        )
        .unwrap();
        assert!(p.function("f").is_some());
    }

    #[test]
    fn cast_is_not_confused_with_parenthesized_expr() {
        let p = parse("int f(int a) { int b = (a) + 1; return b; }").unwrap();
        assert!(p.function("f").is_some());
    }

    #[test]
    fn parses_typedef() {
        let p =
            parse("typedef unsigned int Node_ptr;\nNode_ptr next(Node_ptr c) { return c + 1; }")
                .unwrap();
        assert_eq!(p.typedef("Node_ptr"), Some(&Type::uint()));
    }

    #[test]
    fn parses_multi_declarator() {
        let p = parse("void f() { int a = 1, b = 2, c; c = a + b; }").unwrap();
        assert!(p.function("f").is_some());
    }

    #[test]
    fn parses_2d_arrays() {
        let p = parse("#define W 4\nfloat img[W][8];").unwrap();
        let g = p.global("img").unwrap();
        assert_eq!(
            g.ty,
            Type::array(Type::array(Type::Float, 8), 4),
            "outer dim first"
        );
    }

    #[test]
    fn parse_pragma_variants() {
        assert_eq!(
            parse_pragma("HLS pipeline II=2").kind,
            PragmaKind::Pipeline { ii: Some(2) }
        );
        assert_eq!(
            parse_pragma("HLS array_partition variable=A factor=4 dim=1").kind,
            PragmaKind::ArrayPartition {
                var: "A".into(),
                factor: 4,
                dim: 1,
                complete: false
            }
        );
        assert_eq!(
            parse_pragma("HLS array_partition variable=A complete").kind,
            PragmaKind::ArrayPartition {
                var: "A".into(),
                factor: 0,
                dim: 1,
                complete: true
            }
        );
        assert_eq!(parse_pragma("HLS dataflow").kind, PragmaKind::Dataflow);
        assert_eq!(
            parse_pragma("HLS loop_tripcount min=1 max=64").kind,
            PragmaKind::LoopTripcount { min: 1, max: 64 }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("int f( {").is_err());
        assert!(parse("@@@").is_err());
        assert!(parse("int x = ;").is_err());
    }

    #[test]
    fn stream_declaration_statement() {
        let p = parse(
            r#"
            void top() {
                hls::stream<unsigned> tmp;
                static hls::stream<unsigned> tmp2;
                tmp.write(1u);
            }
        "#,
        )
        .unwrap();
        let f = p.function("top").unwrap();
        let stmts = &f.body.as_ref().unwrap().stmts();
        match (&stmts[0].kind, &stmts[1].kind) {
            (StmtKind::Decl(a), StmtKind::Decl(b)) => {
                assert!(!a.is_static);
                assert!(b.is_static);
                assert!(matches!(a.ty, Type::Stream(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
