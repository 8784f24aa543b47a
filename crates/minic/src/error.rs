//! Error types for parsing and type checking.

use crate::token::Span;
use std::error::Error;
use std::fmt;

/// What kind of [`ParseError`] occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The source is not in the dialect (unexpected token, bad literal, …).
    Syntax,
    /// Statements or expressions nest deeper than
    /// [`MAX_NESTING`](crate::parser::MAX_NESTING), where the parser stops
    /// before its recursion can overflow the stack, or the parsed program
    /// is deeper than [`MAX_AST_DEPTH`](crate::MAX_AST_DEPTH), past which
    /// the passes that recurse over it could.
    RecursionLimitExceeded,
}

/// A syntax error with location information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    kind: ParseErrorKind,
    message: String,
    span: Span,
}

impl ParseError {
    /// Creates a syntax error.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            kind: ParseErrorKind::Syntax,
            message: message.into(),
            span,
        }
    }

    /// The error for nesting past [`MAX_NESTING`](crate::parser::MAX_NESTING)
    /// at `span`.
    pub fn recursion_limit(span: Span) -> Self {
        ParseError {
            kind: ParseErrorKind::RecursionLimitExceeded,
            message: format!(
                "nesting exceeds the limit of {} levels",
                crate::parser::MAX_NESTING
            ),
            span,
        }
    }

    /// The error for a parsed program deeper than
    /// [`MAX_AST_DEPTH`](crate::MAX_AST_DEPTH) (left-nested binary
    /// operators parse without recursion, so only the finished AST shows
    /// their depth).
    pub fn too_deep(depth: usize) -> Self {
        ParseError {
            kind: ParseErrorKind::RecursionLimitExceeded,
            message: format!(
                "AST depth {depth} exceeds the limit of {} levels",
                crate::MAX_AST_DEPTH
            ),
            span: Span::default(),
        }
    }

    /// What kind of error this is.
    pub fn kind(&self) -> ParseErrorKind {
        self.kind
    }

    /// The human-readable message (without location).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Where the error occurred.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl Error for ParseError {}

/// A semantic error found by the type checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    message: String,
    span: Span,
}

impl TypeError {
    /// Creates a type error.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        TypeError {
            message: message.into(),
            span,
        }
    }

    /// The human-readable message (without location).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Where the error occurred.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at {}: {}", self.span, self.message)
    }
}

impl Error for TypeError {}
