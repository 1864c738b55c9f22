//! RubyLite front-end for the Hummingbird reproduction.
//!
//! RubyLite is a Ruby-like dynamic language: classes, modules and mixins,
//! re-openable classes, instance/class/global variables, blocks and procs,
//! metaprogramming (`define_method`, `send`, `class_eval`, `method_missing`),
//! string interpolation and paren-less "command" calls. This crate provides
//! the lexer, abstract syntax tree, recursive-descent parser, pretty-printer
//! and source-location/diagnostic machinery shared by the rest of the
//! workspace, and the per-thread [`store`] through which [`parse_in`]
//! parses each loaded text once per thread.
//!
//! # Example
//!
//! ```
//! use hb_syntax::parse_program;
//!
//! let src = r#"
//! class Talk
//!   def owner?(user)
//!     return owner == user
//!   end
//! end
//! "#;
//! let program = parse_program(src, "talk.rb").unwrap();
//! assert_eq!(program.body.len(), 1);
//! ```

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod store;
pub mod token;

pub use ast::{Arg, BlockArg, Expr, ExprKind, Lhs, Param, ParamKind, Program, StrPart};
pub use diag::{
    BlameTarget, DiagCode, DiagLabel, Diagnostic, LabelRole, ParseError, Severity, TypeDiagnostic,
};
pub use parser::{parse_expr, parse_program};
pub use pretty::pretty_program;
pub use span::{FileId, SourceFile, SourceMap, Span};
pub use store::{parse_file, parse_in, store_stats, StoreStats};
