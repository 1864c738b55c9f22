//! Recursive-descent parser for RubyLite.
//!
//! The parser resolves bare identifiers to either local-variable reads or
//! implicit-`self` method calls using Ruby's lexical rule: an identifier is a
//! local if and only if an assignment to it has been *parsed* earlier in the
//! current scope. Method and class bodies open fresh scopes; blocks open
//! child scopes that can read enclosing locals. String interpolations are
//! parsed within the enclosing scope, so `"is_#{role_name}?"` sees the
//! surrounding `role_name` local.

use crate::ast::*;
use crate::diag::ParseError;
use crate::lexer::lex;
use crate::span::{FileId, Span};
use crate::token::{StrTokenPart, Token, TokenKind};
use std::collections::HashSet;
use std::rc::Rc;

/// Parses a full program using a throwaway source map.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_program(src: &str, _name: &str) -> Result<Program, ParseError> {
    parse_with_file(src, FileId(0))
}

/// Parses a program whose tokens carry the given file id. Systems load
/// through [`crate::parse_in`], which calls this once per text per thread.
pub(crate) fn parse_with_file(src: &str, file: FileId) -> Result<Program, ParseError> {
    let tokens = lex(src, file)?;
    let mut p = Parser::new(tokens, file);
    let body = p.parse_body(&[TokenKind::Eof])?;
    p.expect(&TokenKind::Eof)?;
    Ok(Program { body })
}

/// Parses a single expression (used by tests and the REPL-style helpers).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src, FileId(0))?;
    let mut p = Parser::new(tokens, FileId(0));
    p.skip_terms();
    let e = p.parse_stmt()?;
    p.skip_terms();
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

struct Scope {
    vars: HashSet<String>,
    /// Barrier scopes (methods, class bodies) cannot read enclosing locals.
    barrier: bool,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    file: FileId,
    scopes: Vec<Scope>,
    /// When non-zero, `do` blocks must not attach to calls (used while
    /// parsing `while`/`until` conditions).
    no_do_depth: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>, file: FileId) -> Parser {
        Parser {
            tokens,
            pos: 0,
            file,
            scopes: vec![Scope {
                vars: HashSet::new(),
                barrier: true,
            }],
            no_do_depth: 0,
        }
    }

    // ----- token plumbing -------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_n(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
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

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected `{}`, found `{}`", kind, self.peek())))
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek_span())
    }

    /// Skips statement terminators (newlines and semicolons).
    fn skip_terms(&mut self) {
        while matches!(self.peek(), TokenKind::Newline | TokenKind::Semi) {
            self.bump();
        }
    }

    /// Skips only newlines (inside bracketed constructs).
    fn skip_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
    }

    // ----- scope handling -------------------------------------------------

    fn push_scope(&mut self, barrier: bool) {
        self.scopes.push(Scope {
            vars: HashSet::new(),
            barrier,
        });
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare_local(&mut self, name: &str) {
        if let Some(s) = self.scopes.last_mut() {
            s.vars.insert(name.to_string());
        }
    }

    fn is_local(&self, name: &str) -> bool {
        for s in self.scopes.iter().rev() {
            if s.vars.contains(name) {
                return true;
            }
            if s.barrier {
                return false;
            }
        }
        false
    }

    // ----- statements -----------------------------------------------------

    /// Parses statements until one of `terminators` is the current token.
    fn parse_body(&mut self, terminators: &[TokenKind]) -> Result<Vec<Expr>, ParseError> {
        let mut body = Vec::new();
        loop {
            self.skip_terms();
            if terminators.contains(self.peek()) || matches!(self.peek(), TokenKind::Eof) {
                break;
            }
            body.push(self.parse_stmt()?);
            // A statement must be followed by a terminator or a closer.
            if !matches!(
                self.peek(),
                TokenKind::Newline | TokenKind::Semi | TokenKind::Eof
            ) && !terminators.contains(self.peek())
            {
                return Err(self.error(format!("unexpected `{}` after statement", self.peek())));
            }
        }
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Expr, ParseError> {
        let mut e = match self.peek().clone() {
            TokenKind::KwReturn => {
                let sp = self.bump().span;
                let val = if self.stmt_continues() {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                Expr::new(ExprKind::Return(val), sp.to(self.prev_span()))
            }
            TokenKind::KwBreak => {
                let sp = self.bump().span;
                let val = if self.stmt_continues() {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                Expr::new(ExprKind::Break(val), sp.to(self.prev_span()))
            }
            TokenKind::KwNext => {
                let sp = self.bump().span;
                let val = if self.stmt_continues() {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                Expr::new(ExprKind::Next(val), sp.to(self.prev_span()))
            }
            _ => self.parse_expr()?,
        };
        // Postfix `if` / `unless` modifiers.
        loop {
            match self.peek() {
                TokenKind::KwIf => {
                    self.bump();
                    let cond = self.parse_expr()?;
                    let span = e.span.to(cond.span);
                    e = Expr::new(
                        ExprKind::If {
                            cond: Box::new(cond),
                            then_body: vec![e],
                            else_body: vec![],
                        },
                        span,
                    );
                }
                TokenKind::KwUnless => {
                    self.bump();
                    let cond = self.parse_expr()?;
                    let span = e.span.to(cond.span);
                    let cond_span = cond.span;
                    e = Expr::new(
                        ExprKind::If {
                            cond: Box::new(Expr::new(ExprKind::Not(Box::new(cond)), cond_span)),
                            then_body: vec![e],
                            else_body: vec![],
                        },
                        span,
                    );
                }
                TokenKind::KwWhile => {
                    self.bump();
                    let cond = self.parse_expr()?;
                    let span = e.span.to(cond.span);
                    e = Expr::new(
                        ExprKind::While {
                            cond: Box::new(cond),
                            body: vec![e],
                        },
                        span,
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// True if the current token can begin a `return`/`break`/`next` value.
    fn stmt_continues(&self) -> bool {
        !matches!(
            self.peek(),
            TokenKind::Newline
                | TokenKind::Semi
                | TokenKind::Eof
                | TokenKind::KwEnd
                | TokenKind::KwIf
                | TokenKind::KwUnless
                | TokenKind::KwWhile
                | TokenKind::RParen
                | TokenKind::RBrace
                | TokenKind::RBracket
        )
    }

    // ----- expression precedence ladder ------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_and_or()
    }

    fn parse_and_or(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::KwNot) {
            let e = self.parse_and_or()?;
            let span = e.span;
            return Ok(Expr::new(ExprKind::Not(Box::new(e)), span));
        }
        let mut l = self.parse_assign()?;
        loop {
            let is_and = match self.peek() {
                TokenKind::KwAnd => true,
                TokenKind::KwOr => false,
                _ => break,
            };
            self.bump();
            let r = self.parse_assign()?;
            let span = l.span.to(r.span);
            l = Expr::new(
                if is_and {
                    ExprKind::And(Box::new(l), Box::new(r))
                } else {
                    ExprKind::Or(Box::new(l), Box::new(r))
                },
                span,
            );
        }
        Ok(l)
    }

    fn parse_assign(&mut self) -> Result<Expr, ParseError> {
        let e = self.parse_ternary()?;
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusAssign => Some("+"),
            TokenKind::MinusAssign => Some("-"),
            TokenKind::StarAssign => Some("*"),
            TokenKind::SlashAssign => Some("/"),
            TokenKind::PercentAssign => Some("%"),
            TokenKind::OrOrAssign => Some("||"),
            TokenKind::AndAndAssign => Some("&&"),
            _ => return Ok(e),
        };
        let target = match self.expr_to_lhs(&e) {
            Some(t) => t,
            None => return Err(self.error("invalid assignment target")),
        };
        self.bump();
        if let Lhs::Local(name) = &target {
            self.declare_local(name);
        }
        self.skip_newlines();
        let value = self.parse_assign()?;
        let span = e.span.to(value.span);
        Ok(match op {
            None => Expr::new(
                ExprKind::Assign {
                    target,
                    value: Box::new(value),
                },
                span,
            ),
            Some(op) => Expr::new(
                ExprKind::OpAssign {
                    target,
                    op: op.to_string(),
                    value: Box::new(value),
                },
                span,
            ),
        })
    }

    /// Converts an already-parsed expression into an assignment target.
    fn expr_to_lhs(&self, e: &Expr) -> Option<Lhs> {
        match &e.kind {
            ExprKind::Local(n) => Some(Lhs::Local(n.clone())),
            ExprKind::IVar(n) => Some(Lhs::IVar(n.clone())),
            ExprKind::CVar(n) => Some(Lhs::CVar(n.clone())),
            ExprKind::GVar(n) => Some(Lhs::GVar(n.clone())),
            ExprKind::Const(p) => Some(Lhs::Const(p.clone())),
            ExprKind::Call {
                recv: None,
                name,
                args,
                block: None,
            } if args.is_empty() => Some(Lhs::Local(name.clone())),
            ExprKind::Call {
                recv: Some(r),
                name,
                args,
                block: None,
            } if name == "[]" => {
                let idx = args
                    .iter()
                    .map(|a| match a {
                        Arg::Pos(e) => Some(e.clone()),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(Lhs::Index(r.clone(), idx))
            }
            ExprKind::Call {
                recv: Some(r),
                name,
                args,
                block: None,
            } if args.is_empty() => Some(Lhs::Attr(r.clone(), name.clone())),
            _ => None,
        }
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_range()?;
        if self.eat(&TokenKind::Question) {
            self.skip_newlines();
            let t = self.parse_ternary()?;
            self.skip_newlines();
            self.expect(&TokenKind::Colon)?;
            self.skip_newlines();
            let f = self.parse_ternary()?;
            let span = cond.span.to(f.span);
            return Ok(Expr::new(
                ExprKind::If {
                    cond: Box::new(cond),
                    then_body: vec![t],
                    else_body: vec![f],
                },
                span,
            ));
        }
        Ok(cond)
    }

    fn parse_range(&mut self) -> Result<Expr, ParseError> {
        let lo = self.parse_oror()?;
        let exclusive = match self.peek() {
            TokenKind::DotDot => false,
            TokenKind::DotDotDot => true,
            _ => return Ok(lo),
        };
        self.bump();
        let hi = self.parse_oror()?;
        let span = lo.span.to(hi.span);
        Ok(Expr::new(
            ExprKind::Range {
                lo: Box::new(lo),
                hi: Box::new(hi),
                exclusive,
            },
            span,
        ))
    }

    fn parse_oror(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_andand()?;
        while self.eat(&TokenKind::OrOr) {
            self.skip_newlines();
            let r = self.parse_andand()?;
            let span = l.span.to(r.span);
            l = Expr::new(ExprKind::Or(Box::new(l), Box::new(r)), span);
        }
        Ok(l)
    }

    fn parse_andand(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_equality()?;
        while self.eat(&TokenKind::AndAnd) {
            self.skip_newlines();
            let r = self.parse_equality()?;
            let span = l.span.to(r.span);
            l = Expr::new(ExprKind::And(Box::new(l), Box::new(r)), span);
        }
        Ok(l)
    }

    fn binop(l: Expr, name: &str, r: Expr) -> Expr {
        let span = l.span.to(r.span);
        Expr::new(
            ExprKind::Call {
                recv: Some(Box::new(l)),
                name: name.to_string(),
                args: vec![Arg::Pos(r)],
                block: None,
            },
            span,
        )
    }

    fn parse_equality(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_comparison()?;
        loop {
            let name = match self.peek() {
                TokenKind::EqEq => "==",
                TokenKind::NotEq => "!=",
                TokenKind::Spaceship => "<=>",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let r = self.parse_comparison()?;
            l = Self::binop(l, name, r);
        }
        Ok(l)
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_shift()?;
        loop {
            let name = match self.peek() {
                TokenKind::Lt => "<",
                TokenKind::Gt => ">",
                TokenKind::LtEq => "<=",
                TokenKind::GtEq => ">=",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let r = self.parse_shift()?;
            l = Self::binop(l, name, r);
        }
        Ok(l)
    }

    fn parse_shift(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_additive()?;
        loop {
            let name = match self.peek() {
                TokenKind::ShiftL => "<<",
                TokenKind::ShiftR => ">>",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let r = self.parse_additive()?;
            l = Self::binop(l, name, r);
        }
        Ok(l)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_multiplicative()?;
        loop {
            let name = match self.peek() {
                TokenKind::Plus => "+",
                TokenKind::Minus => "-",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let r = self.parse_multiplicative()?;
            l = Self::binop(l, name, r);
        }
        Ok(l)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut l = self.parse_unary()?;
        loop {
            let name = match self.peek() {
                TokenKind::Star => "*",
                TokenKind::Slash => "/",
                TokenKind::Percent => "%",
                _ => break,
            };
            self.bump();
            self.skip_newlines();
            let r = self.parse_unary()?;
            l = Self::binop(l, name, r);
        }
        Ok(l)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Minus => {
                let sp = self.bump().span;
                let e = self.parse_unary()?;
                let span = sp.to(e.span);
                Ok(match e.kind {
                    ExprKind::Int(n) => Expr::new(ExprKind::Int(-n), span),
                    ExprKind::Float(x) => Expr::new(ExprKind::Float(-x), span),
                    _ => Expr::new(
                        ExprKind::Call {
                            recv: Some(Box::new(e)),
                            name: "-@".to_string(),
                            args: vec![],
                            block: None,
                        },
                        span,
                    ),
                })
            }
            TokenKind::Bang => {
                let sp = self.bump().span;
                let e = self.parse_unary()?;
                let span = sp.to(e.span);
                Ok(Expr::new(ExprKind::Not(Box::new(e)), span))
            }
            _ => self.parse_pow(),
        }
    }

    fn parse_pow(&mut self) -> Result<Expr, ParseError> {
        let l = self.parse_postfix()?;
        if self.eat(&TokenKind::StarStar) {
            self.skip_newlines();
            let r = self.parse_unary()?; // right-associative
            return Ok(Self::binop(l, "**", r));
        }
        Ok(l)
    }

    // ----- postfix: method calls, indexing, const paths, blocks ------------

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    self.skip_newlines();
                    let name = self.parse_method_name()?;
                    let (args, block) = self.parse_call_tail(true)?;
                    let span = e.span.to(self.prev_span());
                    e = Expr::new(
                        ExprKind::Call {
                            recv: Some(Box::new(e)),
                            name,
                            args,
                            block,
                        },
                        span,
                    );
                }
                TokenKind::ColonColon => {
                    // Extend a constant path; anything else is unsupported.
                    if let ExprKind::Const(path) = &e.kind {
                        if let TokenKind::Const(_) = self.peek_n(1) {
                            self.bump();
                            let t = self.bump();
                            let seg = match t.kind {
                                TokenKind::Const(s) => s,
                                _ => unreachable!(),
                            };
                            let mut path = path.clone();
                            path.push(seg);
                            let span = e.span.to(t.span);
                            e = Expr::new(ExprKind::Const(path), span);
                            continue;
                        }
                    }
                    return Err(self.error("`::` is only supported in constant paths"));
                }
                TokenKind::LBracket => {
                    if self.peek_span().lo > self.prev_span().hi {
                        // Separated `[` is not an index (see
                        // starts_command_arg).
                        break;
                    }
                    self.bump();
                    self.skip_newlines();
                    let mut args = Vec::new();
                    while !matches!(self.peek(), TokenKind::RBracket) {
                        args.push(self.parse_expr()?);
                        self.skip_newlines();
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        self.skip_newlines();
                    }
                    let close = self.expect(&TokenKind::RBracket)?;
                    let span = e.span.to(close.span);
                    e = Expr::new(
                        ExprKind::Call {
                            recv: Some(Box::new(e)),
                            name: "[]".to_string(),
                            args: args.into_iter().map(Arg::Pos).collect(),
                            block: None,
                        },
                        span,
                    );
                }
                TokenKind::LBrace | TokenKind::KwDo => {
                    // A block can only attach to a call.
                    let attachable = matches!(e.kind, ExprKind::Call { ref block, .. } if block.is_none())
                        || matches!(e.kind, ExprKind::Super { .. } | ExprKind::Yield(_));
                    if !attachable {
                        break;
                    }
                    if matches!(self.peek(), TokenKind::KwDo) && self.no_do_depth > 0 {
                        break;
                    }
                    let blk = self.parse_block_literal()?;
                    if let ExprKind::Call { block, .. } = &mut e.kind {
                        e.span = e.span.to(blk.span);
                        *block = Some(blk);
                    } else {
                        return Err(self.error("blocks may only be passed to method calls"));
                    }
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Parses a method name after `.` or `def` (identifiers, keywords,
    /// setters like `name=`, and operator names).
    fn parse_method_name(&mut self) -> Result<String, ParseError> {
        let t = self.bump();
        let mut name = match t.kind {
            TokenKind::Ident(s) => s,
            TokenKind::Const(s) => s,
            TokenKind::KwClass => "class".to_string(),
            k => {
                if let Some(n) = k.keyword_name() {
                    n.to_string()
                } else {
                    let op = match k {
                        TokenKind::EqEq => "==",
                        TokenKind::NotEq => "!=",
                        TokenKind::Spaceship => "<=>",
                        TokenKind::Lt => "<",
                        TokenKind::Gt => ">",
                        TokenKind::LtEq => "<=",
                        TokenKind::GtEq => ">=",
                        TokenKind::Plus => "+",
                        TokenKind::Minus => "-",
                        TokenKind::Star => "*",
                        TokenKind::StarStar => "**",
                        TokenKind::Slash => "/",
                        TokenKind::Percent => "%",
                        TokenKind::ShiftL => "<<",
                        TokenKind::LBracket => {
                            self.expect(&TokenKind::RBracket)?;
                            if self.eat(&TokenKind::Assign) {
                                return Ok("[]=".to_string());
                            }
                            return Ok("[]".to_string());
                        }
                        other => {
                            return Err(ParseError::new(
                                format!("expected method name, found `{other}`"),
                                t.span,
                            ))
                        }
                    };
                    op.to_string()
                }
            }
        };
        // Setter method names in `def name=(v)` position.
        if matches!(self.peek(), TokenKind::Assign)
            && matches!(self.peek_n(1), TokenKind::LParen)
            && !name.ends_with(['?', '!'])
        {
            self.bump();
            name.push('=');
        }
        Ok(name)
    }

    /// Parses the argument list (and optional trailing block) of a call whose
    /// name has just been consumed. `allow_command` permits paren-less args.
    fn parse_call_tail(
        &mut self,
        allow_command: bool,
    ) -> Result<(Vec<Arg>, Option<BlockArg>), ParseError> {
        let mut args = Vec::new();
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            self.skip_newlines();
            args = self.parse_args(&TokenKind::RParen)?;
            self.expect(&TokenKind::RParen)?;
        } else if allow_command && self.starts_command_arg() {
            args = self.parse_args(&TokenKind::Newline)?;
        }
        // Blocks are attached by `parse_postfix`; returning None here keeps
        // attachment in one place.
        Ok((args, None))
    }

    /// True if the current token can begin a paren-less command argument.
    ///
    /// Ruby disambiguates `f *x` (splat) from `a * b` (product) and
    /// `puts [1]` (array argument) from `h[1]` (index) by spacing; we follow
    /// the same heuristic using token spans.
    fn starts_command_arg(&self) -> bool {
        match self.peek() {
            TokenKind::Int(_)
            | TokenKind::Float(_)
            | TokenKind::Str(_)
            | TokenKind::Symbol(_)
            | TokenKind::Ident(_)
            | TokenKind::Const(_)
            | TokenKind::IVar(_)
            | TokenKind::CVar(_)
            | TokenKind::GVar(_)
            | TokenKind::Label(_)
            | TokenKind::KwNil
            | TokenKind::KwTrue
            | TokenKind::KwFalse
            | TokenKind::KwSelf => true,
            // `*`/`&` start a splat/block-pass only when written like a
            // prefix: a space before and none after (`f *args`, `f &blk`).
            TokenKind::Star | TokenKind::Amp => {
                let spaced_before = self.peek_span().lo > self.prev_span().hi;
                let tight_after =
                    self.peek_n(1) != &TokenKind::Eof && self.span_n(1).lo == self.peek_span().hi;
                spaced_before && tight_after
            }
            // `[` starts an array argument only when separated by a space
            // (`puts [1, 2]`); adjacent `[` is indexing (`params[:id]`).
            TokenKind::LBracket => self.peek_span().lo > self.prev_span().hi,
            _ => false,
        }
    }

    fn span_n(&self, n: usize) -> Span {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].span
    }

    /// Parses call arguments up to (not consuming) `closer`, handling splats,
    /// block-pass arguments and trailing hash sugar (`k => v` / `key: v`).
    fn parse_args(&mut self, closer: &TokenKind) -> Result<Vec<Arg>, ParseError> {
        // Command (paren-less) argument lists are terminated by a newline, so
        // newlines must not be skipped around arguments in that mode.
        let command = matches!(closer, TokenKind::Newline);
        let mut args: Vec<Arg> = Vec::new();
        let mut hash_pairs: Vec<(Expr, Expr)> = Vec::new();
        let mut hash_span = Span::dummy();
        if self.peek() == closer {
            return Ok(args);
        }
        loop {
            if !command {
                self.skip_newlines();
            }
            match self.peek().clone() {
                TokenKind::Star => {
                    self.bump();
                    let e = self.parse_expr()?;
                    args.push(Arg::Splat(e));
                }
                TokenKind::Amp => {
                    self.bump();
                    let e = self.parse_expr()?;
                    args.push(Arg::BlockPass(e));
                }
                TokenKind::Label(name) => {
                    let sp = self.bump().span;
                    self.skip_newlines();
                    let v = self.parse_expr()?;
                    if hash_pairs.is_empty() {
                        hash_span = sp;
                    }
                    hash_span = hash_span.to(v.span);
                    hash_pairs.push((Expr::new(ExprKind::Sym(name), sp), v));
                }
                _ => {
                    let e = self.parse_expr()?;
                    if self.eat(&TokenKind::FatArrow) {
                        self.skip_newlines();
                        let v = self.parse_expr()?;
                        if hash_pairs.is_empty() {
                            hash_span = e.span;
                        }
                        hash_span = hash_span.to(v.span);
                        hash_pairs.push((e, v));
                    } else {
                        if !hash_pairs.is_empty() {
                            return Err(
                                self.error("positional argument may not follow keyword arguments")
                            );
                        }
                        args.push(Arg::Pos(e));
                    }
                }
            }
            if !command {
                self.skip_newlines();
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        if !hash_pairs.is_empty() {
            args.push(Arg::Pos(Expr::new(ExprKind::Hash(hash_pairs), hash_span)));
        }
        Ok(args)
    }

    fn parse_block_literal(&mut self) -> Result<BlockArg, ParseError> {
        let (open, closer) = if self.eat(&TokenKind::LBrace) {
            (self.prev_span(), TokenKind::RBrace)
        } else {
            self.expect(&TokenKind::KwDo)?;
            (self.prev_span(), TokenKind::KwEnd)
        };
        self.push_scope(false);
        self.skip_newlines();
        let mut params = Vec::new();
        if self.eat(&TokenKind::Pipe) {
            while !matches!(self.peek(), TokenKind::Pipe) {
                params.push(self.parse_param()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Pipe)?;
        }
        for p in &params {
            self.declare_local(&p.name);
        }
        let body = self.parse_body(std::slice::from_ref(&closer))?;
        let close = self.expect(&closer)?;
        self.pop_scope();
        Ok(BlockArg {
            params,
            body: Rc::new(body),
            span: open.to(close.span),
        })
    }

    fn parse_param(&mut self) -> Result<Param, ParseError> {
        match self.peek().clone() {
            TokenKind::Star => {
                self.bump();
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(name) => Ok(Param {
                        name,
                        kind: ParamKind::Rest,
                    }),
                    other => Err(ParseError::new(
                        format!("expected parameter name after `*`, found `{other}`"),
                        t.span,
                    )),
                }
            }
            TokenKind::Amp => {
                self.bump();
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(name) => Ok(Param {
                        name,
                        kind: ParamKind::Block,
                    }),
                    other => Err(ParseError::new(
                        format!("expected parameter name after `&`, found `{other}`"),
                        t.span,
                    )),
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::Assign) {
                    let default = self.parse_expr()?;
                    Ok(Param {
                        name,
                        kind: ParamKind::Optional(Box::new(default)),
                    })
                } else {
                    Ok(Param {
                        name,
                        kind: ParamKind::Required,
                    })
                }
            }
            other => Err(self.error(format!("expected parameter, found `{other}`"))),
        }
    }

    // ----- primaries --------------------------------------------------------

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::Int(n), span))
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(Expr::new(ExprKind::Float(x), span))
            }
            TokenKind::KwNil => {
                self.bump();
                Ok(Expr::new(ExprKind::Nil, span))
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Expr::new(ExprKind::True, span))
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Expr::new(ExprKind::False, span))
            }
            TokenKind::KwSelf => {
                self.bump();
                Ok(Expr::new(ExprKind::SelfExpr, span))
            }
            TokenKind::Symbol(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::Sym(s), span))
            }
            TokenKind::Str(parts) => {
                self.bump();
                self.parse_string(parts, span)
            }
            TokenKind::IVar(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::IVar(n), span))
            }
            TokenKind::CVar(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::CVar(n), span))
            }
            TokenKind::GVar(n) => {
                self.bump();
                Ok(Expr::new(ExprKind::GVar(n), span))
            }
            TokenKind::Const(c) => {
                self.bump();
                Ok(Expr::new(ExprKind::Const(vec![c]), span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                self.parse_ident_use(name, span)
            }
            TokenKind::LParen => {
                self.bump();
                self.skip_newlines();
                let e = self.parse_stmt()?;
                self.skip_newlines();
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => {
                self.bump();
                self.skip_newlines();
                let mut elems = Vec::new();
                while !matches!(self.peek(), TokenKind::RBracket) {
                    elems.push(self.parse_expr()?);
                    self.skip_newlines();
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    self.skip_newlines();
                }
                let close = self.expect(&TokenKind::RBracket)?;
                Ok(Expr::new(ExprKind::Array(elems), span.to(close.span)))
            }
            TokenKind::LBrace => {
                self.bump();
                self.skip_newlines();
                let mut pairs = Vec::new();
                while !matches!(self.peek(), TokenKind::RBrace) {
                    if let TokenKind::Label(name) = self.peek().clone() {
                        let sp = self.bump().span;
                        self.skip_newlines();
                        let v = self.parse_expr()?;
                        pairs.push((Expr::new(ExprKind::Sym(name), sp), v));
                    } else {
                        let k = self.parse_expr()?;
                        self.skip_newlines();
                        self.expect(&TokenKind::FatArrow)?;
                        self.skip_newlines();
                        let v = self.parse_expr()?;
                        pairs.push((k, v));
                    }
                    self.skip_newlines();
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    self.skip_newlines();
                }
                let close = self.expect(&TokenKind::RBrace)?;
                Ok(Expr::new(ExprKind::Hash(pairs), span.to(close.span)))
            }
            TokenKind::KwIf => self.parse_if(false),
            TokenKind::KwUnless => self.parse_if(true),
            TokenKind::KwWhile => self.parse_while(false),
            TokenKind::KwUntil => self.parse_while(true),
            TokenKind::KwCase => self.parse_case(),
            TokenKind::KwBegin => self.parse_begin(),
            TokenKind::KwDef => self.parse_def(),
            TokenKind::KwClass => self.parse_class(),
            TokenKind::KwModule => self.parse_module(),
            TokenKind::KwYield => {
                self.bump();
                let mut args = Vec::new();
                if self.eat(&TokenKind::LParen) {
                    self.skip_newlines();
                    while !matches!(self.peek(), TokenKind::RParen) {
                        args.push(self.parse_expr()?);
                        self.skip_newlines();
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        self.skip_newlines();
                    }
                    self.expect(&TokenKind::RParen)?;
                } else if self.starts_command_arg() {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        self.skip_newlines();
                    }
                }
                Ok(Expr::new(ExprKind::Yield(args), span.to(self.prev_span())))
            }
            TokenKind::KwSuper => {
                self.bump();
                let args = if self.eat(&TokenKind::LParen) {
                    self.skip_newlines();
                    let mut args = Vec::new();
                    while !matches!(self.peek(), TokenKind::RParen) {
                        args.push(self.parse_expr()?);
                        self.skip_newlines();
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        self.skip_newlines();
                    }
                    self.expect(&TokenKind::RParen)?;
                    Some(args)
                } else {
                    None
                };
                Ok(Expr::new(
                    ExprKind::Super { args },
                    span.to(self.prev_span()),
                ))
            }
            other => Err(self.error(format!("unexpected `{other}`"))),
        }
    }

    /// Resolves a bare identifier: local read, call with parens, paren-less
    /// command call, or zero-argument implicit-self call.
    fn parse_ident_use(&mut self, name: String, span: Span) -> Result<Expr, ParseError> {
        if self.is_local(&name) && !matches!(self.peek(), TokenKind::LParen) {
            return Ok(Expr::new(ExprKind::Local(name), span));
        }
        let (args, _) = self.parse_call_tail(true)?;
        Ok(Expr::new(
            ExprKind::Call {
                recv: None,
                name,
                args,
                block: None,
            },
            span.to(self.prev_span()),
        ))
    }

    fn parse_string(&mut self, parts: Vec<StrTokenPart>, span: Span) -> Result<Expr, ParseError> {
        let mut out = Vec::new();
        for p in parts {
            match p {
                StrTokenPart::Lit(s) => out.push(StrPart::Lit(s)),
                StrTokenPart::Interp(raw) => {
                    let e = self.parse_interp_fragment(&raw, span)?;
                    out.push(StrPart::Interp(Box::new(e)));
                }
            }
        }
        Ok(Expr::new(ExprKind::Str(out), span))
    }

    /// Parses an interpolation fragment in the *current* scope by temporarily
    /// swapping the token stream.
    fn parse_interp_fragment(&mut self, raw: &str, span: Span) -> Result<Expr, ParseError> {
        let toks = lex(raw, self.file).map_err(|e| ParseError::new(e.message, span))?;
        let saved_tokens = std::mem::replace(&mut self.tokens, toks);
        let saved_pos = std::mem::replace(&mut self.pos, 0);
        let result = (|| {
            self.skip_terms();
            let e = self.parse_stmt()?;
            self.skip_terms();
            self.expect(&TokenKind::Eof)?;
            Ok(e)
        })();
        self.tokens = saved_tokens;
        self.pos = saved_pos;
        result.map_err(|e: ParseError| {
            ParseError::new(format!("in interpolation: {}", e.message), span)
        })
    }

    // ----- compound statements ----------------------------------------------

    fn parse_if(&mut self, negate: bool) -> Result<Expr, ParseError> {
        let open = self.bump().span; // if / unless
        let cond = self.parse_stmt_cond()?;
        self.eat(&TokenKind::KwThen);
        let then_body =
            self.parse_body(&[TokenKind::KwElsif, TokenKind::KwElse, TokenKind::KwEnd])?;
        let else_body = self.parse_else_chain()?;
        let close = self.prev_span();
        let cond_span = cond.span;
        let cond = if negate {
            Expr::new(ExprKind::Not(Box::new(cond)), cond_span)
        } else {
            cond
        };
        Ok(Expr::new(
            ExprKind::If {
                cond: Box::new(cond),
                then_body,
                else_body,
            },
            open.to(close),
        ))
    }

    fn parse_else_chain(&mut self) -> Result<Vec<Expr>, ParseError> {
        match self.peek() {
            TokenKind::KwElsif => {
                let open = self.bump().span;
                let cond = self.parse_stmt_cond()?;
                self.eat(&TokenKind::KwThen);
                let then_body =
                    self.parse_body(&[TokenKind::KwElsif, TokenKind::KwElse, TokenKind::KwEnd])?;
                let else_body = self.parse_else_chain()?;
                let close = self.prev_span();
                Ok(vec![Expr::new(
                    ExprKind::If {
                        cond: Box::new(cond),
                        then_body,
                        else_body,
                    },
                    open.to(close),
                )])
            }
            TokenKind::KwElse => {
                self.bump();
                let body = self.parse_body(&[TokenKind::KwEnd])?;
                self.expect(&TokenKind::KwEnd)?;
                Ok(body)
            }
            TokenKind::KwEnd => {
                self.bump();
                Ok(vec![])
            }
            other => Err(self.error(format!(
                "expected `elsif`, `else` or `end`, found `{other}`"
            ))),
        }
    }

    /// Parses a condition expression (assignments allowed, `do` blocks not).
    fn parse_stmt_cond(&mut self) -> Result<Expr, ParseError> {
        self.no_do_depth += 1;
        let r = self.parse_expr();
        self.no_do_depth -= 1;
        r
    }

    fn parse_while(&mut self, negate: bool) -> Result<Expr, ParseError> {
        let open = self.bump().span;
        let cond = self.parse_stmt_cond()?;
        self.eat(&TokenKind::KwDo);
        let body = self.parse_body(&[TokenKind::KwEnd])?;
        let close = self.expect(&TokenKind::KwEnd)?.span;
        let cond_span = cond.span;
        let cond = if negate {
            Expr::new(ExprKind::Not(Box::new(cond)), cond_span)
        } else {
            cond
        };
        Ok(Expr::new(
            ExprKind::While {
                cond: Box::new(cond),
                body,
            },
            open.to(close),
        ))
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        let open = self.bump().span;
        let scrutinee = if matches!(self.peek(), TokenKind::Newline | TokenKind::KwWhen) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        self.skip_terms();
        let mut whens = Vec::new();
        while self.eat(&TokenKind::KwWhen) {
            let mut pats = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                self.skip_newlines();
                pats.push(self.parse_expr()?);
            }
            self.eat(&TokenKind::KwThen);
            let body =
                self.parse_body(&[TokenKind::KwWhen, TokenKind::KwElse, TokenKind::KwEnd])?;
            whens.push((pats, body));
        }
        let else_body = if self.eat(&TokenKind::KwElse) {
            self.parse_body(&[TokenKind::KwEnd])?
        } else {
            vec![]
        };
        let close = self.expect(&TokenKind::KwEnd)?.span;
        Ok(Expr::new(
            ExprKind::Case {
                scrutinee,
                whens,
                else_body,
            },
            open.to(close),
        ))
    }

    fn parse_begin(&mut self) -> Result<Expr, ParseError> {
        let open = self.bump().span;
        let body =
            self.parse_body(&[TokenKind::KwRescue, TokenKind::KwEnsure, TokenKind::KwEnd])?;
        let mut rescues = Vec::new();
        while self.eat(&TokenKind::KwRescue) {
            let mut classes = Vec::new();
            if let TokenKind::Const(_) = self.peek() {
                classes.push(self.parse_postfix()?);
                while self.eat(&TokenKind::Comma) {
                    classes.push(self.parse_postfix()?);
                }
            }
            let var = if self.eat(&TokenKind::FatArrow) {
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(n) => {
                        self.declare_local(&n);
                        Some(n)
                    }
                    other => {
                        return Err(ParseError::new(
                            format!("expected rescue variable, found `{other}`"),
                            t.span,
                        ))
                    }
                }
            } else {
                None
            };
            self.eat(&TokenKind::KwThen);
            let rbody =
                self.parse_body(&[TokenKind::KwRescue, TokenKind::KwEnsure, TokenKind::KwEnd])?;
            rescues.push(Rescue {
                classes,
                var,
                body: rbody,
            });
        }
        let ensure_body = if self.eat(&TokenKind::KwEnsure) {
            self.parse_body(&[TokenKind::KwEnd])?
        } else {
            vec![]
        };
        let close = self.expect(&TokenKind::KwEnd)?.span;
        Ok(Expr::new(
            ExprKind::Begin {
                body,
                rescues,
                ensure_body,
            },
            open.to(close),
        ))
    }

    fn parse_def(&mut self) -> Result<Expr, ParseError> {
        let open = self.bump().span;
        let self_method = if matches!(self.peek(), TokenKind::KwSelf)
            && matches!(self.peek_n(1), TokenKind::Dot)
        {
            self.bump();
            self.bump();
            true
        } else {
            false
        };
        let name = self.parse_def_name()?;
        self.push_scope(true);
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            self.skip_newlines();
            while !matches!(self.peek(), TokenKind::RParen) {
                params.push(self.parse_param()?);
                self.skip_newlines();
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
                self.skip_newlines();
            }
            self.expect(&TokenKind::RParen)?;
        }
        for p in &params {
            self.declare_local(&p.name);
        }
        let body = self.parse_body(&[TokenKind::KwEnd])?;
        let close = self.expect(&TokenKind::KwEnd)?.span;
        self.pop_scope();
        let span = open.to(close);
        Ok(Expr::new(
            ExprKind::MethodDef(Rc::new(MethodDefNode {
                self_method,
                name,
                params,
                body,
                span,
            })),
            span,
        ))
    }

    /// Parses the name position of `def`, accepting setter (`name=`) and
    /// operator names.
    fn parse_def_name(&mut self) -> Result<String, ParseError> {
        // `def name=(v)` — the lexer produced Ident, Assign, LParen.
        if let TokenKind::Ident(n) = self.peek().clone() {
            if matches!(self.peek_n(1), TokenKind::Assign)
                && matches!(self.peek_n(2), TokenKind::LParen)
            {
                self.bump();
                self.bump();
                return Ok(format!("{n}="));
            }
        }
        self.parse_method_name()
    }

    fn parse_const_path(&mut self) -> Result<Vec<String>, ParseError> {
        let t = self.bump();
        let mut path = match t.kind {
            TokenKind::Const(c) => vec![c],
            other => {
                return Err(ParseError::new(
                    format!("expected constant name, found `{other}`"),
                    t.span,
                ))
            }
        };
        while matches!(self.peek(), TokenKind::ColonColon) {
            self.bump();
            let t = self.bump();
            match t.kind {
                TokenKind::Const(c) => path.push(c),
                other => {
                    return Err(ParseError::new(
                        format!("expected constant name after `::`, found `{other}`"),
                        t.span,
                    ))
                }
            }
        }
        Ok(path)
    }

    fn parse_class(&mut self) -> Result<Expr, ParseError> {
        let open = self.bump().span;
        if matches!(self.peek(), TokenKind::ShiftL) {
            return Err(self.error("`class << self` is not supported; use `def self.name`"));
        }
        let path = self.parse_const_path()?;
        let superclass = if self.eat(&TokenKind::Lt) {
            Some(Box::new(self.parse_postfix()?))
        } else {
            None
        };
        self.push_scope(true);
        let body = self.parse_body(&[TokenKind::KwEnd])?;
        let close = self.expect(&TokenKind::KwEnd)?.span;
        self.pop_scope();
        Ok(Expr::new(
            ExprKind::ClassDef {
                path,
                superclass,
                body: Rc::new(body),
            },
            open.to(close),
        ))
    }

    fn parse_module(&mut self) -> Result<Expr, ParseError> {
        let open = self.bump().span;
        let path = self.parse_const_path()?;
        self.push_scope(true);
        let body = self.parse_body(&[TokenKind::KwEnd])?;
        let close = self.expect(&TokenKind::KwEnd)?.span;
        self.pop_scope();
        Ok(Expr::new(
            ExprKind::ModuleDef {
                path,
                body: Rc::new(body),
            },
            open.to(close),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Expr {
        parse_expr(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
    }

    fn prog(src: &str) -> Program {
        parse_program(src, "test.rb").unwrap_or_else(|e| panic!("parse failed: {e}"))
    }

    fn call_name(e: &Expr) -> &str {
        match &e.kind {
            ExprKind::Call { name, .. } => name,
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn literal_primaries() {
        assert_eq!(p("42").kind, ExprKind::Int(42));
        assert_eq!(p("3.5").kind, ExprKind::Float(3.5));
        assert_eq!(p("nil").kind, ExprKind::Nil);
        assert_eq!(p("true").kind, ExprKind::True);
        assert_eq!(p(":sym").kind, ExprKind::Sym("sym".into()));
    }

    #[test]
    fn binop_becomes_call() {
        let e = p("1 + 2 * 3");
        // `+` at top with `*` nested right.
        match &e.kind {
            ExprKind::Call {
                recv, name, args, ..
            } => {
                assert_eq!(name, "+");
                assert_eq!(recv.as_ref().unwrap().kind, ExprKind::Int(1));
                match &args[0] {
                    Arg::Pos(r) => assert_eq!(call_name(r), "*"),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert_eq!(p("-5").kind, ExprKind::Int(-5));
        assert_eq!(call_name(&p("-x()")), "-@");
    }

    #[test]
    fn assignment_declares_local() {
        let program = prog("x = 1\nx");
        assert_eq!(program.body.len(), 2);
        assert_eq!(program.body[1].kind, ExprKind::Local("x".into()));
    }

    #[test]
    fn unassigned_ident_is_self_call() {
        let program = prog("owner");
        match &program.body[0].kind {
            ExprKind::Call {
                recv: None,
                name,
                args,
                ..
            } => {
                assert_eq!(name, "owner");
                assert!(args.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn locals_do_not_leak_out_of_blocks() {
        let program = prog("xs.each do |t|\n  y = t\nend\ny");
        // `y` after the block is a self-call, not a local.
        match &program.body[1].kind {
            ExprKind::Call {
                recv: None, name, ..
            } => assert_eq!(name, "y"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blocks_read_enclosing_locals() {
        let program = prog("t = 1\nxs.each do |x|\n  t\nend");
        match &program.body[1].kind {
            ExprKind::Call { block: Some(b), .. } => {
                assert_eq!(b.body[0].kind, ExprKind::Local("t".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn method_scope_is_a_barrier() {
        let program = prog("t = 1\ndef m\n  t\nend");
        match &program.body[1].kind {
            ExprKind::MethodDef(d) => match &d.body[0].kind {
                ExprKind::Call {
                    recv: None, name, ..
                } => assert_eq!(name, "t"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interpolation_sees_enclosing_scope() {
        let program = prog("role = \"admin\"\n\"is_#{role}?\"");
        match &program.body[1].kind {
            ExprKind::Str(parts) => match &parts[1] {
                StrPart::Interp(e) => assert_eq!(e.kind, ExprKind::Local("role".into())),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn command_call_with_symbol_and_hash_sugar() {
        let e = p(r#"belongs_to :owner, :class_name => "User""#);
        match &e.kind {
            ExprKind::Call {
                recv: None,
                name,
                args,
                ..
            } => {
                assert_eq!(name, "belongs_to");
                assert_eq!(args.len(), 2);
                match &args[1] {
                    Arg::Pos(h) => assert!(matches!(h.kind, ExprKind::Hash(_))),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn label_hash_sugar_in_args() {
        let e = p("render text: \"hi\", status: 200");
        match &e.kind {
            ExprKind::Call { args, .. } => {
                assert_eq!(args.len(), 1);
                match &args[0] {
                    Arg::Pos(h) => match &h.kind {
                        ExprKind::Hash(pairs) => assert_eq!(pairs.len(), 2),
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn splat_and_block_pass_args() {
        let e = p("m(*args, &blk)");
        match &e.kind {
            ExprKind::Call { args, .. } => {
                assert!(matches!(args[0], Arg::Splat(_)));
                assert!(matches!(args[1], Arg::BlockPass(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn do_block_with_params() {
        let e = p("xs.each do |a, b|\n a + b\nend");
        match &e.kind {
            ExprKind::Call {
                name,
                block: Some(b),
                ..
            } => {
                assert_eq!(name, "each");
                assert_eq!(b.params.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn brace_block_on_command_receiver_call() {
        let e = p("members.zip(types).each {|name, t| name }");
        match &e.kind {
            ExprKind::Call {
                name,
                block: Some(b),
                ..
            } => {
                assert_eq!(name, "each");
                assert_eq!(b.params.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hash_literal_vs_block() {
        assert!(matches!(p("{ :a => 1 }").kind, ExprKind::Hash(_)));
        assert!(matches!(p("{ a: 1 }").kind, ExprKind::Hash(_)));
        match &p("f { 1 }").kind {
            ExprKind::Call { block: Some(_), .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_read_and_write() {
        assert_eq!(call_name(&p("h[:k]")), "[]");
        let e = p("h[:k] = 1");
        match &e.kind {
            ExprKind::Assign {
                target: Lhs::Index(_, idx),
                ..
            } => assert_eq!(idx.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attr_write_and_op_assign() {
        let e = p("o.name = \"x\"");
        assert!(matches!(&e.kind, ExprKind::Assign { target: Lhs::Attr(_, n), .. } if n == "name"));
        let e = p("@@cache ||= 1");
        assert!(
            matches!(&e.kind, ExprKind::OpAssign { target: Lhs::CVar(n), op, .. } if n == "cache" && op == "||")
        );
    }

    #[test]
    fn ternary() {
        let e = p("cn ? cn : hm");
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn postfix_if_and_unless() {
        let e = p("x = 1 if ready");
        assert!(matches!(e.kind, ExprKind::If { .. }));
        let e = p("x = 1 unless done");
        match &e.kind {
            ExprKind::If { cond, .. } => assert!(matches!(cond.kind, ExprKind::Not(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_elsif_else_chain() {
        let e = p("if a\n 1\nelsif b\n 2\nelse\n 3\nend");
        match &e.kind {
            ExprKind::If { else_body, .. } => {
                assert!(matches!(else_body[0].kind, ExprKind::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn while_and_until() {
        assert!(matches!(p("while x\n y\nend").kind, ExprKind::While { .. }));
        match &p("until x\n y\nend").kind {
            ExprKind::While { cond, .. } => assert!(matches!(cond.kind, ExprKind::Not(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case_when() {
        let e = p("case x\nwhen 1, 2 then \"a\"\nwhen 3\n \"b\"\nelse\n \"c\"\nend");
        match &e.kind {
            ExprKind::Case {
                whens, else_body, ..
            } => {
                assert_eq!(whens.len(), 2);
                assert_eq!(whens[0].0.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn begin_rescue_ensure() {
        let e = p("begin\n work\nrescue ArgumentError => e\n handle(e)\nensure\n done\nend");
        match &e.kind {
            ExprKind::Begin {
                rescues,
                ensure_body,
                ..
            } => {
                assert_eq!(rescues.len(), 1);
                assert_eq!(rescues[0].var.as_deref(), Some("e"));
                assert_eq!(ensure_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn def_forms() {
        let e = p("def owner?(user)\n owner == user\nend");
        match &e.kind {
            ExprKind::MethodDef(d) => {
                assert_eq!(d.name, "owner?");
                assert!(!d.self_method);
                assert_eq!(d.params.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        let e = p("def self.add_types(*types)\nend");
        match &e.kind {
            ExprKind::MethodDef(d) => {
                assert!(d.self_method);
                assert_eq!(d.params[0].kind, ParamKind::Rest);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn def_setter_and_operator_names() {
        match &p("def name=(v)\n @name = v\nend").kind {
            ExprKind::MethodDef(d) => assert_eq!(d.name, "name="),
            other => panic!("{other:?}"),
        }
        match &p("def ==(other)\n true\nend").kind {
            ExprKind::MethodDef(d) => assert_eq!(d.name, "=="),
            other => panic!("{other:?}"),
        }
        match &p("def [](i)\n i\nend").kind {
            ExprKind::MethodDef(d) => assert_eq!(d.name, "[]"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn def_with_default_params() {
        match &p("def m(a, b = 2)\nend").kind {
            ExprKind::MethodDef(d) => {
                assert!(matches!(d.params[1].kind, ParamKind::Optional(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn class_with_superclass_path() {
        let e = p("class Talk < ActiveRecord::Base\nend");
        match &e.kind {
            ExprKind::ClassDef {
                path, superclass, ..
            } => {
                assert_eq!(path, &vec!["Talk".to_string()]);
                let sup = superclass.as_ref().unwrap();
                assert_eq!(
                    sup.kind,
                    ExprKind::Const(vec!["ActiveRecord".into(), "Base".into()])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn module_with_nested_path() {
        let e = p("module ActiveRecord::Associations::ClassMethods\nend");
        match &e.kind {
            ExprKind::ModuleDef { path, .. } => assert_eq!(path.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_assignment() {
        let e = p("Transaction = Struct.new(:type)");
        assert!(
            matches!(&e.kind, ExprKind::Assign { target: Lhs::Const(p), .. } if p == &vec!["Transaction".to_string()])
        );
    }

    #[test]
    fn yield_and_super() {
        assert!(matches!(p("yield(1, 2)").kind, ExprKind::Yield(args) if args.len() == 2));
        assert!(matches!(p("yield 1").kind, ExprKind::Yield(args) if args.len() == 1));
        assert!(matches!(p("super").kind, ExprKind::Super { args: None }));
        assert!(matches!(p("super(1)").kind, ExprKind::Super { args: Some(a) } if a.len() == 1));
    }

    #[test]
    fn and_or_not_keywords() {
        assert!(matches!(p("a and b").kind, ExprKind::And(_, _)));
        assert!(matches!(p("a or b").kind, ExprKind::Or(_, _)));
        assert!(matches!(p("not a").kind, ExprKind::Not(_)));
        assert!(matches!(p("a && b || c").kind, ExprKind::Or(_, _)));
    }

    #[test]
    fn figure1_style_pre_block() {
        let src = r##"
pre :belongs_to do |*args|
  hmi = args[0]
  options = args[1]
  hm = hmi.to_s
  cn = options[:class_name] if options
  hmu = cn ? cn : hm.singularize.camelize
  type hm.singularize, "() -> #{hmu}"
  type "#{hm.singularize}=", "(#{hmu}) -> #{hmu}"
  true
end
"##;
        let program = prog(src);
        match &program.body[0].kind {
            ExprKind::Call {
                name,
                args,
                block: Some(b),
                ..
            } => {
                assert_eq!(name, "pre");
                assert_eq!(args.len(), 1);
                assert_eq!(b.params.len(), 1);
                assert_eq!(b.params[0].kind, ParamKind::Rest);
                assert_eq!(b.body.len(), 8);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn figure3_style_struct() {
        let src = r##"
class Struct
  def self.add_types(*types)
    members.zip(types).each {|name, t|
      self.class_eval do
        type name, "() -> #{t}"
        type "#{name}=", "(#{t}) -> #{t}"
      end
    }
  end
end
Transaction.add_types("String", "String", "String")
"##;
        let program = prog(src);
        assert_eq!(program.body.len(), 2);
    }

    #[test]
    fn range_expr() {
        assert!(matches!(
            p("1..5").kind,
            ExprKind::Range {
                exclusive: false,
                ..
            }
        ));
        assert!(matches!(
            p("1...5").kind,
            ExprKind::Range {
                exclusive: true,
                ..
            }
        ));
    }

    #[test]
    fn paren_grouping_allows_stmt() {
        let e = p("(x = 1)");
        assert!(matches!(e.kind, ExprKind::Assign { .. }));
    }

    #[test]
    fn chained_calls_over_newline_suppression() {
        let e = p("a.b(1).c(2)");
        assert_eq!(call_name(&e), "c");
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_expr("def").is_err());
        assert!(parse_expr("class end").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("x = ").is_err());
        assert!(parse_program("if x\n 1\n", "t.rb").is_err());
    }

    #[test]
    fn class_shift_self_rejected() {
        assert!(parse_expr("class << self\nend").is_err());
    }

    #[test]
    fn local_call_with_parens_is_call() {
        // Even when `f` is a local, `f(1)` is a method call (Ruby rule).
        let program = prog("f = 1\nf(2)");
        match &program.body[1].kind {
            ExprKind::Call {
                recv: None, name, ..
            } => assert_eq!(name, "f"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn params_hash_indexing() {
        // `params` is a method, so `params[:id]` must parse as call-then-index.
        let e = p("params[:id]");
        match &e.kind {
            ExprKind::Call {
                recv: Some(r),
                name,
                ..
            } => {
                assert_eq!(name, "[]");
                assert_eq!(call_name(r), "params");
            }
            other => panic!("{other:?}"),
        }
    }
}
