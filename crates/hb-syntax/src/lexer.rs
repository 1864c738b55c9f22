//! The RubyLite lexer.
//!
//! Newline handling follows Ruby's rule of thumb: a newline ends a statement
//! unless the previous token makes continuation unavoidable (binary operator,
//! comma, open bracket, `.` and so on). Consecutive significant newlines are
//! collapsed into one [`TokenKind::Newline`].

use crate::diag::ParseError;
use crate::span::{FileId, Span};
use crate::token::{StrTokenPart, Token, TokenKind};

/// Lexes `src` (belonging to `file`) into a token stream ending in `Eof`.
///
/// # Errors
///
/// Returns a [`ParseError`] on unterminated strings or unexpected characters.
pub fn lex(src: &str, file: FileId) -> Result<Vec<Token>, ParseError> {
    Lexer::new(src, file).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    file: FileId,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str, file: FileId) -> Lexer<'a> {
        Lexer {
            src: text.as_bytes(),
            text,
            pos: 0,
            file,
            tokens: Vec::new(),
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.src.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    /// The whole character at the current position, if any. The lexer
    /// only ever stops between characters, so this never splits one.
    fn peek_char(&self) -> Option<char> {
        self.text.get(self.pos..)?.chars().next()
    }

    fn span_from(&self, lo: usize) -> Span {
        Span::new(self.file, lo as u32, self.pos as u32)
    }

    fn err(&self, lo: usize, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg.into(), self.span_from(lo))
    }

    fn push(&mut self, kind: TokenKind, lo: usize) {
        let span = self.span_from(lo);
        self.tokens.push(Token { kind, span });
    }

    fn last_kind(&self) -> Option<&TokenKind> {
        self.tokens.last().map(|t| &t.kind)
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        while self.pos < self.src.len() {
            let lo = self.pos;
            let c = self.peek();
            match c {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'\n' => {
                    self.pos += 1;
                    let suppress = match self.last_kind() {
                        None => true,
                        Some(k) => k.suppresses_newline(),
                    };
                    if !suppress {
                        self.push(TokenKind::Newline, lo);
                    }
                }
                b'0'..=b'9' => self.lex_number(lo)?,
                b'"' => self.lex_dquote(lo)?,
                b'\'' => self.lex_squote(lo)?,
                b':' => self.lex_colon(lo)?,
                b'@' => self.lex_at(lo)?,
                b'$' => {
                    self.pos += 1;
                    let name = self.lex_name_raw();
                    if name.is_empty() {
                        return Err(self.err(lo, "expected global variable name after `$`"));
                    }
                    self.push(TokenKind::GVar(name), lo);
                }
                b'a'..=b'z' | b'_' => self.lex_ident(lo)?,
                b'A'..=b'Z' => {
                    let name = self.lex_name_raw();
                    self.push(TokenKind::Const(name), lo);
                }
                _ => self.lex_op(lo)?,
            }
        }
        let lo = self.pos;
        self.push(TokenKind::Eof, lo);
        Ok(self.tokens)
    }

    /// Consumes `[A-Za-z0-9_]*` from the current position.
    fn lex_name_raw(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        self.text[start..self.pos].to_string()
    }

    fn lex_number(&mut self, lo: usize) -> Result<(), ParseError> {
        while self.peek().is_ascii_digit() || self.peek() == b'_' {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() || self.peek() == b'_' {
                self.pos += 1;
            }
        }
        let raw: String = self.text[lo..self.pos]
            .chars()
            .filter(|c| *c != '_')
            .collect();
        if is_float {
            let v: f64 = raw
                .parse()
                .map_err(|_| self.err(lo, format!("invalid float literal `{raw}`")))?;
            self.push(TokenKind::Float(v), lo);
        } else {
            let v: i64 = raw
                .parse()
                .map_err(|_| self.err(lo, format!("integer literal `{raw}` out of range")))?;
            self.push(TokenKind::Int(v), lo);
        }
        Ok(())
    }

    fn lex_dquote(&mut self, lo: usize) -> Result<(), ParseError> {
        self.pos += 1; // opening quote
        let mut parts: Vec<StrTokenPart> = Vec::new();
        let mut lit = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(self.err(lo, "unterminated string literal"));
            }
            match self.peek() {
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => {
                    self.pos += 1;
                    // Any other escaped character stands for itself,
                    // `\\`, `\"` and `\#` included. At the end of input
                    // the loop reports the unterminated literal.
                    let Some(e) = self.peek_char() else { continue };
                    self.pos += e.len_utf8();
                    lit.push(match e {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        '0' => '\0',
                        other => other,
                    });
                }
                b'#' if self.peek2() == b'{' => {
                    if !lit.is_empty() {
                        parts.push(StrTokenPart::Lit(std::mem::take(&mut lit)));
                    }
                    self.pos += 2; // `#{`
                    let body = self.scan_interp(lo)?;
                    parts.push(StrTokenPart::Interp(body));
                }
                _ => {
                    // Push whole UTF-8 characters, not bytes.
                    let ch = self.peek_char().unwrap();
                    self.pos += ch.len_utf8();
                    lit.push(ch);
                }
            }
        }
        if !lit.is_empty() || parts.is_empty() {
            parts.push(StrTokenPart::Lit(lit));
        }
        self.push(TokenKind::Str(parts), lo);
        Ok(())
    }

    /// Scans the body of a `#{...}` interpolation up to the matching `}`,
    /// tracking nested braces and skipping over nested string literals.
    fn scan_interp(&mut self, lo: usize) -> Result<String, ParseError> {
        let start = self.pos;
        let mut depth = 1usize;
        while self.pos < self.src.len() {
            match self.peek() {
                b'{' => {
                    depth += 1;
                    self.pos += 1;
                }
                b'}' => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return Ok(self.text[start..self.pos - 1].to_string());
                    }
                }
                q @ (b'"' | b'\'') => {
                    self.pos += 1;
                    while self.pos < self.src.len() && self.peek() != q {
                        if self.peek() == b'\\' {
                            self.pos += 1;
                        }
                        self.pos += 1;
                    }
                    self.pos += 1; // closing quote
                }
                _ => self.pos += 1,
            }
        }
        Err(self.err(lo, "unterminated `#{` interpolation"))
    }

    fn lex_squote(&mut self, lo: usize) -> Result<(), ParseError> {
        self.pos += 1;
        let mut lit = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(self.err(lo, "unterminated string literal"));
            }
            match self.peek() {
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\\' if matches!(self.peek2(), b'\'' | b'\\') => {
                    self.pos += 1;
                    lit.push(self.bump() as char);
                }
                _ => {
                    let ch = self.peek_char().unwrap();
                    self.pos += ch.len_utf8();
                    lit.push(ch);
                }
            }
        }
        self.push(TokenKind::Str(vec![StrTokenPart::Lit(lit)]), lo);
        Ok(())
    }

    fn lex_colon(&mut self, lo: usize) -> Result<(), ParseError> {
        if self.peek2() == b':' {
            self.pos += 2;
            self.push(TokenKind::ColonColon, lo);
            return Ok(());
        }
        self.pos += 1;
        // Symbol literal: `:name`, `:name?`, `:name=`, `:[]`, `:[]=`, `:+`,
        // `:@ivar`, `:$gvar` ...
        match self.peek() {
            b'@' => {
                self.pos += 1;
                let mut prefix = "@".to_string();
                if self.peek() == b'@' {
                    self.pos += 1;
                    prefix.push('@');
                }
                let name = self.lex_name_raw();
                if name.is_empty() {
                    return Err(self.err(lo, "invalid symbol literal"));
                }
                self.push(TokenKind::Symbol(format!("{prefix}{name}")), lo);
            }
            b'$' => {
                self.pos += 1;
                let name = self.lex_name_raw();
                if name.is_empty() {
                    return Err(self.err(lo, "invalid symbol literal"));
                }
                self.push(TokenKind::Symbol(format!("${name}")), lo);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut name = self.lex_name_raw();
                match self.peek() {
                    b'?' | b'!' => {
                        name.push(self.bump() as char);
                    }
                    b'=' if self.peek2() != b'=' && self.peek2() != b'>' => {
                        name.push(self.bump() as char);
                    }
                    _ => {}
                }
                self.push(TokenKind::Symbol(name), lo);
            }
            b'[' => {
                self.pos += 1;
                if self.peek() != b']' {
                    return Err(self.err(lo, "invalid symbol literal"));
                }
                self.pos += 1;
                let mut name = "[]".to_string();
                if self.peek() == b'=' {
                    self.pos += 1;
                    name.push('=');
                }
                self.push(TokenKind::Symbol(name), lo);
            }
            b'"' => {
                // `:"string"` symbol (no interpolation).
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.src.len() && self.peek() != b'"' {
                    self.pos += 1;
                }
                if self.pos >= self.src.len() {
                    return Err(self.err(lo, "unterminated symbol literal"));
                }
                let name = self.text[start..self.pos].to_string();
                self.pos += 1;
                self.push(TokenKind::Symbol(name), lo);
            }
            _ => {
                // Operator symbols.
                for op in [
                    "<=>", "===", "==", "!=", "<=", ">=", "<<", "**", "+", "-", "*", "/", "%", "<",
                    ">", "!",
                ] {
                    if self.text[self.pos..].starts_with(op) {
                        self.pos += op.len();
                        self.push(TokenKind::Symbol(op.to_string()), lo);
                        return Ok(());
                    }
                }
                self.push(TokenKind::Colon, lo);
            }
        }
        Ok(())
    }

    fn lex_at(&mut self, lo: usize) -> Result<(), ParseError> {
        self.pos += 1;
        if self.peek() == b'@' {
            self.pos += 1;
            let name = self.lex_name_raw();
            if name.is_empty() {
                return Err(self.err(lo, "expected class variable name after `@@`"));
            }
            self.push(TokenKind::CVar(name), lo);
        } else {
            let name = self.lex_name_raw();
            if name.is_empty() {
                return Err(self.err(lo, "expected instance variable name after `@`"));
            }
            self.push(TokenKind::IVar(name), lo);
        }
        Ok(())
    }

    fn lex_ident(&mut self, lo: usize) -> Result<(), ParseError> {
        let mut name = self.lex_name_raw();
        match self.peek() {
            b'?' => {
                name.push('?');
                self.pos += 1;
            }
            b'!' if self.peek2() != b'=' => {
                name.push('!');
                self.pos += 1;
            }
            _ => {}
        }
        // A hash label: identifier immediately followed by `:` (not `::`).
        if self.peek() == b':' && self.peek2() != b':' && !name.ends_with(['?', '!']) {
            self.pos += 1;
            self.push(TokenKind::Label(name), lo);
            return Ok(());
        }
        match TokenKind::keyword(&name) {
            Some(kw) => self.push(kw, lo),
            None => self.push(TokenKind::Ident(name), lo),
        }
        Ok(())
    }

    fn lex_op(&mut self, lo: usize) -> Result<(), ParseError> {
        use TokenKind::*;
        // Operators are ASCII: compare bytes, so a multi-byte character
        // after an operator is never sliced through.
        let rest = &self.src[self.pos..];
        let (kind, len) = if rest.starts_with(b"<=>") {
            (Spaceship, 3)
        } else if rest.starts_with(b"...") {
            (DotDotDot, 3)
        } else if rest.starts_with(b"**=") {
            return Err(self.err(lo, "`**=` is not supported"));
        } else {
            match (self.peek(), self.peek2()) {
                (b'=', b'=') => (EqEq, 2),
                (b'!', b'=') => (NotEq, 2),
                (b'<', b'=') => (LtEq, 2),
                (b'>', b'=') => (GtEq, 2),
                (b'&', b'&') => {
                    if self.peek3() == b'=' {
                        (AndAndAssign, 3)
                    } else {
                        (AndAnd, 2)
                    }
                }
                (b'|', b'|') => {
                    if self.peek3() == b'=' {
                        (OrOrAssign, 3)
                    } else {
                        (OrOr, 2)
                    }
                }
                (b'+', b'=') => (PlusAssign, 2),
                (b'-', b'=') => (MinusAssign, 2),
                (b'*', b'=') => (StarAssign, 2),
                (b'/', b'=') => (SlashAssign, 2),
                (b'%', b'=') => (PercentAssign, 2),
                (b'<', b'<') => (ShiftL, 2),
                (b'>', b'>') => (ShiftR, 2),
                (b'*', b'*') => (StarStar, 2),
                (b'=', b'>') => (FatArrow, 2),
                (b'.', b'.') => (DotDot, 2),
                _ => match self.peek() {
                    b'+' => (Plus, 1),
                    b'-' => (Minus, 1),
                    b'*' => (Star, 1),
                    b'/' => (Slash, 1),
                    b'%' => (Percent, 1),
                    b'<' => (Lt, 1),
                    b'>' => (Gt, 1),
                    b'=' => (Assign, 1),
                    b'!' => (Bang, 1),
                    b'?' => (Question, 1),
                    b'.' => (Dot, 1),
                    b',' => (Comma, 1),
                    b'(' => (LParen, 1),
                    b')' => (RParen, 1),
                    b'[' => (LBracket, 1),
                    b']' => (RBracket, 1),
                    b'{' => (LBrace, 1),
                    b'}' => (RBrace, 1),
                    b'|' => (Pipe, 1),
                    b'&' => (Amp, 1),
                    b';' => (Semi, 1),
                    _ => {
                        let ch = self.peek_char().unwrap_or_default();
                        return Err(self.err(lo, format!("unexpected character `{ch}`")));
                    }
                },
            }
        };
        self.pos += len;
        self.push(kind, lo);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::StrTokenPart as P;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src, FileId(0))
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        assert_eq!(
            kinds("x = 1 + 2"),
            vec![Ident("x".into()), Assign, Int(1), Plus, Int(2), Eof]
        );
    }

    #[test]
    fn lexes_floats_and_underscored_ints() {
        assert_eq!(kinds("1_000 3.25"), vec![Int(1000), Float(3.25), Eof]);
    }

    #[test]
    fn int_followed_by_range_is_not_float() {
        assert_eq!(kinds("1..5"), vec![Int(1), DotDot, Int(5), Eof]);
        assert_eq!(kinds("1...5"), vec![Int(1), DotDotDot, Int(5), Eof]);
    }

    #[test]
    fn lexes_keywords_and_method_ish_idents() {
        assert_eq!(
            kinds("def owner?(user) end"),
            vec![
                KwDef,
                Ident("owner?".into()),
                LParen,
                Ident("user".into()),
                RParen,
                KwEnd,
                Eof
            ]
        );
    }

    #[test]
    fn bang_ident_vs_not_equal() {
        assert_eq!(
            kinds("save! a != b"),
            vec![
                Ident("save!".into()),
                Ident("a".into()),
                NotEq,
                Ident("b".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_symbols() {
        assert_eq!(
            kinds(":owner :class_name :[] :[]= :+ :owner?"),
            vec![
                Symbol("owner".into()),
                Symbol("class_name".into()),
                Symbol("[]".into()),
                Symbol("[]=".into()),
                Symbol("+".into()),
                Symbol("owner?".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_setter_symbol() {
        assert_eq!(kinds(":name="), vec![Symbol("name=".into()), Eof]);
    }

    #[test]
    fn lexes_labels_vs_symbols_vs_ternary() {
        assert_eq!(
            kinds("{ name: 1 }"),
            vec![LBrace, Label("name".into()), Int(1), RBrace, Eof]
        );
        // Spaced colon stays a ternary colon.
        assert_eq!(
            kinds("a ? b : c"),
            vec![
                Ident("a".into()),
                Question,
                Ident("b".into()),
                Colon,
                Ident("c".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_ivars_cvars_gvars() {
        assert_eq!(
            kinds("@x @@cache $stderr"),
            vec![
                IVar("x".into()),
                CVar("cache".into()),
                GVar("stderr".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_plain_string() {
        assert_eq!(
            kinds(r#""hello""#),
            vec![Str(vec![P::Lit("hello".into())]), Eof]
        );
    }

    #[test]
    fn lexes_interpolated_string() {
        assert_eq!(
            kinds(r#""is_#{role_name}?""#),
            vec![
                Str(vec![
                    P::Lit("is_".into()),
                    P::Interp("role_name".into()),
                    P::Lit("?".into())
                ]),
                Eof
            ]
        );
    }

    #[test]
    fn interpolation_with_nested_braces_and_strings() {
        assert_eq!(
            kinds(r#""x#{h["}"]}y""#),
            vec![
                Str(vec![
                    P::Lit("x".into()),
                    P::Interp(r#"h["}"]"#.into()),
                    P::Lit("y".into())
                ]),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_escapes() {
        assert_eq!(
            kinds(r#""a\nb\"c""#),
            vec![Str(vec![P::Lit("a\nb\"c".into())]), Eof]
        );
    }

    #[test]
    fn single_quoted_is_raw() {
        assert_eq!(
            kinds(r#"'a#{x}b'"#),
            vec![Str(vec![P::Lit("a#{x}b".into())]), Eof]
        );
    }

    #[test]
    fn newline_rules() {
        // Newline after operator is suppressed; after operand it is kept.
        assert_eq!(
            kinds("x = 1 +\n2\ny"),
            vec![
                Ident("x".into()),
                Assign,
                Int(1),
                Plus,
                Int(2),
                Newline,
                Ident("y".into()),
                Eof
            ]
        );
    }

    #[test]
    fn consecutive_newlines_collapse() {
        assert_eq!(
            kinds("a\n\n\nb"),
            vec![Ident("a".into()), Newline, Ident("b".into()), Eof]
        );
    }

    #[test]
    fn leading_newlines_skipped() {
        assert_eq!(kinds("\n\n a"), vec![Ident("a".into()), Eof]);
    }

    #[test]
    fn comments_ignored() {
        assert_eq!(
            kinds("a # comment\nb"),
            vec![Ident("a".into()), Newline, Ident("b".into()), Eof]
        );
    }

    #[test]
    fn op_assign_tokens() {
        assert_eq!(
            kinds("a ||= 1; b += 2"),
            vec![
                Ident("a".into()),
                OrOrAssign,
                Int(1),
                Semi,
                Ident("b".into()),
                PlusAssign,
                Int(2),
                Eof
            ]
        );
    }

    #[test]
    fn shovel_and_compare() {
        assert_eq!(
            kinds("a << b <=> c"),
            vec![
                Ident("a".into()),
                ShiftL,
                Ident("b".into()),
                Spaceship,
                Ident("c".into()),
                Eof
            ]
        );
    }

    #[test]
    fn const_path() {
        assert_eq!(
            kinds("ActiveRecord::Base"),
            vec![
                Const("ActiveRecord".into()),
                ColonColon,
                Const("Base".into()),
                Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc", FileId(0)).is_err());
        assert!(lex("'abc", FileId(0)).is_err());
        assert!(lex("\"a#{b", FileId(0)).is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(lex("a ^ b", FileId(0)).is_err());
    }

    #[test]
    fn fat_arrow_and_hash_rocket() {
        assert_eq!(
            kinds(":a => 1"),
            vec![Symbol("a".into()), FatArrow, Int(1), Eof]
        );
    }

    #[test]
    fn non_ascii_after_an_operator_is_named_not_split() {
        for src in ["a.é", "a==é", "A={é:", "é"] {
            let e = crate::parse_program(src, "t.rb").expect_err(src);
            assert!(e.message.contains("`é`"), "{src}: {}", e.message);
        }
        // An escaped character stands for itself, multi-byte ones too.
        assert_eq!(kinds(r#"x = "\é""#)[2], Str(vec![P::Lit("é".into())]));
        assert_eq!(kinds(r#""\😀!""#)[0], Str(vec![P::Lit("😀!".into())]));
        assert!(lex("\"\\", FileId(0)).is_err());
    }

    /// Lexes and parses strings glued from operators, keywords and
    /// multi-byte characters, from a fixed seed: every one must come back
    /// as a token stream or a `ParseError`, never as a panic.
    #[test]
    fn operator_and_multibyte_sweep_never_panics() {
        const PIECES: &[&str] = &[
            "<=>", "...", "**=", "==", "!=", "<=", ">=", "&&=", "&&", "||=", "||", "+=", "-=",
            "*=", "/=", "%=", "<<", ">>", "**", "=>", "..", "+", "-", "*", "/", "%", "<", ">", "=",
            "!", "?", ".", ",", "(", ")", "[", "]", "{", "}", "|", "&", ";", ":", "::", "@", "@@",
            "$", "#", "#{", "\"", "'", "\\", "\n", " ", "1", "2.5", "x", "A", "class", "def",
            "end", "if", "do", "yield", "self", "nil", "é", "→", "😀",
        ];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..12_000 {
            let len = 1 + next() % 8;
            let src: String = (0..len)
                .map(|_| PIECES[(next() % PIECES.len() as u64) as usize])
                .collect();
            let lexed = std::panic::catch_unwind(|| lex(&src, FileId(0)));
            assert!(lexed.is_ok(), "lex panicked on {src:?}");
            let parsed = std::panic::catch_unwind(|| crate::parse_program(&src, "t.rb"));
            assert!(parsed.is_ok(), "parse panicked on {src:?}");
        }
    }

    #[test]
    fn spans_are_tracked() {
        let toks = lex("ab + cd", FileId(3)).unwrap();
        assert_eq!(toks[0].span, Span::new(FileId(3), 0, 2));
        assert_eq!(toks[1].span, Span::new(FileId(3), 3, 4));
        assert_eq!(toks[2].span, Span::new(FileId(3), 5, 7));
    }
}
