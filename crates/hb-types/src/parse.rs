//! Parser for RDL-style type strings.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! method_type := '(' params? ')' block? '->' type
//! params      := param (',' param)*
//! param       := '?' type | '*' type | type
//! block       := '{' method_type '}'
//! type        := atom ('or' atom)*
//! atom        := '%any' | '%bool' | 'nil' | var | const generic? | 'Class' '<' const '>'
//! generic     := '<' type (',' type)* '>'
//! var         := lowercase identifier
//! const       := Uppercase identifier ('::' Uppercase identifier)*
//! ```

use crate::ty::{MethodType, ParamMode, ParamType, Type};
use hb_intern::{sym, Sym};
use std::error::Error;
use std::fmt;

/// An error produced while parsing a type string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeParseError {
    pub message: String,
    pub input: String,
}

impl TypeParseError {
    fn new(message: impl Into<String>, input: &str) -> TypeParseError {
        TypeParseError {
            message: message.into(),
            input: input.to_string(),
        }
    }
}

impl fmt::Display for TypeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid type `{}`: {}", self.input, self.message)
    }
}

impl Error for TypeParseError {}

/// Parses a value type such as `"Array<Fixnum>"` or `"Fixnum or nil"`.
///
/// # Errors
///
/// Returns [`TypeParseError`] on malformed input.
pub fn parse_type(src: &str) -> Result<Type, TypeParseError> {
    let mut p = TyParser::new(src);
    let t = p.parse_union()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input"));
    }
    Ok(t)
}

/// Parses a method type such as `"(User) -> %bool"`.
///
/// # Errors
///
/// Returns [`TypeParseError`] on malformed input.
pub fn parse_method_type(src: &str) -> Result<MethodType, TypeParseError> {
    let mut p = TyParser::new(src);
    let mt = p.parse_method_type()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input"));
    }
    Ok(mt)
}

struct TyParser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TyParser<'a> {
    fn new(src: &'a str) -> TyParser<'a> {
        TyParser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> TypeParseError {
        TypeParseError::new(msg, self.src)
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), TypeParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}` at offset {}", c as char, self.pos)))
        }
    }

    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// Peeks whether the next word is `or` (the union separator).
    fn at_or_keyword(&mut self) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with("or")
            && !matches!(
                self.bytes.get(self.pos + 2),
                Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
            )
    }

    fn parse_union(&mut self) -> Result<Type, TypeParseError> {
        let mut arms = vec![self.parse_atom()?];
        while self.at_or_keyword() {
            self.pos += 2;
            arms.push(self.parse_atom()?);
        }
        Ok(if arms.len() == 1 {
            arms.pop().unwrap()
        } else {
            Type::union_of(arms)
        })
    }

    fn parse_atom(&mut self) -> Result<Type, TypeParseError> {
        self.skip_ws();
        match self.peek() {
            b'%' => {
                self.pos += 1;
                let name = self.ident();
                match name {
                    "any" => Ok(Type::Any),
                    "bool" => Ok(Type::Bool),
                    other => Err(self.err(format!("unknown special type `%{other}`"))),
                }
            }
            b'(' => {
                self.pos += 1;
                let t = self.parse_union()?;
                self.expect(b')')?;
                Ok(t)
            }
            b'a'..=b'z' | b'_' => {
                let name = self.ident();
                match name {
                    "nil" => Ok(Type::Nil),
                    "" => Err(self.err("expected a type")),
                    _ => Ok(Type::Var(name.to_string())),
                }
            }
            b'A'..=b'Z' => {
                let start = self.pos;
                self.ident();
                // Constant paths flatten to their joined name, which is
                // the source text itself: no space may surround `::`.
                while self.src[self.pos..].starts_with("::") {
                    self.pos += 2;
                    if self.ident().is_empty() {
                        return Err(self.err("expected constant after `::`"));
                    }
                }
                let name = Sym::intern(&self.src[start..self.pos]);
                self.skip_ws();
                if self.peek() == b'<' {
                    self.pos += 1;
                    let mut args = vec![self.parse_union()?];
                    while self.eat(b',') {
                        args.push(self.parse_union()?);
                    }
                    self.expect(b'>')?;
                    if name == sym!("Class") && args.len() == 1 {
                        if let Type::Nominal(inner) = args[0] {
                            return Ok(Type::ClassObj(inner));
                        }
                    }
                    Ok(Type::Generic(name, args))
                } else {
                    Ok(Type::Nominal(name))
                }
            }
            0 => Err(self.err("unexpected end of type")),
            c => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn parse_method_type(&mut self) -> Result<MethodType, TypeParseError> {
        self.expect(b'(')?;
        let mut params = Vec::new();
        self.skip_ws();
        if self.peek() != b')' {
            loop {
                self.skip_ws();
                let mode = if self.peek() == b'?' {
                    self.pos += 1;
                    ParamMode::Optional
                } else if self.peek() == b'*' {
                    self.pos += 1;
                    ParamMode::Rest
                } else {
                    ParamMode::Required
                };
                let ty = self.parse_union()?;
                params.push(ParamType { ty, mode });
                if !self.eat(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;
        self.skip_ws();
        let block = if self.peek() == b'{' {
            self.pos += 1;
            let bt = self.parse_method_type()?;
            self.expect(b'}')?;
            Some(Box::new(bt))
        } else {
            None
        };
        self.skip_ws();
        if !self.src[self.pos..].starts_with("->") {
            return Err(self.err("expected `->` before return type"));
        }
        self.pos += 2;
        let ret = self.parse_union()?;
        Ok(MethodType { params, block, ret })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: &str) -> Type {
        parse_type(src).unwrap_or_else(|e| panic!("{e}"))
    }

    fn mt(src: &str) -> MethodType {
        parse_method_type(src).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn parses_atoms() {
        assert_eq!(t("%any"), Type::Any);
        assert_eq!(t("%bool"), Type::Bool);
        assert_eq!(t("nil"), Type::Nil);
        assert_eq!(t("User"), Type::nominal("User"));
        assert_eq!(t("t"), Type::Var("t".into()));
    }

    #[test]
    fn parses_generics() {
        assert_eq!(t("Array<Fixnum>").to_string(), "Array<Fixnum>");
        assert_eq!(t("Hash<String, %any>").to_string(), "Hash<String, %any>");
        assert_eq!(
            t("Hash<String, Array<Fixnum>>").to_string(),
            "Hash<String, Array<Fixnum>>"
        );
    }

    #[test]
    fn parses_unions() {
        assert_eq!(t("Fixnum or Float").to_string(), "Fixnum or Float");
        assert_eq!(
            t("Fixnum or Float or nil").to_string(),
            "Fixnum or Float or nil"
        );
        // Parenthesised unions inside generics.
        assert_eq!(
            t("Array<(Fixnum or Float)>").to_string(),
            "Array<Fixnum or Float>"
        );
    }

    #[test]
    fn or_requires_word_boundary() {
        // `Order` is a constant, not `Or der`.
        assert_eq!(t("Order"), Type::nominal("Order"));
    }

    #[test]
    fn parses_const_paths() {
        assert_eq!(t("ActiveRecord::Base"), Type::nominal("ActiveRecord::Base"));
    }

    #[test]
    fn parses_class_obj() {
        assert_eq!(t("Class<User>"), Type::ClassObj("User".into()));
    }

    #[test]
    fn parses_method_types() {
        let m = mt("(User) -> %bool");
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.ret, Type::Bool);
        assert_eq!(m.to_string(), "(User) -> %bool");

        let m = mt("() -> String");
        assert!(m.params.is_empty());

        let m = mt("(Fixnum, ?String, *Symbol) -> Array<String>");
        assert_eq!(m.params[1].mode, ParamMode::Optional);
        assert_eq!(m.params[2].mode, ParamMode::Rest);
        assert_eq!(m.to_string(), "(Fixnum, ?String, *Symbol) -> Array<String>");
    }

    #[test]
    fn parses_block_types() {
        let m = mt("() { (t) -> u } -> nil");
        let b = m.block.unwrap();
        assert_eq!(b.params[0].ty, Type::Var("t".into()));
        assert_eq!(b.ret, Type::Var("u".into()));
        assert_eq!(m.ret, Type::Nil);
    }

    #[test]
    fn parses_paper_examples() {
        // Array#[] from paper §4.
        assert!(parse_method_type("(Fixnum or Float) -> t").is_ok());
        assert!(parse_method_type("(Fixnum, Fixnum) -> Array<t>").is_ok());
        assert!(parse_method_type("(Range<Fixnum>) -> Array<t>").is_ok());
        // Code-block example from §4.
        assert!(parse_method_type("() { (T) -> U } -> nil").is_ok());
    }

    #[test]
    fn whitespace_insensitive() {
        assert_eq!(mt("( User )->%bool"), mt("(User) -> %bool"));
        assert_eq!(t(" Array < Fixnum > "), t("Array<Fixnum>"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_type("").is_err());
        assert!(parse_type("%weird").is_err());
        assert!(parse_type("Array<").is_err());
        assert!(parse_type("A B").is_err());
        assert!(parse_method_type("(User) %bool").is_err());
        assert!(parse_method_type("User -> %bool").is_err());
        assert!(parse_method_type("() -> ").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "(User) -> %bool",
            "() -> String",
            "(Fixnum or Float) -> t",
            "(Fixnum, ?String, *Symbol) -> Array<String>",
            "() { (t) -> u } -> nil",
            "(Hash<String, %any>) -> Class<User>",
        ] {
            let m = mt(s);
            assert_eq!(parse_method_type(&m.to_string()).unwrap(), m);
        }
    }
}
