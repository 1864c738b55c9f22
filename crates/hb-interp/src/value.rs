//! RubyLite runtime values.

use crate::env::ScopeRef;
use hb_syntax::ast::{Expr, Param};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Identifies a class or module in the [`crate::class::ClassRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// A RubyLite value.
///
/// Strings are immutable here (unlike Ruby); none of the subject apps mutate
/// strings in place, see DESIGN.md. Arrays and hashes are shared mutable
/// references with Ruby's aliasing semantics.
#[derive(Clone)]
pub enum Value {
    Nil,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Rc<str>),
    Sym(Rc<str>),
    Array(Rc<RefCell<Vec<Value>>>),
    Hash(Rc<RefCell<HashObj>>),
    /// `(lo, hi, exclusive)`
    Range(Rc<(Value, Value, bool)>),
    Obj(Rc<Instance>),
    Class(ClassId),
    Proc(Rc<ProcVal>),
}

/// An instance of a user class: its class plus instance variables.
pub struct Instance {
    pub class: ClassId,
    pub ivars: RefCell<hb_intern::FastMap<String, Value>>,
}

/// A block/proc: parameters, body, captured scope and captured `self`.
pub struct ProcVal {
    pub params: Vec<Param>,
    pub body: Rc<Vec<Expr>>,
    pub env: ScopeRef,
    pub self_val: Value,
    /// The class acting as definee when the proc body runs (for nested
    /// `def`/`define_method`).
    pub definee: ClassId,
    pub span: hb_syntax::Span,
}

/// An insertion-ordered hash with Ruby-style structural keys.
#[derive(Default)]
pub struct HashObj {
    entries: Vec<(Value, Value)>,
}

impl HashObj {
    /// An empty hash.
    pub fn new() -> HashObj {
        HashObj::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key` by structural equality.
    pub fn get(&self, key: &Value) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| k.raw_eq(key))
            .map(|(_, v)| v)
    }

    /// Inserts or replaces; preserves first-insertion order.
    pub fn insert(&mut self, key: Value, value: Value) {
        for (k, v) in &mut self.entries {
            if k.raw_eq(&key) {
                *v = value;
                return;
            }
        }
        self.entries.push((key, value));
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &Value) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k.raw_eq(key))?;
        Some(self.entries.remove(idx).1)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &Value) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(Value, Value)> {
        self.entries.iter()
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds a symbol value.
    pub fn sym(s: impl AsRef<str>) -> Value {
        Value::Sym(Rc::from(s.as_ref()))
    }

    /// Builds an array value.
    pub fn array(elems: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(elems)))
    }

    /// Builds a hash value from pairs.
    pub fn hash_from(pairs: Vec<(Value, Value)>) -> Value {
        let mut h = HashObj::new();
        for (k, v) in pairs {
            h.insert(k, v);
        }
        Value::Hash(Rc::new(RefCell::new(h)))
    }

    /// Ruby truthiness: everything but `nil` and `false`.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Bool(false))
    }

    /// Structural equality for primitives (including `1 == 1.0`), element-
    /// wise for arrays, identity for objects/procs. This is the default
    /// `==`; user classes may override it at dispatch level.
    pub fn raw_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.raw_eq(y))
            }
            (Value::Hash(a), Value::Hash(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len() && a.iter().all(|(k, v)| b.get(k).is_some_and(|w| v.raw_eq(w)))
            }
            (Value::Range(a), Value::Range(b)) => {
                a.0.raw_eq(&b.0) && a.1.raw_eq(&b.1) && a.2 == b.2
            }
            (Value::Obj(a), Value::Obj(b)) => Rc::ptr_eq(a, b),
            (Value::Class(a), Value::Class(b)) => a == b,
            (Value::Proc(a), Value::Proc(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `to_s` for primitives (objects get `#<ClassName>` from the interp,
    /// which knows class names).
    pub fn primitive_to_s(&self) -> Option<String> {
        Some(match self {
            Value::Nil => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(n) => n.to_string(),
            Value::Float(x) => format_float(*x),
            Value::Str(s) => s.to_string(),
            Value::Sym(s) => s.to_string(),
            _ => return None,
        })
    }
}

/// Formats a float the way Ruby's `to_s` does for simple values (always with
/// a decimal point).
pub fn format_float(x: f64) -> String {
    if x.is_finite() && x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{}", format_float(*x)),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Sym(s) => write!(f, ":{s}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
            Value::Hash(h) => {
                write!(f, "{{")?;
                for (i, (k, v)) in h.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k:?}=>{v:?}")?;
                }
                write!(f, "}}")
            }
            Value::Range(r) => write!(f, "{:?}{}{:?}", r.0, if r.2 { "..." } else { ".." }, r.1),
            Value::Obj(o) => write!(f, "#<instance of class {}>", o.class.0),
            Value::Class(c) => write!(f, "#<class {}>", c.0),
            Value::Proc(_) => write!(f, "#<Proc>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Int(0).truthy());
        assert!(Value::str("").truthy());
    }

    #[test]
    fn raw_eq_primitives() {
        assert!(Value::Int(1).raw_eq(&Value::Int(1)));
        assert!(Value::Int(1).raw_eq(&Value::Float(1.0)));
        assert!(Value::str("a").raw_eq(&Value::str("a")));
        assert!(!Value::str("a").raw_eq(&Value::sym("a")));
        assert!(Value::Nil.raw_eq(&Value::Nil));
    }

    #[test]
    fn raw_eq_arrays_structural() {
        let a = Value::array(vec![Value::Int(1), Value::str("x")]);
        let b = Value::array(vec![Value::Int(1), Value::str("x")]);
        let c = Value::array(vec![Value::Int(2)]);
        assert!(a.raw_eq(&b));
        assert!(!a.raw_eq(&c));
    }

    #[test]
    fn hash_insert_order_and_lookup() {
        let mut h = HashObj::new();
        h.insert(Value::sym("b"), Value::Int(2));
        h.insert(Value::sym("a"), Value::Int(1));
        h.insert(Value::sym("b"), Value::Int(3));
        assert_eq!(h.len(), 2);
        let keys: Vec<String> = h.iter().map(|(k, _)| format!("{k:?}")).collect();
        assert_eq!(keys, vec![":b", ":a"]);
        assert!(h.get(&Value::sym("b")).unwrap().raw_eq(&Value::Int(3)));
        assert!(h.remove(&Value::sym("a")).is_some());
        assert!(!h.contains(&Value::sym("a")));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(2.0), "2.0");
        assert_eq!(format_float(2.5), "2.5");
        assert_eq!(format_float(-3.0), "-3.0");
    }

    #[test]
    fn primitive_to_s() {
        assert_eq!(Value::Int(5).primitive_to_s().unwrap(), "5");
        assert_eq!(Value::sym("abc").primitive_to_s().unwrap(), "abc");
        assert_eq!(Value::Nil.primitive_to_s().unwrap(), "");
        assert!(Value::array(vec![]).primitive_to_s().is_none());
    }
}
