//! Lexical scopes for locals, shared between methods and their blocks.
//!
//! A scope is a [`FastMap`] from local name to value: every local read,
//! and every write, hashes its name once per scope it visits on the way
//! out, without SipHash's per-lookup set-up. A write to a local that some
//! scope on the chain already binds updates that binding in place, so
//! only a local's first assignment, and every parameter a call binds,
//! allocates its name.

use crate::value::Value;
use hb_intern::FastMap;
use std::cell::RefCell;
use std::rc::Rc;

/// A lexical scope frame. Blocks get child scopes whose reads and writes of
/// existing variables reach the enclosing scope (Ruby closure semantics);
/// new variables introduced inside a block stay block-local.
pub struct Scope {
    vars: RefCell<FastMap<String, Value>>,
    parent: Option<ScopeRef>,
}

/// Shared handle to a scope.
pub type ScopeRef = Rc<Scope>;

impl Scope {
    /// A fresh root scope (method bodies, top level).
    pub fn root() -> ScopeRef {
        Rc::new(Scope {
            vars: RefCell::default(),
            parent: None,
        })
    }

    /// A child scope capturing `parent` (block bodies).
    pub fn child(parent: &ScopeRef) -> ScopeRef {
        Rc::new(Scope {
            vars: RefCell::default(),
            parent: Some(parent.clone()),
        })
    }

    /// Reads a variable, walking up the chain.
    pub fn get(&self, name: &str) -> Option<Value> {
        if let Some(v) = self.vars.borrow().get(name) {
            return Some(v.clone());
        }
        self.parent.as_ref().and_then(|p| p.get(name))
    }

    /// True if the variable is visible from this scope.
    pub fn contains(&self, name: &str) -> bool {
        self.vars.borrow().contains_key(name)
            || self.parent.as_ref().is_some_and(|p| p.contains(name))
    }

    /// Writes a variable: updates the innermost scope that already binds it,
    /// or defines it here.
    pub fn set(&self, name: &str, value: Value) {
        if let Err(value) = self.try_update(name, value) {
            self.vars.borrow_mut().insert(name.to_string(), value);
        }
    }

    /// Overwrites the innermost existing binding of `name` in place, or
    /// hands `value` back when no scope on the chain binds it.
    fn try_update(&self, name: &str, value: Value) -> Result<(), Value> {
        let old = match self.vars.borrow_mut().get_mut(name) {
            Some(slot) => std::mem::replace(slot, value),
            None => {
                return match &self.parent {
                    Some(p) => p.try_update(name, value),
                    None => Err(value),
                }
            }
        };
        // Dropped once the borrow has ended.
        drop(old);
        Ok(())
    }

    /// Defines a variable in *this* scope regardless of outer bindings
    /// (parameter binding).
    pub fn define(&self, name: &str, value: Value) {
        self.vars.borrow_mut().insert(name.to_string(), value);
    }

    /// Collects all visible bindings, inner scopes shadowing outer ones
    /// (used by the engine to type captured locals of `define_method`
    /// procs at check time).
    pub fn collect_bindings(&self) -> Vec<(String, Value)> {
        let mut out: Vec<(String, Value)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur: Option<&Scope> = Some(self);
        while let Some(s) = cur {
            for (k, v) in s.vars.borrow().iter() {
                if seen.insert(k.clone()) {
                    out.push((k.clone(), v.clone()));
                }
            }
            cur = s.parent.as_deref();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let s = Scope::root();
        s.set("x", Value::Int(1));
        assert!(s.get("x").unwrap().raw_eq(&Value::Int(1)));
        assert!(s.get("y").is_none());
    }

    #[test]
    fn child_reads_parent() {
        let p = Scope::root();
        p.set("x", Value::Int(1));
        let c = Scope::child(&p);
        assert!(c.get("x").unwrap().raw_eq(&Value::Int(1)));
    }

    #[test]
    fn child_write_updates_parent_binding() {
        let p = Scope::root();
        p.set("x", Value::Int(1));
        let c = Scope::child(&p);
        c.set("x", Value::Int(2));
        assert!(p.get("x").unwrap().raw_eq(&Value::Int(2)));
    }

    #[test]
    fn child_new_vars_stay_local() {
        let p = Scope::root();
        let c = Scope::child(&p);
        c.set("y", Value::Int(3));
        assert!(p.get("y").is_none());
        assert!(c.get("y").is_some());
    }

    #[test]
    fn define_shadows_parent() {
        let p = Scope::root();
        p.set("x", Value::Int(1));
        let c = Scope::child(&p);
        c.define("x", Value::Int(9));
        assert!(c.get("x").unwrap().raw_eq(&Value::Int(9)));
        assert!(p.get("x").unwrap().raw_eq(&Value::Int(1)));
    }
}
