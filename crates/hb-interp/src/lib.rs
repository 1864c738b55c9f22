//! The RubyLite dynamic interpreter host.
//!
//! This crate plays the role of the Ruby VM in the paper's implementation:
//! a dynamic object-oriented language with full metaprogramming
//! (`define_method`, `method_missing`, `send`, `class_eval`, re-openable
//! classes, mixins) and a method-dispatch interception seam
//! ([`hooks::CallHook`]) on which Hummingbird builds its `pre` contracts
//! and just-in-time static checks. An interpreter holds one hook.
//!
//! A thread bootstraps the core library once. Its first [`Interp::new`]
//! defines the core classes and builtins; every call, that first one
//! included, returns a fork of that bootstrap. A fork shares the builtin
//! closures and copies the class registry, with copy-on-write method
//! tables, so it costs a few microseconds. It numbers its method entries
//! exactly as a fresh bootstrap would, so identical tenants keep identical
//! entry ids (see [`Interp::new`]).
//!
//! A tree-walk call allocates only what it keeps: the argument vector,
//! which the callee's [`Frame`] takes and binds its parameters from (an
//! argument-forwarding `super` reads it there), and a [`Scope`] with one
//! key per parameter. Locals, instance variables, constants and the
//! classes of primitive values are looked up without SipHash or a
//! formatted name, and a write to an existing local or instance
//! variable updates it in place.
//!
//! # Example
//!
//! ```
//! use hb_interp::Interp;
//!
//! let mut interp = Interp::new();
//! let v = interp
//!     .eval_str("class Greeter\n def hi(name)\n  \"hi #{name}\"\n end\nend\nGreeter.new.hi(\"pl\")")
//!     .unwrap();
//! assert_eq!(v.primitive_to_s().unwrap(), "hi pl");
//! ```

pub mod class;
pub mod env;
pub mod error;
pub mod hooks;
pub mod interp;
pub mod stdlib;
pub mod tier;
pub mod value;
mod vm;

pub use class::{BuiltinFn, ClassRegistry, InterpEvent, MethodBody, MethodEntry};
pub use env::{Scope, ScopeRef};
pub use error::{ErrorKind, Flow, HbError};
pub use hooks::{CallHook, DispatchInfo, HookOutcome};
pub use interp::{Frame, FrameKind, Interp};
pub use tier::{ExecTier, ExecTierState};
pub use value::{ClassId, HashObj, Instance, ProcVal, Value};
