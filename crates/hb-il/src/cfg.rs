//! CFG data structures: basic blocks, instructions, terminators.
//!
//! This mirrors the role of RIL in the paper: a simplified representation of
//! method bodies that the static checker consumes. Expressions are flattened
//! into instructions over operands; control flow is explicit in block
//! terminators. Nested code blocks (closures) are lowered into their own
//! [`MethodCfg`]s referenced from call instructions.

use hb_syntax::Span;
use std::fmt;

/// Identifies a basic block within a [`MethodCfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a lowered block literal within a [`MethodCfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockLitId(pub u32);

/// An atomic value: a constant, a local/temporary, `self`, or the
/// checker-only nondeterministic boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    NilConst,
    TrueConst,
    FalseConst,
    IntConst(i64),
    FloatConst(f64),
    StrConst(String),
    SymConst(String),
    /// A user local or compiler temporary (temporaries start with `%`).
    Local(String),
    SelfRef,
    /// A boolean of unknown value; used for default-parameter and rescue
    /// edges so the checker joins both outcomes.
    Nondet,
}

/// One piece of an interpolated string.
#[derive(Debug, Clone, PartialEq)]
pub enum StrPiece {
    Lit(String),
    Dyn(Operand),
}

/// A call-site argument.
#[derive(Debug, Clone, PartialEq)]
pub enum CallArg {
    Pos(Operand),
    Splat(Operand),
    BlockPass(Operand),
}

/// The right-hand side of an assignment instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Rvalue {
    Use(Operand),
    IVar(String),
    CVar(String),
    GVar(String),
    ConstRef(Vec<String>),
    StrInterp(Vec<StrPiece>),
    ArrayLit(Vec<Operand>),
    HashLit(Vec<(Operand, Operand)>),
    RangeLit {
        lo: Operand,
        hi: Operand,
        exclusive: bool,
    },
    /// A method call; `recv == None` is an implicit-`self` call.
    Call {
        recv: Option<Operand>,
        name: String,
        args: Vec<CallArg>,
        block: Option<BlockLitId>,
    },
    Yield(Vec<Operand>),
    /// `super` / `super(...)`; `args == None` forwards the method's formals.
    Super {
        args: Option<Vec<Operand>>,
    },
    /// `value.rdl_cast("T")` with a literal type string (paper §4).
    Cast {
        value: Operand,
        ty: String,
    },
    Not(Operand),
    /// Binds the rescue variable; typed as the union of the rescue classes
    /// (or `StandardError` when unqualified).
    RescueBind(Vec<String>),
}

/// An instruction: all effects are assignments of one kind or another.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    pub kind: InstrKind,
    pub span: Span,
}

/// The kinds of instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrKind {
    /// `local := rvalue`
    Assign {
        local: String,
        rv: Rvalue,
    },
    SetIVar {
        name: String,
        value: Operand,
    },
    SetCVar {
        name: String,
        value: Operand,
    },
    SetGVar {
        name: String,
        value: Operand,
    },
    SetConst {
        path: Vec<String>,
        value: Operand,
    },
}

/// How a basic block transfers control.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    Goto(BlockId),
    Branch {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Yields the value of this CFG (method result, or block result for
    /// block-literal CFGs).
    Return(Operand),
    /// An explicit `return` inside a block literal: returns from the
    /// *enclosing method*, so it checks against the method's declared
    /// return type, not the block's.
    MethodReturn(Operand),
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    pub instrs: Vec<Instr>,
    pub term: Terminator,
}

/// How a lowered formal parameter binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IlParamKind {
    Required,
    /// Has a default; the default expression is lowered into the entry
    /// region guarded by a [`Operand::Nondet`] branch.
    Optional,
    Rest,
    Block,
}

/// A formal parameter of a lowered method or block.
#[derive(Debug, Clone, PartialEq)]
pub struct IlParam {
    pub name: String,
    pub kind: IlParamKind,
}

/// A lowered method (or block/proc) body.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCfg {
    /// Method name, for diagnostics (`"<block>"` for block literals).
    pub name: String,
    pub params: Vec<IlParam>,
    pub blocks: Vec<BasicBlock>,
    pub entry: BlockId,
    /// Lowered block literals appearing in call instructions.
    pub block_lits: Vec<BlockLit>,
    /// Span of the whole definition.
    pub span: Span,
}

/// A lowered block literal (closure body).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockLit {
    pub params: Vec<IlParam>,
    pub cfg: MethodCfg,
}

impl MethodCfg {
    /// The basic block for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (CFGs are constructed well-formed).
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// The successor block ids of `id`.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        match &self.block(id).term {
            Terminator::Goto(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) | Terminator::MethodReturn(_) => vec![],
        }
    }

    /// Total instruction count including nested block literals (a crude size
    /// metric used by statistics and tests).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum::<usize>()
            + self
                .block_lits
                .iter()
                .map(|b| b.cfg.instr_count())
                .sum::<usize>()
    }

    /// Structural equality ignoring spans, nested block literals
    /// included: the engine's test of whether a redefined method's body
    /// changed (paper §4 "Cache Invalidation"). Walks both CFGs in place.
    pub fn same_shape(&self, other: &MethodCfg) -> bool {
        std::ptr::eq(self, other)
            || (self.name == other.name
                && self.params == other.params
                && self.entry == other.entry
                && pairwise(&self.blocks, &other.blocks, |a, b| {
                    a.term == b.term && pairwise(&a.instrs, &b.instrs, |x, y| x.kind == y.kind)
                })
                && pairwise(&self.block_lits, &other.block_lits, |a, b| {
                    a.params == b.params && a.cfg.same_shape(&b.cfg)
                }))
    }
}

/// Whether `a` and `b` have equal lengths and `eq` holds for every pair.
fn pairwise<T>(a: &[T], b: &[T], eq: impl Fn(&T, &T) -> bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| eq(x, y))
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::NilConst => write!(f, "nil"),
            Operand::TrueConst => write!(f, "true"),
            Operand::FalseConst => write!(f, "false"),
            Operand::IntConst(n) => write!(f, "{n}"),
            Operand::FloatConst(x) => write!(f, "{x}"),
            Operand::StrConst(s) => write!(f, "{s:?}"),
            Operand::SymConst(s) => write!(f, ":{s}"),
            Operand::Local(n) => write!(f, "{n}"),
            Operand::SelfRef => write!(f, "self"),
            Operand::Nondet => write!(f, "<nondet>"),
        }
    }
}

impl fmt::Display for MethodCfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cfg {}({} params)", self.name, self.params.len())?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{i}:")?;
            for instr in &b.instrs {
                match &instr.kind {
                    InstrKind::Assign { local, rv } => writeln!(f, "  {local} := {rv:?}")?,
                    InstrKind::SetIVar { name, value } => writeln!(f, "  @{name} := {value}")?,
                    InstrKind::SetCVar { name, value } => writeln!(f, "  @@{name} := {value}")?,
                    InstrKind::SetGVar { name, value } => writeln!(f, "  ${name} := {value}")?,
                    InstrKind::SetConst { path, value } => {
                        writeln!(f, "  {} := {value}", path.join("::"))?
                    }
                }
            }
            match &b.term {
                Terminator::Goto(t) => writeln!(f, "  goto bb{}", t.0)?,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => writeln!(f, "  branch {cond} ? bb{} : bb{}", then_bb.0, else_bb.0)?,
                Terminator::Return(v) => writeln!(f, "  return {v}")?,
                Terminator::MethodReturn(v) => writeln!(f, "  method_return {v}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> MethodCfg {
        MethodCfg {
            name: "m".into(),
            params: vec![],
            blocks: vec![
                BasicBlock {
                    instrs: vec![],
                    term: Terminator::Branch {
                        cond: Operand::TrueConst,
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                BasicBlock {
                    instrs: vec![],
                    term: Terminator::Goto(BlockId(2)),
                },
                BasicBlock {
                    instrs: vec![],
                    term: Terminator::Return(Operand::NilConst),
                },
            ],
            entry: BlockId(0),
            block_lits: vec![],
            span: Span::dummy(),
        }
    }

    #[test]
    fn successors() {
        let cfg = tiny_cfg();
        assert_eq!(cfg.successors(BlockId(0)), vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.successors(BlockId(1)), vec![BlockId(2)]);
        assert!(cfg.successors(BlockId(2)).is_empty());
    }

    #[test]
    fn same_shape_ignores_spans() {
        let a = tiny_cfg();
        let mut b = tiny_cfg();
        b.span = Span::new(hb_syntax::FileId(7), 1, 2);
        assert!(a.same_shape(&b));
    }

    #[test]
    fn same_shape_detects_changes() {
        let a = tiny_cfg();
        let mut b = tiny_cfg();
        b.blocks[2].term = Terminator::Return(Operand::TrueConst);
        assert!(!a.same_shape(&b));
    }

    /// `tiny_cfg` passing a block literal with `params` (a `tiny_cfg`
    /// that reads `x`) to a call; every span starts at `lo` or later.
    fn with_block(params: Vec<IlParam>, lo: u32) -> MethodCfg {
        let span = |i: u32| Span::new(hb_syntax::FileId(1), lo + i, lo + i + 1);
        let mut cfg = tiny_cfg();
        cfg.blocks[1].instrs.push(Instr {
            kind: InstrKind::Assign {
                local: "%t".into(),
                rv: Rvalue::Call {
                    recv: None,
                    name: "each".into(),
                    args: vec![],
                    block: Some(BlockLitId(0)),
                },
            },
            span: span(0),
        });
        let mut body = tiny_cfg();
        body.name = "<block>".into();
        body.span = span(1);
        body.blocks[1].instrs.push(Instr {
            kind: InstrKind::Assign {
                local: "%u".into(),
                rv: Rvalue::Use(Operand::Local("x".into())),
            },
            span: span(2),
        });
        cfg.block_lits.push(BlockLit { params, cfg: body });
        cfg
    }

    fn param(name: &str) -> Vec<IlParam> {
        vec![IlParam {
            name: name.into(),
            kind: IlParamKind::Required,
        }]
    }

    #[test]
    fn same_shape_ignores_spans_inside_block_literals() {
        let (a, b) = (with_block(param("x"), 10), with_block(param("x"), 40));
        assert_ne!(a, b, "the spans differ");
        assert!(a.same_shape(&b));
    }

    #[test]
    fn same_shape_compares_block_literal_params() {
        let (a, b) = (with_block(param("x"), 10), with_block(param("y"), 10));
        assert!(!a.same_shape(&b));
    }

    #[test]
    fn display_renders() {
        let s = tiny_cfg().to_string();
        assert!(s.contains("bb0"));
        assert!(s.contains("branch"));
        assert!(s.contains("return nil"));
    }
}
