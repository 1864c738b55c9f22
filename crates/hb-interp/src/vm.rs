//! The bytecode dispatch loop: executes an [`hb_il::bytecode::Chunk`]
//! against the live interpreter.
//!
//! The VM owns only register-file execution; everything observable —
//! method dispatch, the hook, ivar/global/constant access, `to_s`, yields —
//! calls straight back into [`Interp`], so behaviour (including error
//! messages and spans) is identical to the tree-walk evaluator. A frame is
//! pushed exactly as the tree-walk `MethodBody::Ast` arm pushes one, with
//! the same `checked` propagation, so dynamic-argument-check elision in
//! callees works unchanged.

use crate::error::{ErrorKind, Flow, HbError};
use crate::interp::{Frame, FrameKind, Interp};
use crate::value::{ClassId, HashObj, Value};
use hb_il::bytecode::{BcConst, BcParam, Chunk, Op};
use hb_intern::Sym;
use hb_syntax::Span;
use std::cell::RefCell;
use std::rc::Rc;

/// Runs a compiled method body. Mirrors the tree-walk `MethodBody::Ast`
/// invocation end to end: arity check, frame push, parameter binding,
/// body, and the `Return`/`Break` exit mapping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chunk(
    interp: &mut Interp,
    chunk: &Chunk,
    recv: Value,
    owner: ClassId,
    name: Sym,
    args: Vec<Value>,
    block: Option<Value>,
    checked: bool,
    span: Span,
) -> Result<Value, Flow> {
    let given = args.len();
    let required = chunk.required as usize;
    let max = chunk.max as usize;
    if given < required || (!chunk.has_rest && given > max) {
        return Err(Flow::Error(HbError::new(
            ErrorKind::ArgumentError,
            format!(
                "wrong number of arguments calling `{}` (given {given}, expected {required}{})",
                name.as_str(),
                if chunk.has_rest {
                    "+".to_string()
                } else if max > required {
                    format!("..{max}")
                } else {
                    String::new()
                }
            ),
            span,
        )));
    }

    let tier = interp.tier.clone();
    let mut regs = tier.take_regs(chunk.n_regs as usize);

    // Parameter binding, replicating `bind_params`' optional-argument
    // budget: optionals consume arguments only while more are supplied
    // than required parameters still need.
    let mut it = args.into_iter();
    let mut budget = given.saturating_sub(required);
    for (i, p) in chunk.params.iter().enumerate() {
        regs[i] = match p {
            BcParam::Required => it.next().unwrap_or(Value::Nil),
            BcParam::Optional(idx) => {
                if budget > 0 {
                    budget -= 1;
                    it.next().unwrap_or(Value::Nil)
                } else {
                    const_val(&chunk.consts[*idx as usize])
                }
            }
            BcParam::Rest => Value::array(it.by_ref().collect()),
            BcParam::Block => block.clone().unwrap_or(Value::Nil),
        };
    }

    let slf = recv.clone();
    let nesting = interp.nesting_of(owner);
    interp.push_frame(Frame {
        kind: FrameKind::Method,
        self_val: recv,
        definee: owner,
        method: Some((owner, name)),
        // Chunks never read frame args (`super` is a compile bail-out).
        args: vec![],
        block,
        checked,
        nesting,
    });
    let r = exec(interp, chunk, &mut regs, &slf);
    interp.pop_frame();
    tier.return_regs(regs);
    match r {
        Ok(v) => Ok(v),
        Err(Flow::Return(v)) => Ok(v),
        // `break` out of a yielded block terminates this call.
        Err(Flow::Break(v)) => Ok(v),
        Err(e) => Err(e),
    }
}

fn exec(
    interp: &mut Interp,
    chunk: &Chunk,
    regs: &mut [Value],
    slf: &Value,
) -> Result<Value, Flow> {
    let mut pc = 0usize;
    loop {
        match &chunk.ops[pc] {
            Op::Const { dst, idx } => {
                regs[*dst as usize] = const_val(&chunk.consts[*idx as usize]);
            }
            Op::SelfVal { dst } => regs[*dst as usize] = slf.clone(),
            Op::Move { dst, src } => regs[*dst as usize] = regs[*src as usize].clone(),
            Op::IVarGet { dst, name } => {
                regs[*dst as usize] = interp.ivar_get(slf, &chunk.names[*name as usize]);
            }
            Op::IVarSet { name, src } => {
                let v = regs[*src as usize].clone();
                interp.ivar_set(slf, &chunk.names[*name as usize], v);
            }
            Op::GVarGet { dst, name } => {
                regs[*dst as usize] = interp.global(&chunk.names[*name as usize]);
            }
            Op::GVarSet { name, src } => {
                let v = regs[*src as usize].clone();
                interp.set_global(&chunk.names[*name as usize], v);
            }
            Op::ConstGet { dst, path } => {
                regs[*dst as usize] =
                    interp.resolve_const(&chunk.paths[*path as usize], chunk.spans[pc])?;
            }
            Op::NewArray { dst, start, len } => {
                let s = *start as usize;
                regs[*dst as usize] = Value::array(regs[s..s + *len as usize].to_vec());
            }
            Op::NewHash { dst, start, pairs } => {
                let mut h = HashObj::new();
                let s = *start as usize;
                for i in 0..*pairs as usize {
                    h.insert(regs[s + 2 * i].clone(), regs[s + 2 * i + 1].clone());
                }
                regs[*dst as usize] = Value::Hash(Rc::new(RefCell::new(h)));
            }
            Op::NewRange {
                dst,
                lo,
                hi,
                exclusive,
            } => {
                regs[*dst as usize] = Value::Range(Rc::new((
                    regs[*lo as usize].clone(),
                    regs[*hi as usize].clone(),
                    *exclusive,
                )));
            }
            Op::ToS { dst, src } => {
                let v = regs[*src as usize].clone();
                let s = interp.value_to_s(&v)?;
                regs[*dst as usize] = Value::str(s);
            }
            Op::ConcatStr { dst, start, len } => {
                let s = *start as usize;
                let mut out = String::new();
                for v in &regs[s..s + *len as usize] {
                    if let Value::Str(piece) = v {
                        out.push_str(piece);
                    }
                }
                regs[*dst as usize] = Value::str(out);
            }
            Op::Not { dst, src } => {
                regs[*dst as usize] = Value::Bool(!regs[*src as usize].truthy());
            }
            Op::Jump { to } => {
                pc = *to as usize;
                continue;
            }
            Op::JumpIfFalse { cond, to } => {
                if !regs[*cond as usize].truthy() {
                    pc = *to as usize;
                    continue;
                }
            }
            Op::Call {
                dst,
                recv,
                name,
                start,
                argc,
            } => {
                let s = *start as usize;
                let call_args = regs[s..s + *argc as usize].to_vec();
                let r = regs[*recv as usize].clone();
                let v = interp.call_method_sym(
                    r,
                    chunk.syms[*name as usize],
                    call_args,
                    None,
                    chunk.spans[pc],
                )?;
                regs[*dst as usize] = v;
            }
            Op::Yield { dst, start, argc } => {
                let blk = interp.frame().block.clone();
                match blk {
                    Some(b) => {
                        let s = *start as usize;
                        let call_args = regs[s..s + *argc as usize].to_vec();
                        regs[*dst as usize] = interp.call_block(&b, call_args)?;
                    }
                    None => {
                        return Err(Flow::Error(HbError::new(
                            ErrorKind::ArgumentError,
                            "no block given (yield)",
                            chunk.spans[pc],
                        )))
                    }
                }
            }
            Op::Return { src } => return Ok(regs[*src as usize].clone()),
        }
        pc += 1;
    }
}

fn const_val(c: &BcConst) -> Value {
    match c {
        BcConst::Nil => Value::Nil,
        BcConst::True => Value::Bool(true),
        BcConst::False => Value::Bool(false),
        BcConst::Int(n) => Value::Int(*n),
        BcConst::Float(x) => Value::Float(*x),
        BcConst::Str(s) => Value::Str(s.clone()),
        BcConst::Sym(s) => Value::Sym(s.clone()),
    }
}
