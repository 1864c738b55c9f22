//! Methods on class and module objects: instantiation, reflection, and the
//! metaprogramming core (`define_method`, `class_eval`, `attr_accessor`,
//! `include`) that the paper's examples exercise.

use super::*;
use crate::class::MethodBody;
use crate::value::{Instance, Value};
use hb_syntax::Span;
use std::cell::RefCell;
use std::rc::Rc;

pub(crate) fn install(interp: &mut Interp) {
    def_method(interp, "Class", "new", |i, recv, args, b| {
        let cid = expect_class(&recv)?;
        if i.registry.class(cid).is_module {
            return Err(type_error("cannot instantiate a module"));
        }
        let inst = Value::Obj(Rc::new(Instance {
            class: cid,
            ivars: RefCell::default(),
        }));
        if i.registry.find_method(cid, "initialize").is_some() {
            i.call_method(inst.clone(), "initialize", args, b, Span::dummy())?;
        }
        Ok(inst)
    });
    def_method(interp, "Class", "name", |i, recv, _args, _b| {
        let cid = expect_class(&recv)?;
        Ok(Value::str(i.registry.name(cid)))
    });
    def_method(interp, "Class", "to_s", |i, recv, _args, _b| {
        let cid = expect_class(&recv)?;
        Ok(Value::str(i.registry.name(cid)))
    });
    def_method(interp, "Class", "inspect", |i, recv, _args, _b| {
        let cid = expect_class(&recv)?;
        Ok(Value::str(i.registry.name(cid)))
    });
    def_method(interp, "Class", "superclass", |i, recv, _args, _b| {
        let cid = expect_class(&recv)?;
        Ok(match i.registry.class(cid).superclass {
            Some(s) => Value::Class(s),
            None => Value::Nil,
        })
    });
    def_method(interp, "Class", "===", |i, recv, args, _b| {
        let cid = expect_class(&recv)?;
        let have = i.registry.class_of(&arg(&args, 0));
        Ok(Value::Bool(i.registry.is_descendant(have, cid)))
    });
    def_method(interp, "Class", "ancestors", |i, recv, _args, _b| {
        let cid = expect_class(&recv)?;
        Ok(Value::array(
            i.registry
                .ancestors(cid)
                .into_iter()
                .map(Value::Class)
                .collect(),
        ))
    });

    // --- metaprogramming -------------------------------------------------

    def_method(interp, "Class", "define_method", |i, recv, args, b| {
        let cid = expect_class(&recv)?;
        let name = need_name(&arg(&args, 0), "define_method")?;
        let blk = match b.or_else(|| match args.get(1) {
            Some(Value::Proc(_)) => args.get(1).cloned(),
            _ => None,
        }) {
            Some(Value::Proc(p)) => p,
            _ => return Err(arg_error("define_method: no block given")),
        };
        i.registry
            .add_method(cid, &name, MethodBody::FromProc(blk), false);
        Ok(Value::sym(&name))
    });
    def_method(interp, "Class", "remove_method", |i, recv, args, _b| {
        let cid = expect_class(&recv)?;
        let name = need_name(&arg(&args, 0), "remove_method")?;
        i.registry.remove_method(cid, &name, false);
        Ok(recv)
    });
    def_method(interp, "Class", "method_defined?", |i, recv, args, _b| {
        let cid = expect_class(&recv)?;
        let name = need_name(&arg(&args, 0), "method_defined?")?;
        Ok(Value::Bool(i.registry.find_method(cid, &name).is_some()))
    });
    def_method(interp, "Class", "instance_methods", |i, recv, _args, _b| {
        let cid = expect_class(&recv)?;
        let mut names: Vec<String> = Vec::new();
        for a in i.registry.ancestors(cid) {
            for n in i.registry.own_method_names(a) {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names.sort();
        Ok(Value::array(names.into_iter().map(Value::sym).collect()))
    });
    def_method(interp, "Class", "class_eval", |i, recv, _args, b| {
        let cid = expect_class(&recv)?;
        match b {
            Some(Value::Proc(p)) => {
                let p = p.clone();
                // `class_eval` rebinds both self and the definee.
                let rebound = crate::value::ProcVal {
                    params: p.params.clone(),
                    body: p.body.clone(),
                    env: p.env.clone(),
                    self_val: recv.clone(),
                    definee: cid,
                    span: p.span,
                };
                i.call_proc(&rebound, vec![], None, Some(recv), false)
            }
            _ => Err(arg_error("class_eval: no block given")),
        }
    });
    def_method(interp, "Class", "module_eval", |i, recv, args, b| {
        i.call_method(recv, "class_eval", args, b, Span::dummy())
    });
    def_method(interp, "Class", "include", |i, recv, args, _b| {
        let cid = expect_class(&recv)?;
        // Every argument is checked before any is included, as Ruby does.
        let mut modules = Vec::with_capacity(args.len());
        for a in &args {
            match a {
                Value::Class(m) if i.registry.class(*m).is_module => modules.push(*m),
                Value::Class(_) => {
                    return Err(type_error("wrong argument type Class (expected Module)"))
                }
                other => return Err(type_error(format!("include: {other:?} is not a module"))),
            }
        }
        for m in modules {
            i.registry.include_module(cid, m);
        }
        Ok(recv)
    });
    def_method(interp, "Class", "attr_accessor", |i, recv, args, _b| {
        attr(i, &recv, &args, true, true)
    });
    def_method(interp, "Class", "attr_reader", |i, recv, args, _b| {
        attr(i, &recv, &args, true, false)
    });
    def_method(interp, "Class", "attr_writer", |i, recv, args, _b| {
        attr(i, &recv, &args, false, true)
    });
}

fn expect_class(v: &Value) -> Result<crate::value::ClassId, Flow> {
    match v {
        Value::Class(c) => Ok(*c),
        other => Err(type_error(format!("expected a class, got {other:?}"))),
    }
}

fn attr(
    i: &mut Interp,
    recv: &Value,
    args: &[Value],
    reader: bool,
    writer: bool,
) -> Result<Value, Flow> {
    let cid = expect_class(recv)?;
    for a in args {
        let name = need_name(a, "attr_accessor")?;
        if reader {
            let ivar = name.clone();
            i.define_builtin(
                cid,
                &name,
                false,
                builtin(move |i, recv, _args, _b| Ok(i.ivar_get(&recv, &ivar))),
            );
        }
        if writer {
            let ivar = name.clone();
            i.define_builtin(
                cid,
                &format!("{name}="),
                false,
                builtin(move |i, recv, args, _b| {
                    let v = arg(&args, 0);
                    i.ivar_set(&recv, &ivar, v.clone());
                    Ok(v)
                }),
            );
        }
    }
    Ok(Value::Nil)
}
