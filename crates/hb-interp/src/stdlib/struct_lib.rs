//! `Struct.new` — generates classes with member getters/setters, as used by
//! the paper's Fig. 3 (`Transaction = Struct.new(:type, :account_name,
//! :amount)` and `Struct.add_types`).

use super::*;
use crate::value::Value;

pub(crate) fn install(interp: &mut Interp) {
    def_smethod(interp, "Struct", "new", |i, recv, args, _b| {
        // Dispatched on Struct itself: create a new struct class.
        // Generated classes shadow this with their own `new` below.
        let Value::Class(struct_cid) = recv else {
            return Err(type_error("Struct.new receiver must be Struct"));
        };
        let mut members = Vec::new();
        for a in &args {
            members.push(need_name(a, "Struct.new")?);
        }
        if members.is_empty() {
            return Err(arg_error("Struct.new: at least one member required"));
        }
        // Anonymous until assigned to a constant (the interpreter renames
        // on constant assignment, as Ruby does).
        let anon = format!("#<Struct:{}>", i.registry.class_count());
        let cid = i.registry.define_class(&anon, Some(struct_cid), false);
        i.registry.class_mut(cid).struct_members = Some(members.clone());
        // Accessors.
        for m in &members {
            let ivar = m.clone();
            i.define_builtin(
                cid,
                m,
                false,
                builtin(move |i, recv, _args, _b| Ok(i.ivar_get(&recv, &ivar))),
            );
            let ivar = m.clone();
            i.define_builtin(
                cid,
                &format!("{m}="),
                false,
                builtin(move |i, recv, args, _b| {
                    let v = arg(&args, 0);
                    i.ivar_set(&recv, &ivar, v.clone());
                    Ok(v)
                }),
            );
        }
        // Positional constructor shadows Struct.new for the generated class.
        let ctor_members = members.clone();
        i.define_builtin(
            cid,
            "new",
            true,
            builtin(move |i, recv, args, _b| {
                let Value::Class(cid) = recv else {
                    return Err(type_error("struct constructor on non-class"));
                };
                let inst = Value::Obj(std::rc::Rc::new(crate::value::Instance {
                    class: cid,
                    ivars: std::cell::RefCell::default(),
                }));
                for (k, m) in ctor_members.iter().enumerate() {
                    i.ivar_set(&inst, m, args.get(k).cloned().unwrap_or(Value::Nil));
                }
                Ok(inst)
            }),
        );
        // `members` reflection on the generated class.
        let refl = members.clone();
        i.define_builtin(
            cid,
            "members",
            true,
            builtin(move |_i, _recv, _args, _b| {
                Ok(Value::array(refl.iter().map(Value::sym).collect()))
            }),
        );
        Ok(Value::Class(cid))
    });
}
