//! Run-time conformance: `type_of` a value and checking a value against a
//! type (used by dynamic argument checks and `rdl_cast`, paper §4).

use hb_intern::{sym, Sym};
use hb_interp::{ClassId, Interp, Value};
use hb_types::Type;

/// The run-time type of a value, as the paper's `type_of`: `type_of(nil) =
/// nil`, `type_of([A]) = A`. Collections get their *raw* class (instantiated
/// generics require casts, §4 "Type Casts").
pub fn type_of(interp: &Interp, v: &Value) -> Type {
    match v {
        Value::Nil => Type::Nil,
        Value::Bool(_) => Type::Bool,
        Value::Int(_) => Type::nominal("Fixnum"),
        Value::Float(_) => Type::nominal("Float"),
        Value::Str(_) => Type::nominal("String"),
        Value::Sym(_) => Type::nominal("Symbol"),
        Value::Array(_) => Type::nominal("Array"),
        Value::Hash(_) => Type::nominal("Hash"),
        Value::Range(_) => Type::nominal("Range"),
        Value::Proc(_) => Type::nominal("Proc"),
        Value::Obj(o) => Type::Nominal(interp.registry.name_sym(o.class)),
        Value::Class(c) => Type::ClassObj(interp.registry.name_sym(*c)),
    }
}

/// Is the class `have` the class named `want`, or below it? An exact
/// match is one `Sym` comparison; anything else asks the registry by name.
fn class_conforms(interp: &Interp, have: ClassId, want: Sym) -> bool {
    let registry = &interp.registry;
    registry.name_sym(have) == want
        || registry.is_descendant_name(registry.name(have), want.as_str())
}

/// Does `v` conform to `ty` at run time? Deep for instantiated generics
/// (`rdl_cast` over an array checks every element, §4).
pub fn value_conforms(interp: &Interp, v: &Value, ty: &Type) -> bool {
    // nil inhabits every type (`nil ≤ τ`, paper §3).
    if matches!(v, Value::Nil) {
        return true;
    }
    match ty {
        Type::Any | Type::Var(_) => true,
        Type::Bool => matches!(v, Value::Bool(_)),
        Type::Nil => matches!(v, Value::Nil),
        Type::Union(arms) => arms.iter().any(|a| value_conforms(interp, v, a)),
        Type::Nominal(n) => {
            if matches!(v, Value::Bool(_)) {
                return *n == sym!("Boolean") || *n == sym!("Object");
            }
            class_conforms(interp, interp.registry.class_of(v), *n)
        }
        Type::Generic(n, args) => {
            let arg = |i: usize| args.get(i).unwrap_or(&Type::Any);
            match (n.as_str(), v) {
                ("Array", Value::Array(a)) => all_conform(interp, a.borrow().iter(), arg(0)),
                ("Hash", Value::Hash(h)) => {
                    let h = h.borrow();
                    all_conform(interp, h.iter().map(|(k, _)| k), arg(0))
                        && all_conform(interp, h.iter().map(|(_, val)| val), arg(1))
                }
                ("Range", Value::Range(r)) => {
                    value_conforms(interp, &r.0, arg(0)) && value_conforms(interp, &r.1, arg(0))
                }
                // Other generics conform by base class.
                _ => class_conforms(interp, interp.registry.class_of(v), *n),
            }
        }
        Type::ClassObj(n) => match v {
            Value::Class(c) => class_conforms(interp, *c, *n),
            _ => false,
        },
    }
}

/// Does every element conform to `ty`? At once for `%any` and type
/// variables, which every value conforms to.
fn all_conform<'a>(interp: &Interp, mut elems: impl Iterator<Item = &'a Value>, ty: &Type) -> bool {
    matches!(ty, Type::Any | Type::Var(_)) || elems.all(|e| value_conforms(interp, e, ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_types::parse_type;

    fn t(s: &str) -> Type {
        parse_type(s).unwrap()
    }

    #[test]
    fn type_of_primitives() {
        let i = Interp::new();
        assert_eq!(type_of(&i, &Value::Nil), Type::Nil);
        assert_eq!(type_of(&i, &Value::Int(1)).to_string(), "Fixnum");
        assert_eq!(type_of(&i, &Value::str("x")).to_string(), "String");
        assert_eq!(type_of(&i, &Value::array(vec![])).to_string(), "Array");
        assert_eq!(type_of(&i, &Value::Bool(true)), Type::Bool);
    }

    #[test]
    fn conformance_nominal_and_tower() {
        let i = Interp::new();
        assert!(value_conforms(&i, &Value::Int(1), &t("Fixnum")));
        assert!(value_conforms(&i, &Value::Int(1), &t("Integer")));
        assert!(value_conforms(&i, &Value::Int(1), &t("Numeric")));
        assert!(value_conforms(&i, &Value::Int(1), &t("Object")));
        assert!(!value_conforms(&i, &Value::Int(1), &t("String")));
        assert!(!value_conforms(&i, &Value::Float(1.0), &t("Integer")));
    }

    #[test]
    fn nil_conforms_to_everything() {
        let i = Interp::new();
        for ty in ["User", "Array<Fixnum>", "%bool", "Fixnum or Float"] {
            assert!(value_conforms(&i, &Value::Nil, &t(ty)), "{ty}");
        }
    }

    #[test]
    fn deep_generic_checks() {
        let i = Interp::new();
        let ints = Value::array(vec![Value::Int(1), Value::Int(2)]);
        assert!(value_conforms(&i, &ints, &t("Array<Fixnum>")));
        let mixed = Value::array(vec![Value::Int(1), Value::str("x")]);
        assert!(!value_conforms(&i, &mixed, &t("Array<Fixnum>")));
        assert!(value_conforms(&i, &mixed, &t("Array<%any>")));
        let h = Value::hash_from(vec![(Value::str("k"), Value::Int(1))]);
        assert!(value_conforms(&i, &h, &t("Hash<String, Fixnum>")));
        assert!(!value_conforms(&i, &h, &t("Hash<Symbol, Fixnum>")));
        // Mixed arrays and hashes: every element is checked.
        let tail = Value::array(vec![Value::Int(1), Value::Int(2), Value::str("x")]);
        assert!(!value_conforms(&i, &tail, &t("Array<Fixnum>")));
        let row = Value::hash_from(vec![
            (Value::str("a"), Value::Int(1)),
            (Value::str("b"), Value::str("x")),
            (Value::sym("c"), Value::Nil),
        ]);
        assert!(value_conforms(&i, &row, &t("Hash<String or Symbol, %any>")));
        assert!(!value_conforms(&i, &row, &t("Hash<String, %any>")));
    }

    #[test]
    fn union_conformance() {
        let i = Interp::new();
        let ty = t("Fixnum or Float");
        assert!(value_conforms(&i, &Value::Int(1), &ty));
        assert!(value_conforms(&i, &Value::Float(1.5), &ty));
        assert!(!value_conforms(&i, &Value::str("s"), &ty));
    }

    #[test]
    fn class_obj_conformance() {
        let mut i = Interp::new();
        i.eval_str("class User\nend\nclass Admin < User\nend")
            .unwrap();
        let user = i.constant("User").unwrap();
        let admin = i.constant("Admin").unwrap();
        assert!(value_conforms(&i, &user, &t("Class<User>")));
        assert!(value_conforms(&i, &admin, &t("Class<User>")));
        assert!(!value_conforms(&i, &user, &t("Class<Admin>")));
        assert!(!value_conforms(&i, &Value::Int(1), &t("Class<User>")));
    }
}
