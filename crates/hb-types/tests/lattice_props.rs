//! Property-based tests for the type lattice: subtyping is a preorder, LUB
//! is idempotent/commutative and an upper bound, unions canonicalise, and
//! the parser round-trips through `Display`.

use hb_types::{parse_method_type, parse_type, MapHierarchy, MethodType, NoHierarchy, Type};
use proptest::prelude::*;

fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Any),
        Just(Type::Bool),
        Just(Type::Nil),
        Just(Type::nominal("Fixnum")),
        Just(Type::nominal("Integer")),
        Just(Type::nominal("Numeric")),
        Just(Type::nominal("Float")),
        Just(Type::nominal("String")),
        Just(Type::nominal("User")),
        Just(Type::nominal("Talk")),
        Just(Type::nominal("Object")),
        Just(Type::Var("t".to_string())),
        Just(Type::ClassObj("User".into())),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3)
                .prop_map(|args| Type::generic("Array", args)),
            prop::collection::vec(inner, 2..4).prop_map(Type::union_of),
        ]
    })
}

fn hier() -> MapHierarchy {
    MapHierarchy::with_numeric_tower()
}

fn contains_any(t: &Type) -> bool {
    match t {
        Type::Any => true,
        Type::Generic(_, args) => args.iter().any(contains_any),
        Type::Union(arms) => arms.iter().any(contains_any),
        _ => false,
    }
}

proptest! {
    #[test]
    fn subtyping_is_reflexive(t in arb_type()) {
        prop_assert!(t.is_subtype(&t, &hier()));
    }

    #[test]
    fn subtyping_is_transitive(a in arb_type(), b in arb_type(), c in arb_type()) {
        let h = hier();
        if a.is_subtype(&b, &h) && b.is_subtype(&c, &h) {
            // %any is bivariant (gradual typing's dynamic type), and
            // bivariance anywhere in the middle type breaks transitivity by
            // design, so exclude chains through types containing it.
            if !contains_any(&b) {
                prop_assert!(a.is_subtype(&c, &h), "{a} <= {b} <= {c} but not {a} <= {c}");
            }
        }
    }

    #[test]
    fn nil_is_bottom(t in arb_type()) {
        prop_assert!(Type::Nil.is_subtype(&t, &hier()));
    }

    #[test]
    fn any_is_bivariant(t in arb_type()) {
        let h = hier();
        prop_assert!(t.is_subtype(&Type::Any, &h));
        prop_assert!(Type::Any.is_subtype(&t, &h));
    }

    #[test]
    fn lub_is_idempotent(t in arb_type()) {
        prop_assert_eq!(t.lub(&t, &hier()), t);
    }

    #[test]
    fn lub_is_commutative_up_to_equivalence(a in arb_type(), b in arb_type()) {
        // With %any nested inside generics, two types can each be a subtype
        // of the other without being equal; lub then returns either
        // representative. Commutativity therefore holds up to mutual
        // subtyping, which is the right statement in a preorder.
        let h = hier();
        let ab = a.lub(&b, &h);
        let ba = b.lub(&a, &h);
        prop_assert!(ab.is_subtype(&ba, &h) && ba.is_subtype(&ab, &h),
            "{ab} and {ba} are not equivalent");
    }

    #[test]
    fn lub_is_upper_bound(a in arb_type(), b in arb_type()) {
        let h = hier();
        let j = a.lub(&b, &h);
        prop_assert!(a.is_subtype(&j, &h), "{a} not <= {a} lub {b} = {j}");
        prop_assert!(b.is_subtype(&j, &h), "{b} not <= {a} lub {b} = {j}");
    }

    #[test]
    fn union_arms_are_subtypes(ts in prop::collection::vec(arb_type(), 1..4)) {
        let h = hier();
        let u = Type::union_of(ts.clone());
        for t in &ts {
            prop_assert!(t.is_subtype(&u, &h), "{t} not <= union {u}");
        }
    }

    #[test]
    fn union_is_canonical_fixpoint(ts in prop::collection::vec(arb_type(), 1..4)) {
        let u = Type::union_of(ts);
        if let Type::Union(arms) = &u {
            prop_assert_eq!(&Type::union_of(arms.clone()), &u);
        }
    }

    #[test]
    fn type_display_roundtrips(t in arb_type()) {
        let printed = t.to_string();
        let reparsed = parse_type(&printed).unwrap();
        prop_assert_eq!(reparsed, t);
    }

    #[test]
    fn erase_vars_removes_all_vars(t in arb_type()) {
        fn has_var(t: &Type) -> bool {
            match t {
                Type::Var(_) => true,
                Type::Generic(_, args) => args.iter().any(has_var),
                Type::Union(arms) => arms.iter().any(has_var),
                _ => false,
            }
        }
        prop_assert!(!has_var(&t.erase_vars()));
    }

    #[test]
    fn without_nil_never_admits_nil_unless_fixed(t in arb_type()) {
        let stripped = t.without_nil();
        match t {
            // Only unions actually strip; other shapes pass through.
            Type::Union(_) => {
                if stripped != Type::Nil && !matches!(stripped, Type::Any) {
                    prop_assert!(!stripped.admits_nil(), "{stripped} still admits nil");
                }
            }
            _ => prop_assert_eq!(stripped, t),
        }
    }
}

fn arb_method_type() -> impl Strategy<Value = MethodType> {
    (
        prop::collection::vec(arb_type(), 0..3),
        arb_type(),
        prop::option::of((prop::collection::vec(arb_type(), 0..2), arb_type())),
    )
        .prop_map(|(params, ret, block)| {
            let mut mt = MethodType::simple(params, ret);
            if let Some((bp, br)) = block {
                mt.block = Some(Box::new(MethodType::simple(bp, br)));
            }
            mt
        })
}

proptest! {
    #[test]
    fn method_type_display_roundtrips(mt in arb_method_type()) {
        let printed = mt.to_string();
        let reparsed = parse_method_type(&printed).unwrap();
        prop_assert_eq!(reparsed, mt);
    }
}

#[test]
fn no_hierarchy_only_object_top() {
    let h = NoHierarchy;
    assert!(Type::nominal("A").is_subtype(&Type::nominal("Object"), &h));
    assert!(!Type::nominal("A").is_subtype(&Type::nominal("B"), &h));
}
