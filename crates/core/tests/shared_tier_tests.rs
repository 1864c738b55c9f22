//! Multi-tenant shared derivation tier: identical tenants warm each other,
//! and divergent tenants are protected by dependency-version validation.

use hummingbird::{ErrorKind, Hummingbird, MethodKey, SharedCache};
use std::sync::Arc;
use std::thread;

const APP: &str = r#"
class Helper
  type :value, "() -> Fixnum", { "check" => true }
  def value
    41
  end
end
class Talk
  type :compute, "(Helper) -> Fixnum", { "check" => true }
  def compute(h)
    h.value + 1
  end
  type :title_line, "(String) -> String", { "check" => true }
  def title_line(prefix)
    prefix + ": talk"
  end
end
t = Talk.new
t.compute(Helper.new)
t.title_line("PLDI")
"#;

#[test]
fn second_tenant_warm_starts_with_zero_checks() {
    let shared = Arc::new(SharedCache::new());

    // Tenant 1 (cold) runs on its own thread and pays all static checks.
    let s1 = shared.clone();
    let cold = thread::spawn(move || {
        let mut hb = Hummingbird::builder().shared_cache(s1).build();
        hb.eval(APP).unwrap();
        hb.stats()
    })
    .join()
    .unwrap();
    assert_eq!(cold.checks_performed, 3, "cold tenant checks everything");
    assert_eq!(cold.shared_hits, 0);
    assert_eq!(
        shared.stats().inserts,
        3,
        "cold tenant published its derivations"
    );

    // Tenant 2 (warm), a different thread and a fresh interpreter built
    // from identical sources: every first call adopts from the shared
    // tier, so check_sig never runs.
    let s2 = shared.clone();
    let warm = thread::spawn(move || {
        let mut hb = Hummingbird::builder().shared_cache(s2).build();
        hb.eval(APP).unwrap();
        hb.stats()
    })
    .join()
    .unwrap();
    assert_eq!(warm.checks_performed, 0, "warm tenant never runs check_sig");
    assert_eq!(
        warm.shared_hits, 3,
        "all three first calls adopt shared derivations"
    );
    assert_eq!(
        warm.cache_entries, 3,
        "adopted derivations fill the hot tier"
    );
}

#[test]
fn divergent_tenant_fails_validation_and_rechecks() {
    let shared = Arc::new(SharedCache::new());
    let mut t1 = Hummingbird::builder().shared_cache(shared.clone()).build();
    t1.eval(APP).unwrap();
    assert_eq!(t1.stats().checks_performed, 3);

    // Tenant 2 replaces Helper#value's signature *before* first calls.
    // Tenant 1's Talk#compute derivation stays in the tier and fails
    // dependency version validation here, so the tenant re-derives
    // soundly.
    let mut t2 = Hummingbird::builder().shared_cache(shared.clone()).build();
    t2.eval(
        r#"
class Helper
  type :value, "() -> Fixnum", { "check" => true }
  def value
    41
  end
end
class Helper
  type :value, "() -> Fixnum", { "replace" => true }
end
class Talk
  type :compute, "(Helper) -> Fixnum", { "check" => true }
  def compute(h)
    h.value + 1
  end
  type :title_line, "(String) -> String", { "check" => true }
  def title_line(prefix)
    prefix + ": talk"
  end
end
t = Talk.new
t.compute(Helper.new)
t.title_line("PLDI")
"#,
    )
    .unwrap();
    let s = t2.stats();
    // title_line has no divergent deps and keeps warm-hitting; the two
    // methods touching the replaced signature must re-check.
    assert!(
        s.checks_performed >= 2,
        "divergent derivations re-check: {s:?}"
    );
    assert!(
        shared
            .lookup(
                &MethodKey::instance("Talk", "compute"),
                u64::MAX,
                u64::MAX,
                0
            )
            .is_empty(),
        "sanity: lookups with wrong versions never hit"
    );
}

#[test]
fn divergent_hierarchy_blocks_adoption() {
    // check_sig makes is_subtype judgements straight off the class
    // hierarchy, and those judgements leave no witnesses in the
    // derivation's dependency set. A tenant whose hierarchy lacks a
    // subtyping edge the publisher had — same annotations, same body
    // text, same (here: empty) resolution witness set — must re-derive
    // and blame, not adopt the publisher's derivation.
    let shared = Arc::new(SharedCache::new());
    // Evaled as its own source text by both tenants so the body
    // fingerprints coincide; only the hierarchy prelude differs.
    let talk = r#"
class Talk
  type :pick, "(Sub) -> Base", { "check" => true }
  def pick(s)
    s
  end
end
Talk.new.pick(Sub.new)
"#;

    let mut t1 = Hummingbird::builder().shared_cache(shared.clone()).build();
    t1.eval("class Base\nend\nclass Sub < Base\nend").unwrap();
    t1.eval(talk).unwrap();
    assert_eq!(t1.stats().checks_performed, 1);
    assert_eq!(shared.stats().inserts, 1, "publisher shares Talk#pick");

    // Tenant 2 defines Sub *without* the superclass edge, so its own
    // checker would reject pick (Sub is not a subtype of Base).
    let mut t2 = Hummingbird::builder().shared_cache(shared.clone()).build();
    t2.eval("class Base\nend\nclass Sub\nend").unwrap();
    let err = t2.eval(talk).unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame);
    assert!(err.message.contains("Talk#pick"), "{}", err.message);
    let s = t2.stats();
    assert_eq!(s.shared_hits, 0, "divergent hierarchy must not adopt");
}

#[test]
fn divergent_variable_types_block_adoption() {
    // Derivations read ivar/gvar types without per-use witnesses, so a
    // tenant whose variable-type registrations diverge must re-derive
    // (its var fingerprint differs) rather than adopt.
    let shared = Arc::new(SharedCache::new());
    let gvar_app = r#"
var_type "$level", "Fixnum"
class Gauge
  type :level, "() -> Fixnum", { "check" => true }
  def level
    $level
  end
end
$level = 3
Gauge.new.level
"#;
    let mut t1 = Hummingbird::builder().shared_cache(shared.clone()).build();
    t1.eval(gvar_app).unwrap();
    assert_eq!(t1.stats().checks_performed, 1);

    // Same method annotations and body text, but $level is declared
    // String first (then Fixnum, so the call itself still type-checks):
    // the var fingerprint differs, adoption is rejected, and the tenant
    // re-derives.
    let mut t2 = Hummingbird::builder().shared_cache(shared.clone()).build();
    t2.eval(
        r#"
var_type "$dummy", "String"
var_type "$level", "Fixnum"
class Gauge
  type :level, "() -> Fixnum", { "check" => true }
  def level
    $level
  end
end
$level = 3
Gauge.new.level
"#,
    )
    .unwrap();
    let s = t2.stats();
    assert_eq!(s.shared_hits, 0, "divergent var types must not adopt");
    assert_eq!(s.checks_performed, 1, "re-derives instead");
}
