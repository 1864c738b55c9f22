//! The core-library base: a build seeds its type table from the calling
//! thread's evaluated copy of `corelib.rb` instead of evaluating the file
//! again. A seeded build must be indistinguishable from one that evaluates
//! the file: the same fingerprints, generation, entries, statistics and
//! source map, on the thread that made the base and on a fresh one. A
//! system that changes a core-library entry changes its own copy only.

use hb_rdl::AnnotationSource;
use hb_syntax::{FileId, Span};
use hummingbird::{
    corelib_stats, CorelibStats, Derivation, ErrorKind, Hummingbird, LabelRole, MethodKey, Mode,
    RdlStats, SharedCache, CORELIB_ANNOTATIONS,
};
use std::sync::Arc;
use std::thread;

/// One table entry, with every field a build could get wrong.
type EntryDump = (MethodKey, String, u64, Span, AnnotationSource, bool, bool);

/// Everything a system's type table and source map are compared on.
#[derive(Debug, PartialEq)]
struct Dump {
    table_fingerprint: u64,
    var_fingerprint: u64,
    table_generation: u64,
    entries: Vec<EntryDump>,
    stats: RdlStats,
    files: Vec<(FileId, String, String)>,
}

fn dump(hb: &Hummingbird) -> Dump {
    Dump {
        table_fingerprint: hb.rdl.table_fingerprint(),
        var_fingerprint: hb.rdl.var_fingerprint(),
        table_generation: hb.rdl.table_generation(),
        entries: hb
            .rdl
            .entries()
            .into_iter()
            .map(|(k, e)| {
                (
                    k,
                    format!("{:?}", e.sig),
                    e.version,
                    e.span,
                    e.source,
                    e.check,
                    e.always_dyn_check,
                )
            })
            .collect(),
        stats: hb.rdl.stats(),
        files: hb
            .source_map()
            .files()
            .map(|(id, f)| (id, f.name.clone(), f.text.clone()))
            .collect(),
    }
}

/// What evaluating the file gives: a build without the core library
/// that then loads it like any other file.
fn evaluated(mode: Mode) -> Hummingbird {
    let mut hb = Hummingbird::builder().mode(mode).without_corelib().build();
    hb.load_file("<corelib>", CORELIB_ANNOTATIONS).unwrap();
    hb
}

fn seeded(mode: Mode) -> Hummingbird {
    Hummingbird::builder().mode(mode).build()
}

/// Runs `f` on a new thread, which has no core-library base yet.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::spawn(move || {
        assert_eq!(corelib_stats(), CorelibStats::default(), "a fresh thread");
        f()
    })
    .join()
    .unwrap()
}

/// Builds twice per mode on the calling thread and returns the dumps of
/// the seeded builds after checking each against the evaluated path.
fn seeded_dumps_match_evaluation() -> Vec<Dump> {
    let mut out = Vec::new();
    for mode in [Mode::Full, Mode::NoCache] {
        let reference = dump(&evaluated(mode));
        assert!(reference.entries.len() > 150, "the core library loaded");
        for _ in 0..2 {
            let d = dump(&seeded(mode));
            assert_eq!(d, reference, "{mode:?}");
            out.push(d);
        }
    }
    out
}

#[test]
fn seeded_builds_equal_evaluating_the_file() {
    let run = || (seeded_dumps_match_evaluation(), corelib_stats());
    let (here, stats) = on_fresh_thread(run);
    let expected = CorelibStats {
        seeded_builds: 4,
        evaluations: 1,
    };
    assert_eq!(stats, expected, "one evaluation per thread");
    // Another thread evaluates its own base, and seeds the same table.
    let (there, stats) = on_fresh_thread(run);
    assert_eq!(stats, expected);
    assert_eq!(there, here);
}

#[test]
fn original_mode_and_without_corelib_register_no_corelib_file() {
    let before = corelib_stats();
    for hb in [
        Hummingbird::builder().mode(Mode::Original).build(),
        Hummingbird::builder().without_corelib().build(),
    ] {
        assert_eq!(hb.source_map().files().count(), 0);
        assert!(hb.rdl.entries().is_empty());
        assert_eq!(hb.rdl.table_generation(), 0);
    }
    assert_eq!(corelib_stats(), before);
}

/// A derivation as a tenant that redefines and checks a core method
/// would publish under that method's key.
fn derivation(entry_id: u64) -> Derivation {
    Derivation {
        entry_id,
        sig_version: 1,
        body_fp: Some(0xC0DE + entry_id),
        own_sig_fp: 1,
        epochs: (1, 1, 1),
        witnesses: Arc::new([]),
        cast_sites: Arc::new([]),
    }
}

#[test]
fn booting_tenants_evicts_nothing_from_a_populated_shared_tier() {
    let shared = Arc::new(SharedCache::new());
    let mut first = Hummingbird::builder().shared_cache(shared.clone()).build();
    first
        .eval(
            r#"
class Talk
  type :late?, "(Fixnum) -> %bool", { "check" => true }
  def late?(mins)
    mins > 5
  end
end
Talk.new.late?(7)
"#,
        )
        .unwrap();
    // Families under the core-library keys whose evaluation adds a second
    // arm: evaluating the file in every boot would evict them.
    for (n, (class, method)) in [
        ("Fixnum", "+"),
        ("Fixnum", "-"),
        ("Class", "define_method"),
        ("String", "[]"),
    ]
    .into_iter()
    .enumerate()
    {
        shared.insert(MethodKey::instance(class, method), derivation(n as u64));
    }
    let before = shared.stats();
    let len = shared.len();
    assert_eq!(len, 5);
    for _ in 0..10 {
        let _tenant = Hummingbird::builder().shared_cache(shared.clone()).build();
    }
    assert_eq!(shared.stats().evictions, before.evictions);
    assert_eq!(shared.len(), len);
}

#[test]
fn changing_a_core_entry_changes_only_the_systems_own_copy() {
    let plus = MethodKey::instance("Fixnum", "+");
    let minus = MethodKey::instance("Fixnum", "-");
    let reference = dump(&evaluated(Mode::Full));
    let mut hb = seeded(Mode::Full);
    hb.eval(
        r#"
class Calc
  type :inc, "(Fixnum) -> Fixnum", { "check" => true }
  def inc(x)
    x + 1
  end
  type :dec, "(Fixnum) -> Fixnum", { "check" => true }
  def dec(x)
    x - 1
  end
end
Calc.new.inc(1)
Calc.new.dec(1)
"#,
    )
    .unwrap();
    assert_eq!(hb.engine.cache_len(), 2);
    let plus_version = hb.rdl.entry(&plus).unwrap().version;
    let minus_version = hb.rdl.entry(&minus).unwrap().version;

    // A new arm: the version bumps; dependents stay valid (paper §4
    // "Cache Invalidation").
    hb.eval(r#"type Fixnum, "+", "(String) -> String""#)
        .unwrap();
    let entry = hb.rdl.entry(&plus).unwrap();
    assert_eq!(entry.sig.arms.len(), 3);
    assert!(entry.version > plus_version);
    // A replacement: the version bumps, and `dec`, which consulted
    // `Fixnum#-`, is invalidated.
    hb.eval(r#"type Fixnum, "-", "(Fixnum) -> Fixnum", { "replace" => true }"#)
        .unwrap();
    let entry = hb.rdl.entry(&minus).unwrap();
    assert_eq!(entry.sig.arms.len(), 1);
    assert!(entry.version > minus_version);
    hb.eval("Calc.new.inc(1)").unwrap();
    assert_eq!(hb.engine.cache_len(), 1, "dec's derivation was retired");
    assert_eq!(hb.stats().dependent_invalidations, 1);
    assert_eq!(hb.stats().checks_performed, 2, "inc stayed cached");

    // The next build on this thread still gets the evaluated table.
    let next = seeded(Mode::Full);
    assert_eq!(next.rdl.entry(&plus).unwrap().sig.arms.len(), 2);
    assert_eq!(next.rdl.entry(&minus).unwrap().sig.arms.len(), 2);
    assert_eq!(dump(&next), reference);
    assert_ne!(dump(&hb), reference, "the change stayed in its system");
}

const BAD_ADD: &str = r#"
class Calc
  type :f, "(Fixnum) -> Fixnum", { "check" => true }
  def f(x)
    x + "a"
  end
end
Calc.new.f(1)
"#;

/// Runs [`BAD_ADD`] on a new build and returns the rendered blame.
fn rendered_blame() -> String {
    let mut hb = seeded(Mode::Full);
    let err = hb.eval(BAD_ADD).expect_err("the body must blame");
    assert_eq!(err.kind, ErrorKind::TypeBlame, "{err}");
    let diag = err.diagnostic().expect("blame carries a diagnostic");
    let blamed = diag
        .label(LabelRole::BlamedAnnotation)
        .expect("blamed label");
    assert_eq!(blamed.method, Some(MethodKey::instance("Fixnum", "+")));
    diag.render(hb.source_map())
}

#[test]
fn blame_labels_resolve_into_the_core_library() {
    let label = "declared here at <corelib>:67:1 (Fixnum#+)";
    // The first build on the thread evaluates the base; the later one
    // only seeds from it.
    let (first, later) = on_fresh_thread(|| (rendered_blame(), rendered_blame()));
    assert!(first.contains(label), "{first}");
    assert!(later.contains(label), "{later}");
    assert_eq!(first, later);
}
