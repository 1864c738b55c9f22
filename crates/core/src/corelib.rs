//! The core-library base: [`CORELIB_ANNOTATIONS`] evaluated once per
//! thread.
//!
//! Annotations are code: the bundled core-library types are 207 `type`
//! calls, and every system that runs them ends with the same type table.
//! So the first build on a thread evaluates them on a bare system, through
//! the ordinary [`Hummingbird::load_file`] path, and captures the table
//! ([`RdlState::capture_table`]), the shared `<corelib>` file and the
//! program it ran. Every build on the thread, the first included, seeds
//! its own table from that capture ([`RdlState::seed_table`]), registers
//! the base's file in its source map ([`SourceMap::add_shared`]: nothing
//! is copied, hashed or line-indexed) and keeps the base's program as its
//! reload baseline. The file lands at the `FileId` the base recorded (it
//! is the first file of every system), so the captured spans, blame
//! labels and `analyze` roots resolve as they would after an evaluation.
//! Fingerprints, versions and the table generation are the evaluated
//! ones, so the shared tier and fleet adoption keep their identical-state
//! fast path.
//!
//! A seeded table shares its entries with the base behind `Rc`. A system
//! that changes a core-library entry (a new arm, a `replace`) changes its
//! own copy: [`RdlState::add_type_at`] copies an entry before changing it.
//! The base is per thread, like the source store ([`hb_syntax::store`]),
//! because entries are `Rc`: a process-wide base would need atomic
//! reference counts on the dispatch lookup's per-call clone.
//!
//! The interpreter under every build has a per-thread base of its own:
//! [`Interp::new`] forks the thread's bootstrapped core library (its
//! classes, builtins and class constants) instead of defining it again.
//! Every build, `Mode::Original` included, therefore starts from the same
//! classes and method entry ids on every thread, so the entry-keyed
//! derivations of identical tenants line up.
//!
//! [`Interp::new`]: hb_interp::Interp::new
//! [`SourceMap::add_shared`]: hb_syntax::SourceMap::add_shared
//! [`RdlState::capture_table`]: hb_rdl::RdlState::capture_table
//! [`RdlState::seed_table`]: hb_rdl::RdlState::seed_table
//! [`RdlState::add_type_at`]: hb_rdl::RdlState::add_type_at

use crate::{Hummingbird, HummingbirdBuilder, CORELIB_ANNOTATIONS};
use hb_rdl::TableCapture;
use hb_syntax::{FileId, Program, SourceFile};
use std::cell::{Cell, OnceCell};
use std::rc::Rc;

/// The name the core library is registered under.
const CORELIB_FILE: &str = "<corelib>";

/// The calling thread's core-library counters (see [`corelib_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorelibStats {
    /// Builds whose type table was seeded from the thread's base.
    pub seeded_builds: u64,
    /// Evaluations of the core library: 1 once the thread has its base,
    /// 0 before.
    pub evaluations: u64,
}

/// What evaluating the core library leaves behind.
struct Base {
    table: TableCapture,
    /// The shared `<corelib>` file every seeded source map registers.
    file: Rc<SourceFile>,
    /// The `FileId` every captured span points into.
    id: FileId,
    /// The program `load_file` ran: a seeded system's reload baseline.
    program: Rc<Program>,
}

thread_local! {
    static BASE: OnceCell<Base> = const { OnceCell::new() };
    static SEEDED_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's core-library counters.
pub fn corelib_stats() -> CorelibStats {
    CorelibStats {
        seeded_builds: SEEDED_BUILDS.with(Cell::get),
        evaluations: BASE.with(|base| u64::from(base.get().is_some())),
    }
}

fn evaluate() -> Base {
    let mut hb = HummingbirdBuilder::default().without_corelib().build();
    hb.load_file(CORELIB_FILE, CORELIB_ANNOTATIONS)
        .expect("core-library annotations must load");
    let (id, file) = hb
        .interp
        .source_map
        .files()
        .find(|(_, f)| f.name == CORELIB_FILE)
        .map(|(id, f)| (id, f.clone()))
        .expect("load_file registered the core library");
    Base {
        table: hb.rdl.capture_table(),
        file,
        id,
        program: hb
            .programs
            .remove(CORELIB_FILE)
            .expect("load_file kept the program it ran"),
    }
}

/// Gives a freshly assembled system the core library: its type table is
/// seeded from the calling thread's base, which the thread's first call
/// evaluates.
///
/// # Panics
///
/// Panics if the bundled annotations fail to load, or if `<corelib>`
/// registers at another `FileId` than in the base.
pub(crate) fn seed(hb: &mut Hummingbird) {
    BASE.with(|base| {
        let base = base.get_or_init(evaluate);
        let id = hb.interp.source_map.add_shared(base.file.clone());
        assert_eq!(
            id, base.id,
            "<corelib> must register at the FileId its captured spans point into"
        );
        hb.rdl.seed_table(&base.table);
        hb.programs
            .insert(CORELIB_FILE.to_string(), base.program.clone());
    });
    SEEDED_BUILDS.with(|n| n.set(n.get() + 1));
}
