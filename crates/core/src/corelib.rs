//! The core-library base: [`CORELIB_ANNOTATIONS`] evaluated once per
//! thread.
//!
//! Annotations are code: the bundled core-library types are 207 `type`
//! calls, and every system that runs them ends with the same type table.
//! So the first build on a thread evaluates them on a bare system, through
//! the ordinary [`Hummingbird::load_file`] path, and captures the table
//! ([`RdlState::capture_table`]). Every build on the thread, the first
//! included, seeds its own table from that capture
//! ([`RdlState::seed_table`]) and registers `<corelib>` in its source map.
//! The file lands at the `FileId` the base recorded (it is the first file
//! of every system), so the captured spans, blame labels and `analyze`
//! roots resolve as they would after an evaluation. Fingerprints, versions
//! and the table generation are the evaluated ones, so the shared tier and
//! fleet adoption keep their identical-state fast path.
//!
//! A seeded table shares its entries with the base behind `Rc`. A system
//! that changes a core-library entry (a new arm, a `replace`) changes its
//! own copy: [`RdlState::add_type_at`] copies an entry before changing it.
//! The base is per thread, like the parsed-program store, because entries
//! are `Rc`: a process-wide base would need atomic reference counts on the
//! dispatch lookup's per-call clone.
//!
//! [`RdlState::capture_table`]: hb_rdl::RdlState::capture_table
//! [`RdlState::seed_table`]: hb_rdl::RdlState::seed_table
//! [`RdlState::add_type_at`]: hb_rdl::RdlState::add_type_at

use crate::reload::FileMethod;
use crate::{Hummingbird, HummingbirdBuilder, CORELIB_ANNOTATIONS};
use hb_rdl::TableCapture;
use hb_syntax::FileId;
use std::cell::{Cell, OnceCell};

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
    /// The `FileId` every captured span points into.
    file: FileId,
    /// The reload baseline `load_file` recorded for `<corelib>`.
    file_methods: Vec<FileMethod>,
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
    let file = hb
        .interp
        .source_map
        .files()
        .find(|(_, f)| f.name == CORELIB_FILE)
        .map(|(id, _)| id)
        .expect("load_file registered the core library");
    Base {
        table: hb.rdl.capture_table(),
        file,
        file_methods: hb
            .file_methods
            .remove(CORELIB_FILE)
            .expect("load_file recorded the reload baseline"),
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
        let file = hb
            .interp
            .source_map
            .add_file(CORELIB_FILE, CORELIB_ANNOTATIONS);
        assert_eq!(
            file, base.file,
            "<corelib> must register at the FileId its captured spans point into"
        );
        hb.rdl.seed_table(&base.table);
        hb.file_methods
            .insert(CORELIB_FILE.to_string(), base.file_methods.clone());
    });
    SEEDED_BUILDS.with(|n| n.set(n.get() + 1));
}
