//! The per-thread parsed-program store: one parse per source text per
//! thread.
//!
//! [`parse_in`] is the one path from source text to the program a system
//! runs. It registers the file in the caller's [`SourceMap`] and returns
//! the program from a store keyed by `(FileId, text)`, parsing only on a
//! miss. Systems that load the same files in the same order register
//! them at the same ids (the core library is file 0 of every system), so
//! a thread that boots tenant after tenant parses each file once and
//! hands every later tenant the same `Rc<Program>`. Method bodies are
//! `Rc<MethodDefNode>`, so the tenants share those too.
//!
//! Parsing is a pure function of `(text, FileId)`: the parser has no
//! global state. A stored program is therefore exactly what a fresh parse
//! would produce, and spans, body fingerprints and epochs come out
//! bit-identical; the shared derivation tier and fleet adoption depend on
//! that. The content hash is only a quick first test: a hit also needs
//! the byte-identical text. Parse errors are never stored, so a repeated load
//! parses again and returns the same error.
//!
//! The store is per thread because the AST is built on `Rc` and the
//! interpreter is single-threaded; a thread's first load of a file still
//! parses. At most 256 programs are kept (a constant): a miss beyond that
//! evicts the least recently used one.

use crate::ast::Program;
use crate::diag::ParseError;
use crate::parser::parse_with_file;
use crate::span::{FileId, SourceFile, SourceMap};
use std::cell::RefCell;
use std::rc::Rc;

/// Most programs one thread's store keeps. The tenant-lifecycle
/// benchmark, which boots the six subject apps in both modes, serves
/// their request scripts and reloads every Talks version, holds 110.
pub(crate) const STORE_CAPACITY: usize = 256;

/// The calling thread's store counters (see [`store_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered from the store.
    pub hits: u64,
    /// Loads that parsed, failed parses included.
    pub misses: u64,
    /// Programs held now (at most 256).
    pub programs: usize,
}

struct Stored {
    file: FileId,
    /// The text's content hash: compared before the text itself.
    hash: u64,
    text: Box<str>,
    program: Rc<Program>,
    last_use: u64,
}

/// At most [`STORE_CAPACITY`] entries, so a linear scan finds one.
#[derive(Default)]
struct Store {
    entries: Vec<Stored>,
    /// Advances on every load; orders entries for eviction.
    clock: u64,
    stats: StoreStats,
}

impl Store {
    fn lookup(&mut self, file: FileId, hash: u64, text: &str) -> Option<Rc<Program>> {
        self.clock += 1;
        let Some(hit) = self
            .entries
            .iter_mut()
            .find(|e| e.file == file && e.hash == hash && &*e.text == text)
        else {
            self.stats.misses += 1;
            return None;
        };
        hit.last_use = self.clock;
        self.stats.hits += 1;
        Some(hit.program.clone())
    }

    fn insert(&mut self, file: FileId, hash: u64, text: &str, program: Rc<Program>) {
        if self.entries.len() >= STORE_CAPACITY {
            let oldest = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].last_use)
                .expect("the store is full");
            self.entries.swap_remove(oldest);
        }
        self.entries.push(Stored {
            file,
            hash,
            text: text.into(),
            program,
            last_use: self.clock,
        });
        self.stats.programs = self.entries.len();
    }
}

thread_local! {
    static STORE: RefCell<Store> = RefCell::new(Store::default());
}

/// Registers `src` in `map` under `name` and returns its program, parsed
/// at most once per thread for that file id and text (see the module
/// docs).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_in(map: &mut SourceMap, name: &str, src: &str) -> Result<Rc<Program>, ParseError> {
    let id = map.add_file(name, src);
    parse_file(id, map.file(id).expect("registered above"))
}

/// The program of a file already registered at `id`, from the calling
/// thread's store, parsing on a miss.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_file(id: FileId, file: &SourceFile) -> Result<Rc<Program>, ParseError> {
    let hash = file.content_hash();
    if let Some(program) = STORE.with(|s| s.borrow_mut().lookup(id, hash, &file.text)) {
        return Ok(program);
    }
    let program = Rc::new(parse_with_file(&file.text, id)?);
    STORE.with(|s| s.borrow_mut().insert(id, hash, &file.text, program.clone()));
    Ok(program)
}

/// The calling thread's store counters.
pub fn store_stats() -> StoreStats {
    STORE.with(|s| s.borrow().stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hits and misses since `before`.
    fn delta(before: StoreStats) -> (u64, u64) {
        let now = store_stats();
        (now.hits - before.hits, now.misses - before.misses)
    }

    #[test]
    fn same_file_and_text_hits_and_shares_the_program() {
        let src = "class StoreHit\n  def m\n    1\n  end\nend\n";
        let before = store_stats();
        let a = parse_in(&mut SourceMap::new(), "a.rb", src).unwrap();
        let b = parse_in(&mut SourceMap::new(), "a.rb", src).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(delta(before), (1, 1));
    }

    #[test]
    fn same_text_at_another_file_id_misses() {
        let src = "store_other_id = 1\n";
        let before = store_stats();
        let mut first = SourceMap::new();
        let a = parse_in(&mut first, "x.rb", src).unwrap();
        let mut shifted = SourceMap::new();
        shifted.add_file("<pad>", "");
        let b = parse_in(&mut shifted, "x.rb", src).unwrap();
        assert_eq!(delta(before), (0, 2));
        assert_eq!(a.body[0].span.file, FileId(0));
        assert_eq!(b.body[0].span.file, FileId(1));
    }

    #[test]
    fn edited_text_misses() {
        let before = store_stats();
        let a = parse_in(&mut SourceMap::new(), "e.rb", "store_edit = 1\n").unwrap();
        let b = parse_in(&mut SourceMap::new(), "e.rb", "store_edit = 2\n").unwrap();
        assert_ne!(a, b);
        assert_eq!(delta(before), (0, 2));
    }

    #[test]
    fn parse_error_repeats_identically_and_is_never_stored() {
        let src = "def store_broken(\n";
        let before = store_stats();
        let mut map = SourceMap::new();
        let e1 = parse_in(&mut map, "bad.rb", src).unwrap_err();
        let e2 = parse_in(&mut map, "bad.rb", src).unwrap_err();
        let e3 = parse_in(&mut SourceMap::new(), "bad.rb", src).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(e1, e3);
        assert_eq!(delta(before), (0, 3));
        assert_eq!(store_stats().programs, before.programs);
    }

    #[test]
    fn store_stays_within_its_bound_and_evicts_the_oldest() {
        let text = |i: usize| format!("store_bound_{i} = {i}\n");
        let first = text(0);
        parse_in(&mut SourceMap::new(), "b.rb", &first).unwrap();
        for i in 1..STORE_CAPACITY + 40 {
            parse_in(&mut SourceMap::new(), "b.rb", &text(i)).unwrap();
            assert!(store_stats().programs <= STORE_CAPACITY);
        }
        assert_eq!(store_stats().programs, STORE_CAPACITY);
        let before = store_stats();
        parse_in(&mut SourceMap::new(), "b.rb", &text(STORE_CAPACITY + 39)).unwrap();
        assert_eq!(delta(before), (1, 0), "the newest text is kept");
        let before = store_stats();
        parse_in(&mut SourceMap::new(), "b.rb", &first).unwrap();
        assert_eq!(delta(before), (0, 1), "the oldest text was evicted");
    }

    #[test]
    fn another_threads_store_is_independent() {
        let src = "store_thread = 1\n";
        let mine = parse_in(&mut SourceMap::new(), "t.rb", src).unwrap();
        let before = store_stats();
        let (theirs, stats) = std::thread::spawn(move || {
            let p = parse_in(&mut SourceMap::new(), "t.rb", src).unwrap();
            (format!("{p:?}"), store_stats())
        })
        .join()
        .unwrap();
        assert_eq!(stats.misses, 1, "a fresh thread starts with an empty store");
        assert_eq!(stats.hits, 0);
        assert_eq!(theirs, format!("{mine:?}"), "and parses the same program");
        assert_eq!(store_stats(), before);
    }
}
