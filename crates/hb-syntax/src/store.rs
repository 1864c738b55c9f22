//! The per-thread source store: one registration and one parse per source
//! text per thread.
//!
//! [`parse_in`] is the one path from source text to the program a system
//! runs. It takes the text's [`SourceFile`] from the store, registers it
//! in the caller's [`SourceMap`], and returns the program from the store,
//! parsing only on a miss. Two tables make up the store:
//!
//! - **Files.** One `Rc<SourceFile>` per byte-identical `(name, text)`.
//!   A lookup goes by name and confirms with a byte comparison, so a hit
//!   hashes, copies and line-indexes nothing; the content hash is
//!   computed once, when the file is made. [`SourceMap::add_file`] takes
//!   its files from here too.
//! - **Programs.** One `Rc<Program>` per `(FileId, text)`. Systems that
//!   load the same files in the same order register them at the same ids
//!   (the core library is file 0 of every system), so a thread that boots
//!   tenant after tenant parses each file once and hands every later
//!   tenant the same program. Method bodies are `Rc<MethodDefNode>`, so
//!   the tenants share those too.
//!
//! Parsing is a pure function of `(text, FileId)`: the parser has no
//! global state. A stored program is therefore exactly what a fresh parse
//! would produce, and spans, body fingerprints and epochs come out
//! bit-identical; the shared derivation tier and fleet adoption depend on
//! that. A shared file holds the same name, text, line index and content
//! hash a fresh one would. Parse errors are never stored, so a repeated
//! load parses again and returns the same error.
//!
//! The store is per thread because the AST is built on `Rc` and the
//! interpreter is single-threaded; a thread's first load of a text still
//! registers and parses it. Each table keeps at most [`STORE_CAPACITY`]
//! entries (a constant): a miss beyond that evicts the least recently
//! used one. An evicted file stays alive in every source map that holds
//! it.

use crate::ast::Program;
use crate::diag::ParseError;
use crate::parser::parse_with_file;
use crate::span::{FileId, SourceFile, SourceMap};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Most files, and most programs, one thread's store keeps. The
/// tenant-lifecycle benchmark, which boots the six subject apps in both
/// modes, serves their request scripts and reloads every Talks version,
/// holds 110 programs.
pub const STORE_CAPACITY: usize = 256;

/// The calling thread's store counters (see [`store_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered from the store.
    pub hits: u64,
    /// Loads that parsed, failed parses included.
    pub misses: u64,
    /// Programs held now (at most [`STORE_CAPACITY`]).
    pub programs: usize,
    /// Registrations answered with a file the thread already had.
    pub file_hits: u64,
    /// Registrations that made a new file: copied, line-indexed and
    /// hashed the text.
    pub file_misses: u64,
    /// Files held now (at most [`STORE_CAPACITY`]).
    pub files: usize,
}

struct SharedFile {
    file: Rc<SourceFile>,
    last_use: u64,
}

struct Stored {
    id: FileId,
    /// The file the program was parsed from: the same `Rc` on a hit,
    /// unless the file table evicted it in between.
    file: Rc<SourceFile>,
    program: Rc<Program>,
    last_use: u64,
}

#[derive(Default)]
struct Store {
    /// Shared files by name; a name's texts are told apart by bytes.
    files: HashMap<Box<str>, Vec<SharedFile>>,
    /// At most [`STORE_CAPACITY`] entries, so a linear scan finds one.
    programs: Vec<Stored>,
    /// Advances on every lookup; orders entries for eviction.
    clock: u64,
    stats: StoreStats,
}

impl Store {
    fn file(&mut self, name: &str, text: &str) -> Rc<SourceFile> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(hit) = self
            .files
            .get_mut(name)
            .and_then(|same| same.iter_mut().find(|s| s.file.text == text))
        {
            hit.last_use = clock;
            self.stats.file_hits += 1;
            return hit.file.clone();
        }
        self.stats.file_misses += 1;
        if self.stats.files >= STORE_CAPACITY {
            self.evict_file();
        }
        let file = Rc::new(SourceFile::new(name, text));
        self.files.entry(name.into()).or_default().push(SharedFile {
            file: file.clone(),
            last_use: clock,
        });
        self.stats.files += 1;
        file
    }

    fn evict_file(&mut self) {
        let (name, i) = self
            .files
            .iter()
            .flat_map(|(name, same)| {
                same.iter()
                    .enumerate()
                    .map(move |(i, s)| (s.last_use, name, i))
            })
            .min()
            .map(|(_, name, i)| (name.clone(), i))
            .expect("the file table is full");
        let same = self.files.get_mut(&name).expect("found above");
        same.swap_remove(i);
        if same.is_empty() {
            self.files.remove(&name);
        }
        self.stats.files -= 1;
    }

    fn program(&mut self, id: FileId, file: &Rc<SourceFile>) -> Option<Rc<Program>> {
        self.clock += 1;
        let Some(hit) = self
            .programs
            .iter_mut()
            .find(|e| e.id == id && (Rc::ptr_eq(&e.file, file) || e.file.text == file.text))
        else {
            self.stats.misses += 1;
            return None;
        };
        hit.last_use = self.clock;
        self.stats.hits += 1;
        Some(hit.program.clone())
    }

    fn insert_program(&mut self, id: FileId, file: &Rc<SourceFile>, program: Rc<Program>) {
        if self.programs.len() >= STORE_CAPACITY {
            let oldest = (0..self.programs.len())
                .min_by_key(|&i| self.programs[i].last_use)
                .expect("the store is full");
            self.programs.swap_remove(oldest);
        }
        self.programs.push(Stored {
            id,
            file: file.clone(),
            program,
            last_use: self.clock,
        });
        self.stats.programs = self.programs.len();
    }
}

thread_local! {
    static STORE: RefCell<Store> = RefCell::new(Store::default());
}

/// The calling thread's shared file for `(name, text)`, made on a miss.
pub(crate) fn shared_file(name: &str, text: &str) -> Rc<SourceFile> {
    STORE.with(|s| s.borrow_mut().file(name, text))
}

/// Registers `src` in `map` under `name` and returns its program, parsed
/// at most once per thread for that file id and text (see the module
/// docs).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_in(map: &mut SourceMap, name: &str, src: &str) -> Result<Rc<Program>, ParseError> {
    let file = shared_file(name, src);
    let id = map.add_shared(file.clone());
    parse_file(id, &file)
}

/// The program of a file already registered at `id`, from the calling
/// thread's store, parsing on a miss.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_file(id: FileId, file: &Rc<SourceFile>) -> Result<Rc<Program>, ParseError> {
    if let Some(program) = STORE.with(|s| s.borrow_mut().program(id, file)) {
        return Ok(program);
    }
    let program = Rc::new(parse_with_file(&file.text, id)?);
    STORE.with(|s| s.borrow_mut().insert_program(id, file, program.clone()));
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

    /// File hits and misses since `before`.
    fn file_delta(before: StoreStats) -> (u64, u64) {
        let now = store_stats();
        (
            now.file_hits - before.file_hits,
            now.file_misses - before.file_misses,
        )
    }

    #[test]
    fn maps_on_one_thread_share_one_file() {
        let src = "store_shared = 1\nstore_shared\n";
        let before = store_stats();
        let mut a = SourceMap::new();
        let program = parse_in(&mut a, "shared.rb", src).unwrap();
        let mut b = SourceMap::new();
        let id = b.add_file("shared.rb", src);
        let (fa, fb) = (a.file(id).unwrap(), b.file(id).unwrap());
        assert!(Rc::ptr_eq(fa, fb));
        assert_eq!(file_delta(before), (1, 1));
        assert!(Rc::ptr_eq(&parse_file(id, fb).unwrap(), &program));
        // The shared file is the one a fresh registration makes.
        let fresh = SourceFile::new("shared.rb", src);
        assert_eq!(
            (&fa.name, &fa.text, fa.content_hash(), fa.line_col(20)),
            (
                &fresh.name,
                &fresh.text,
                fresh.content_hash(),
                fresh.line_col(20)
            )
        );
    }

    #[test]
    fn another_name_or_another_text_is_another_file() {
        let before = store_stats();
        let file = shared_file("n1.rb", "store_named = 1\n");
        let other_name = shared_file("n2.rb", "store_named = 1\n");
        let other_text = shared_file("n1.rb", "store_named = 2\n");
        assert!(!Rc::ptr_eq(&file, &other_name));
        assert!(!Rc::ptr_eq(&file, &other_text));
        assert_eq!(file.content_hash(), other_name.content_hash());
        assert!(Rc::ptr_eq(
            &file,
            &shared_file("n1.rb", "store_named = 1\n")
        ));
        assert_eq!(file_delta(before), (1, 3));
    }

    #[test]
    fn file_table_stays_within_its_bound_and_evicts_the_oldest() {
        let text = |i: usize| format!("store_file_bound_{i} = {i}\n");
        let first = shared_file("f.rb", &text(0));
        for i in 1..STORE_CAPACITY + 40 {
            shared_file("f.rb", &text(i));
            assert!(store_stats().files <= STORE_CAPACITY);
        }
        assert_eq!(store_stats().files, STORE_CAPACITY);
        let before = store_stats();
        shared_file("f.rb", &text(STORE_CAPACITY + 39));
        assert_eq!(file_delta(before), (1, 0), "the newest text is kept");
        let before = store_stats();
        let again = shared_file("f.rb", &text(0));
        assert_eq!(file_delta(before), (0, 1), "the oldest text was evicted");
        // A map holding the evicted file keeps it, and a registration of
        // the remade one finds it.
        assert!(!Rc::ptr_eq(&first, &again));
        let mut map = SourceMap::new();
        let id = map.add_shared(first);
        assert_eq!(map.add_shared(again), id);
        assert_eq!(map.files().count(), 1);
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
        assert_eq!((stats.file_hits, stats.file_misses), (0, 1), "and no files");
        assert_eq!(theirs, format!("{mine:?}"), "and parses the same program");
        assert_eq!(store_stats(), before);
    }
}
